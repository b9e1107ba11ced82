"""Offline batch scoring: rows file in, predictions file out.

The file format is the obvious one: one sample per line, written as
``n_inputs`` characters of ``0``/``1`` (spaces and commas between
bits are tolerated on input; ``#`` starts a comment).  Output files
hold one line of ``n_outputs`` bits per input row, so a single-output
contest circuit produces one character per line.

This path shares ``ModelStore``, ``validate_rows`` and the compiled
engine with the HTTP server, so `repro predict` is the same
computation as POSTing the rows to ``/predict/{model}`` — just
without a server in the loop.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from repro.serve.bundle import validate_rows
from repro.serve.store import ModelStore

PathLike = str | Path


def read_rows_file(path: PathLike) -> np.ndarray:
    """Parse a rows file into an ``(n_rows, n_inputs)`` uint8 matrix."""
    rows = []
    width = None
    for lineno, raw in enumerate(
        Path(path).read_text(encoding="utf-8").splitlines(), start=1
    ):
        line = raw.split("#", 1)[0].strip().replace(",", " ")
        if not line:
            continue
        bits = line.replace(" ", "")
        if set(bits) - {"0", "1"}:
            raise ValueError(
                f"{path}:{lineno}: expected only 0/1 bits, got {line!r}"
            )
        if width is None:
            width = len(bits)
        elif len(bits) != width:
            raise ValueError(
                f"{path}:{lineno}: row has {len(bits)} bits, "
                f"earlier rows have {width}"
            )
        rows.append([int(b) for b in bits])
    if not rows:
        raise ValueError(f"{path} holds no input rows")
    return np.asarray(rows, dtype=np.uint8)


def format_outputs(outputs: np.ndarray) -> str:
    """Render ``(n_rows, n_outputs)`` predictions as bit lines."""
    lines = ["".join(str(int(b)) for b in row) for row in outputs]
    return "\n".join(lines) + "\n"


def predict_file(
    store_dir: PathLike,
    model: str,
    in_path: PathLike,
    out_path: PathLike,
    cache_size: int = 32,
) -> int:
    """Score a rows file against a stored model; returns row count."""
    store = ModelStore(store_dir, cache_size=cache_size)
    info = store.info(model)
    rows = validate_rows(read_rows_file(in_path), info.n_inputs, info.name)
    outputs = store.load(model).run(rows)
    Path(out_path).write_text(format_outputs(outputs), encoding="ascii")
    return int(outputs.shape[0])
