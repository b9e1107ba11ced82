"""Espresso-dialect PLA files.

The contest ships each benchmark as three PLA files (train / validation
/ test) listing care minterms with their output value; everything else
is don't care (``.type fr`` semantics).  This module reads and writes
that dialect and converts to/from sample matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.twolevel.cube import Cube

PathLike = str | Path


@dataclass
class PLA:
    """Parsed PLA: input cubes with one output column each."""

    n_inputs: int
    n_outputs: int = 1
    input_labels: list[str] | None = None
    output_labels: list[str] | None = None
    rows: list[tuple[Cube, str]] = field(default_factory=list)

    def add_row(self, cube: Cube, outputs: str) -> None:
        if len(outputs) != self.n_outputs:
            raise ValueError("output column count mismatch")
        self.rows.append((cube, outputs))

    def to_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """Expand to ``(X, y)`` sample matrices.

        Requires every row to be a full minterm (the contest data is),
        and a single output of ``0`` or ``1``.
        """
        if self.n_outputs != 1:
            raise ValueError("to_samples requires a single-output PLA")
        full_mask = (1 << self.n_inputs) - 1
        X = np.zeros((len(self.rows), self.n_inputs), dtype=np.uint8)
        y = np.zeros(len(self.rows), dtype=np.uint8)
        for r, (cube, out) in enumerate(self.rows):
            if cube.mask != full_mask:
                raise ValueError("PLA row is not a complete minterm")
            if out not in ("0", "1"):
                raise ValueError(f"PLA row {r}: output {out!r} is not 0 or 1")
            for i in range(self.n_inputs):
                X[r, i] = (cube.value >> i) & 1
            y[r] = int(out)
        return X, y

    @staticmethod
    def from_samples(X: np.ndarray, y: np.ndarray) -> "PLA":
        """Single-output PLA listing each sample as a care minterm."""
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y).ravel()
        pla = PLA(n_inputs=X.shape[1], n_outputs=1)
        for row, label in zip(X, y, strict=True):
            value = 0
            for i, bit in enumerate(row):
                if bit:
                    value |= 1 << i
            cube = Cube((1 << X.shape[1]) - 1, value)
            pla.add_row(cube, "1" if label else "0")
        return pla


def write_pla(pla: PLA, path: PathLike) -> None:
    """Write a PLA file in the espresso dialect (``.type fr``)."""
    lines = [f".i {pla.n_inputs}", f".o {pla.n_outputs}"]
    if pla.input_labels:
        lines.append(".ilb " + " ".join(pla.input_labels))
    if pla.output_labels:
        lines.append(".ob " + " ".join(pla.output_labels))
    lines.append(".type fr")
    lines.append(f".p {len(pla.rows)}")
    for cube, outputs in pla.rows:
        lines.append(f"{cube.to_string(pla.n_inputs)} {outputs}")
    lines.append(".e")
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def read_pla(path: PathLike) -> PLA:
    """Read a PLA file (subset of the espresso dialect)."""
    n_inputs = None
    n_outputs = 1
    input_labels = None
    output_labels = None
    rows: list[tuple[Cube, str]] = []
    lines = Path(path).read_text(encoding="ascii").splitlines()
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("."):
            fields = line.split()
            keyword = fields[0]
            if keyword in (".i", ".o"):
                try:
                    count = int(fields[1])
                except (IndexError, ValueError):
                    raise ValueError(
                        f"line {lineno}: {keyword} needs an integer count: {line!r}"
                    ) from None
                if keyword == ".i":
                    n_inputs = count
                else:
                    n_outputs = count
            elif keyword == ".ilb":
                input_labels = fields[1:]
            elif keyword == ".ob":
                output_labels = fields[1:]
            elif keyword in (".p", ".type", ".e", ".end"):
                continue
            else:
                continue  # ignore unknown directives
        else:
            fields = line.split()
            if len(fields) == 1:
                in_part = fields[0][:-n_outputs]
                out_part = fields[0][-n_outputs:]
            else:
                in_part = "".join(fields[:-1])
                out_part = fields[-1]
            rows.append((Cube.from_string(in_part), out_part))
    if n_inputs is None:
        raise ValueError("PLA file missing .i directive")
    pla = PLA(n_inputs, n_outputs, input_labels, output_labels)
    for cube, out in rows:
        pla.add_row(cube, out)
    return pla
