"""Circuit bundles: one servable ``.aag`` circuit plus its metadata.

A :class:`CircuitBundle` is the unit the serving layer loads — the
AIGER text of a learned circuit together with the record the contest
runner stored for it (accuracy, size, provenance), summarized as a
:class:`ModelInfo`.  Compiling the bundle yields the circuit's
:class:`~repro.sim.engine.CompiledAIG`, the same engine the contest
scores with, built exactly once; after that every predict call is a
few whole-array numpy ops (see :mod:`repro.sim`).  Rows from outside
go through :func:`validate_rows` first.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.aig.aiger import loads_aag
from repro.sim.engine import CompiledAIG

PathLike = str | Path


def validate_rows(rows: Any, n_inputs: int, name: str) -> np.ndarray:
    """Coerce ``rows`` to a strict ``(n, n_inputs)`` uint8 0/1 matrix.

    Standalone so callers that know a model's interface (the
    microbatcher reads it off the catalogue metadata) can validate at
    enqueue time without holding — or compiling — the circuit itself.
    Raises ``ValueError`` on anything that is not a clean 0/1 matrix
    of the right width; see the inline comments for why each case is
    rejected rather than coerced.
    """
    raw = np.asarray(rows)
    # Only numbers: numpy would happily cast "1" or a bool-ish object.
    if raw.dtype.kind not in "biuf":
        raise ValueError(
            f"model {name!r} takes 0/1 rows, got non-numeric {raw.dtype} values"
        )
    if raw.ndim == 1:
        raw = raw[None, :]
    if raw.ndim != 2 or raw.shape[1] != n_inputs:
        raise ValueError(
            f"model {name!r} takes rows of "
            f"{n_inputs} bits, got shape {tuple(raw.shape)}"
        )
    # Strictly 0/1, checked *before* the uint8 cast, which would wrap
    # 256 to 0, -1 to 255 and truncate 0.9 to 0.  The packed
    # representation encodes bit s at position s, so a stray 2 would
    # carry into a *neighbouring sample's* bit once rows are coalesced
    # into one batch — garbage in one request must never touch
    # another's output.
    if raw.dtype.kind != "b":
        binary = (raw == 0) | (raw == 1)
        if not binary.all():
            bad = raw[~binary][0]
            kind = (
                "fractional value"
                if raw.dtype.kind == "f" and not float(bad).is_integer()
                else "value"
            )
            raise ValueError(f"model {name!r} takes 0/1 rows, got {kind} {bad}")
    return raw.astype(np.uint8)


@dataclass(frozen=True)
class ModelInfo:
    """Serving-relevant metadata of one learned circuit."""

    name: str  # benchmark name, e.g. "ex74" (the serving route)
    n_inputs: int
    n_outputs: int
    num_ands: int
    levels: int
    flow: str | None = None
    seed: int | None = None
    test_accuracy: float | None = None
    benchmark: int | str | None = None  # suite index or registry name
    key: str | None = None  # run-store task key, when from a store

    def to_json(self) -> dict[str, Any]:
        """JSON-safe dict (what ``/models`` serves)."""
        return asdict(self)


class CircuitBundle:
    """AIGER text + metadata; compiled on demand by the model store."""

    def __init__(self, aag_text: str, metadata: dict[str, Any] | None = None):
        self.aag_text = aag_text
        self.metadata: dict[str, Any] = dict(metadata or {})
        self._info: ModelInfo | None = None
        self._digest: str | None = None

    @property
    def digest(self) -> str:
        """Content identity of the served circuit (SHA-256 of the text).

        Two bundles with the same digest serve bit-identical circuits;
        a different digest under the same model name means the store
        now holds a *different* solution.  The model store's refresh
        evicts on a changed digest, so a refreshed store can never
        keep serving a stale compile.
        """
        if self._digest is None:
            self._digest = hashlib.sha256(
                self.aag_text.encode("ascii")
            ).hexdigest()
        return self._digest

    @classmethod
    def from_files(
        cls, aag_path: PathLike, meta_path: PathLike | None = None
    ) -> "CircuitBundle":
        """Load from an ``.aag`` file plus an optional JSON sidecar.

        With no explicit ``meta_path``, a sibling ``<stem>.json`` is
        used when present; a bare ``.aag`` file serves fine without
        one (the name defaults to the file stem).
        """
        aag_path = Path(aag_path)
        metadata: dict[str, Any] = {}
        if meta_path is None:
            sidecar = aag_path.with_suffix(".json")
            if sidecar.exists():
                meta_path = sidecar
        if meta_path is not None:
            metadata = json.loads(Path(meta_path).read_text(encoding="utf-8"))
        metadata.setdefault("benchmark_name", aag_path.stem)
        return cls(aag_path.read_text(encoding="ascii"), metadata)

    def _build_info(
        self, n_inputs: int, n_outputs: int, num_ands: int, levels: int
    ) -> ModelInfo:
        meta = self.metadata
        benchmark = meta.get("benchmark")
        if isinstance(benchmark, str):
            try:  # digit strings are suite indices; spec names stay put
                benchmark = int(benchmark)
            except ValueError:
                pass
        return ModelInfo(
            name=str(meta.get("benchmark_name") or meta.get("name") or "circuit"),
            n_inputs=n_inputs,
            n_outputs=n_outputs,
            num_ands=int(meta.get("num_ands", num_ands)),
            levels=int(meta.get("levels", levels)),
            flow=meta.get("flow"),
            seed=meta.get("seed"),
            test_accuracy=meta.get("test_accuracy"),
            benchmark=benchmark,
            key=meta.get("key"),
        )

    def header_counts(self) -> "tuple[int, int, int]":
        """``(n_inputs, n_outputs, n_ands)`` straight off the header."""
        fields = self.aag_text.split("\n", 1)[0].split()
        return int(fields[2]), int(fields[4]), int(fields[5])

    def info(self) -> ModelInfo:
        """Catalogue metadata *without* keeping a compiled plan.

        Run-store records carry accuracy/size/levels and the ``.aag``
        header carries the interface, so listing a large store stays
        O(1) per model.  Only a bare bundle with no structural
        metadata parses the circuit (for ``levels``) — and then only
        the small :class:`ModelInfo` is retained: compiled *plans*
        are owned exclusively by the model store's LRU, so listing a
        10k-circuit directory cannot pin 10k plans in memory.
        """
        if self._info is None:
            if "num_ands" in self.metadata and "levels" in self.metadata:
                n_inputs, n_outputs, n_ands = self.header_counts()
                self._info = self._build_info(n_inputs, n_outputs, n_ands, 0)
            else:
                aig = loads_aag(self.aag_text)
                self._info = self._build_info(
                    aig.n_inputs, aig.num_outputs, aig.count_used_ands(),
                    aig.depth(),
                )
        return self._info

    def compile(self) -> CompiledAIG:
        """Parse + levelize-compile the circuit.  Not cached here: the
        model store's LRU is the one holder of compiled circuits."""
        return loads_aag(self.aag_text).compiled()
