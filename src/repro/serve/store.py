"""Model store: pick, load and cache the best circuit per benchmark.

A :class:`ModelStore` turns a directory of learned circuits into a
serving catalogue.  Two layouts are understood:

Run-store mode
    A directory written by the contest runner (``records.jsonl`` +
    ``solutions/*.aag``, see :mod:`repro.runner.store`).  Among the
    records that kept their circuit, the *best solution per benchmark*
    is selected: legal before illegal, then highest test accuracy,
    then fewest AND nodes, then fewest levels, with the task key as
    the final deterministic tie-break.

Bundle-directory mode
    Any directory of ``*.aag`` files, each optionally paired with a
    ``<stem>.json`` metadata sidecar.  The model name is the metadata
    ``benchmark_name`` or, failing that, the file stem.

``load(name)`` compiles the chosen circuit through the levelized sim
engine on first use and keeps it in a bounded LRU, so a hot model
costs one dictionary hit per request while a long tail of cold models
cannot exhaust memory.
"""

from __future__ import annotations

from collections import OrderedDict
from pathlib import Path
from typing import Any

from repro.runner.store import RECORDS_NAME, RunStore
from repro.serve.bundle import CircuitBundle, CompiledCircuit, ModelInfo

PathLike = str | Path


def _record_rank(record: dict[str, Any]) -> tuple[Any, ...]:
    """Sort key: better solutions first (see module docstring)."""
    return (
        not record.get("legal", True),
        -float(record.get("test_accuracy", 0.0)),
        int(record.get("num_ands", 0)),
        int(record.get("levels", 0)),
        str(record.get("key", "")),
    )


class ModelStore:
    """Best-solution catalogue over a run store or bundle directory."""

    def __init__(self, root: PathLike, cache_size: int = 32):
        if cache_size < 1:
            raise ValueError("cache_size must be >= 1")
        self.root = Path(root)
        self.cache_size = cache_size
        self._bundles: dict[str, CircuitBundle] = {}
        self._cache: OrderedDict[str, CompiledCircuit] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.stale_evictions = 0
        self.refresh()

    # -- catalogue ---------------------------------------------------

    def refresh(self) -> None:
        """(Re)scan the directory; keeps still-valid compiled models.

        An LRU entry survives a refresh only while it still serves the
        *same circuit*: surviving by name alone is not enough, because
        a run store that gained a better record for a benchmark now
        maps that name to different ``.aag`` content.  Entries whose
        bundle digest changed are invalidated (counted in
        ``stale_evictions``) so the next load compiles the new winner
        — a refresh must never leave a stale circuit serving.
        """
        if not self.root.is_dir():
            raise FileNotFoundError(f"model store {self.root} is not a directory")
        previous = self._bundles
        if (self.root / RECORDS_NAME).exists():
            self._bundles = self._scan_run_store()
        else:
            self._bundles = self._scan_bundle_dir()
        if not self._bundles:
            raise FileNotFoundError(
                f"{self.root} holds no servable circuits (contest runs "
                f"need --keep-solutions; bundle directories need *.aag "
                f"files)"
            )
        for name in list(self._cache):
            bundle = self._bundles.get(name)
            if bundle is None:
                del self._cache[name]
            elif name in previous and \
                    bundle.digest != previous[name].digest:
                del self._cache[name]
                self.stale_evictions += 1

    def _scan_run_store(self) -> dict[str, CircuitBundle]:
        store = RunStore(self.root)
        best: dict[str, dict[str, Any]] = {}
        for key, record in store.load_records().items():
            if not store.has_solution(key):  # stat only; read later
                continue
            name = str(record.get("benchmark_name", key))
            if name not in best or _record_rank(record) < _record_rank(best[name]):
                best[name] = record
        # Only the winners' circuits are actually read off disk.
        bundles: dict[str, CircuitBundle] = {}
        for name, record in best.items():
            aag = store.solution_text(str(record["key"]))
            if aag is not None:  # deleted between stat and read
                bundles[name] = CircuitBundle(aag, record)
        return bundles

    def _scan_bundle_dir(self) -> dict[str, CircuitBundle]:
        bundles: dict[str, CircuitBundle] = {}
        for path in sorted(self.root.glob("*.aag")):
            bundle = CircuitBundle.from_files(path)
            name = str(bundle.metadata.get("benchmark_name", path.stem))
            bundles[name] = bundle
        return bundles

    def names(self) -> list[str]:
        """Servable model names, sorted."""
        return sorted(self._bundles)

    def resolve(self, name: str) -> str:
        """Canonical model name for ``name``.

        Accepts an exact stored name (registry names like ``ex74`` or
        ``adder:width=48`` pass through untouched), a suite index like
        ``"74"`` (run-store mode), or a glob over the stored names —
        useful for registry spec strings whose parameters the caller
        half-remembers (``"adder:*width=48*"``) — provided it matches
        exactly one model.
        """
        if name in self._bundles:
            return name
        try:
            index = int(name)
        except ValueError:
            pass
        else:
            for cand, bundle in self._bundles.items():
                if bundle.metadata.get("benchmark") == index:
                    return cand
        if any(ch in name for ch in "*?["):
            from fnmatch import fnmatchcase

            matched = [c for c in self.names() if fnmatchcase(c, name)]
            if len(matched) == 1:
                return matched[0]
            if matched:
                raise KeyError(
                    f"model glob {name!r} is ambiguous: matches "
                    f"{', '.join(matched)}"
                )
        raise KeyError(
            f"unknown model {name!r} (serving: {', '.join(self.names())})"
        )

    def __contains__(self, name: str) -> bool:
        try:
            self.resolve(name)
        except KeyError:
            return False
        return True

    def info(self, name: str) -> ModelInfo:
        """Catalogue metadata for one model.

        Served from the stored record plus the ``.aag`` header, so it
        never compiles (and never disturbs the LRU) unless the bundle
        carries no structural metadata at all.
        """
        return self._bundles[self.resolve(name)].info()

    def infos(self) -> list[ModelInfo]:
        return [self.info(name) for name in self.names()]

    # -- compiled-plan LRU -------------------------------------------

    def cached_names(self) -> list[str]:
        """Models currently holding a compiled plan (LRU order)."""
        return list(self._cache)

    def load(self, name: str) -> CompiledCircuit:
        """The compiled circuit for ``name`` (LRU-cached)."""
        name = self.resolve(name)
        cached = self._cache.get(name)
        if cached is not None:
            self.hits += 1
            self._cache.move_to_end(name)
            return cached
        self.misses += 1
        circuit = self._bundles[name].compile()
        self._cache[name] = circuit
        while len(self._cache) > self.cache_size:
            evicted, _ = self._cache.popitem(last=False)
            self.evictions += 1
            # Drop the bundle's memoized compile too, or the LRU
            # would only ever bound the OrderedDict, not the memory.
            self._bundles[evicted].drop_compiled()
        return circuit

    def stats(self) -> dict[str, object]:
        return {
            "models": len(self._bundles),
            "compiled": len(self._cache),
            "cache_size": self.cache_size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "stale_evictions": self.stale_evictions,
        }
