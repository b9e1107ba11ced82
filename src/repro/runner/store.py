"""On-disk result store for contest runs.

Layout of a run directory::

    out_dir/
      manifest.json   # run configuration (sizes, effort, schema)
      records.jsonl   # one canonical JSON record per completed task
      solutions/      # optional ASCII AIGER circuits, one per task

Records are appended as tasks complete (in completion order, which may
differ between serial and parallel runs); identity lives in each
record's ``key`` field, so readers index by key and the *content* per
key is byte-identical regardless of jobs count.  If a record for the
same key appears twice (e.g. a rerun with ``resume=False`` into the
same directory), the last occurrence wins.

Every line is serialized with ``sort_keys`` and fixed separators, so a
record's bytes are a pure function of its values — the property the
golden determinism tests pin down.  That same property makes sharded
runs mergeable: :func:`merge_stores` can combine the stores written by
independent ``--shard k/N`` processes into one directory whose records
are byte-identical, per key, to an unsharded run's.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections.abc import Iterable
from pathlib import Path
from typing import Any

PathLike = str | Path

#: Bump when the record layout changes incompatibly.
RECORD_SCHEMA = 1

MANIFEST_NAME = "manifest.json"
RECORDS_NAME = "records.jsonl"
SOLUTIONS_DIR = "solutions"

#: Manifest keys that must match between a store and a resuming run.
_CONFIG_KEYS = ("schema", "n_train", "n_valid", "n_test", "effort")

#: Grid keys that grow as a run is extended (union semantics).
_GRID_KEYS = ("benchmarks", "flows", "seeds")


def canonical_line(record: dict[str, object]) -> str:
    """The one true serialization of a record (no trailing newline)."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def benchmark_sort_key(benchmark: object) -> tuple[bool, int, str]:
    """Total order over mixed benchmark identifiers.

    Records may carry integer suite indices (historical runs) or
    registry problem names (``"adder:width=48"``) in the same store;
    Python refuses ``int < str``, so ordering goes through this key:
    all indices first (numerically), then names (lexically).
    """
    if isinstance(benchmark, int) and not isinstance(benchmark, bool):
        return (False, benchmark, "")
    return (True, 0, str(benchmark))


def _union_grids(
    manifest: dict[str, Any], other: dict[str, Any]
) -> dict[str, Any]:
    """``manifest`` with each grid key unioned with ``other``'s.

    Benchmarks may mix suite indices and registry names, so every grid
    key is ordered by :func:`benchmark_sort_key` (for the all-string
    flows and all-int seeds that is the plain sort).
    """
    for key in _GRID_KEYS:
        both = set(manifest.get(key, ())) | set(other.get(key, ()))
        if both:
            manifest[key] = sorted(both, key=benchmark_sort_key)
    return manifest


def _solution_filename(key: str) -> str:
    """Filesystem-safe, collision-free name for a task's circuit.

    Sanitizing alone is lossy — ``b000:team_a:s0`` and
    ``b000:team:a:s0`` both collapse to ``b000_team_a_s0`` — so
    whenever sanitization had to alter the key, a short digest of the
    *exact* key is appended.  Distinct keys therefore always map to
    distinct filenames, while keys that are already safe keep their
    readable name unchanged.
    """
    safe = re.sub(r"[^A-Za-z0-9_.-]", "_", key)
    if safe != key:
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:10]
        safe = f"{safe}-{digest}"
    return safe + ".aag"


class RunStore:
    """Append-only JSONL store under one run directory."""

    def __init__(self, root: PathLike):
        self.root = Path(root)

    @property
    def records_path(self) -> Path:
        return self.root / RECORDS_NAME

    @property
    def manifest_path(self) -> Path:
        return self.root / MANIFEST_NAME

    @property
    def solutions_dir(self) -> Path:
        return self.root / SOLUTIONS_DIR

    # -- manifest ----------------------------------------------------

    def read_manifest(self) -> dict[str, Any] | None:
        if not self.manifest_path.exists():
            return None
        return json.loads(self.manifest_path.read_text(encoding="utf-8"))

    def ensure_manifest(self, config: dict[str, Any]) -> None:
        """Create the manifest, or verify it matches ``config``.

        A run directory is bound to one sampling configuration; mixing
        sizes, effort levels or record schemas in one store would
        silently corrupt resumed runs, so a mismatch is an error.  The
        grid fields (benchmarks/flows/seeds), by contrast, legitimately
        *grow* when a run is extended, so they are unioned and the
        manifest rewritten to keep describing the whole store.
        """
        config = {"schema": RECORD_SCHEMA, **config}
        existing = self.read_manifest()
        if existing is None:
            existing = {}
        else:
            for key in _CONFIG_KEYS:
                if key in config and existing.get(key) != config[key]:
                    raise ValueError(
                        f"run directory {self.root} was created with "
                        f"{key}={existing.get(key)!r}, cannot resume with "
                        f"{key}={config[key]!r} (use a fresh --out-dir)"
                    )
        self._write_manifest(_union_grids({**existing, **config}, existing))

    def _write_manifest(self, manifest: dict[str, Any]) -> None:
        self.root.mkdir(parents=True, exist_ok=True)
        self.manifest_path.write_text(
            json.dumps(manifest, sort_keys=True, indent=2) + "\n",
            encoding="utf-8",
        )

    # -- records -----------------------------------------------------

    def load_records(self) -> dict[str, dict[str, Any]]:
        """All stored records, indexed by task key (last wins).

        A run killed mid-append (SIGKILL, OOM, disk full) leaves a
        truncated JSON fragment as the *last* line; that is expected
        damage — the fragment is dropped and its task simply re-runs
        on resume.  An unparsable line anywhere else means the file
        was edited or corrupted, and raises.
        """
        records: dict[str, dict[str, Any]] = {}
        if not self.records_path.exists():
            return records
        lines = self.records_path.read_text(encoding="utf-8").splitlines()
        stripped = [ln.strip() for ln in lines if ln.strip()]
        for pos, line in enumerate(stripped):
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                if pos == len(stripped) - 1:
                    break  # torn tail from an interrupted append
                raise ValueError(
                    f"{self.records_path} line {pos + 1} is not valid "
                    f"JSON (mid-file corruption, not an interrupted "
                    f"append): {line[:60]!r}"
                ) from exc
            schema = record.get("schema", RECORD_SCHEMA)
            if schema != RECORD_SCHEMA:
                raise ValueError(
                    f"{self.records_path} holds a schema-{schema} "
                    f"record (key {record.get('key')!r}); this "
                    f"version reads schema {RECORD_SCHEMA} — rerun "
                    f"into a fresh directory"
                )
            records[record["key"]] = record
        return records

    def append(self, record: dict[str, Any],
               aag: str | None = None) -> None:
        """Persist one completed task (optional .aag + record line).

        The circuit is written first and the record line last: the
        record marks the task done, so a failure between the two must
        leave the task unmarked (resume re-runs it) rather than marked
        done without its circuit.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        if aag is not None:
            self.solutions_dir.mkdir(parents=True, exist_ok=True)
            self.solution_path(record["key"]).write_text(aag, encoding="ascii")
        # A previous append torn mid-line (crash during write) leaves
        # a fragment with no trailing newline.  Truncate it away so
        # interior lines are always complete records — the fragment's
        # task was never marked done, so it re-runs anyway.
        if self.records_path.exists() and \
                self.records_path.stat().st_size > 0:
            with self.records_path.open("rb+") as fh:
                fh.seek(-1, 2)
                if fh.read(1) != b"\n":
                    fh.seek(0)
                    data = fh.read()
                    fh.truncate(data.rfind(b"\n") + 1)
        with self.records_path.open("a", encoding="utf-8") as fh:
            fh.write(canonical_line(record) + "\n")

    def solution_path(self, key: str) -> Path:
        """Canonical (write-side) location of a task's circuit."""
        return self.solutions_dir / _solution_filename(key)

    def has_solution(self, key: str) -> bool:
        """Whether a circuit was kept for this task."""
        return self.solution_path(key).exists()

    def solution_text(self, key: str) -> str | None:
        """Stored ``.aag`` text for a task, or ``None`` if not kept."""
        path = self.solution_path(key)
        return path.read_text(encoding="ascii") if path.exists() else None


def merge_records(stores: Iterable[RunStore]) -> dict[str, dict[str, Any]]:
    """Every record of ``stores``, indexed by task key.

    A key stored by two stores must carry byte-identical records (task
    purity guarantees this for the shards of one grid); differing
    duplicates raise rather than silently picking a winner.
    """
    records: dict[str, dict[str, Any]] = {}
    origins: dict[str, Path] = {}
    for store in stores:
        for key, record in store.load_records().items():
            if key in records and \
                    canonical_line(records[key]) != canonical_line(record):
                raise ValueError(
                    f"task {key!r} differs between {origins[key]} and "
                    f"{store.root}; these directories are not shards of "
                    f"one run"
                )
            records[key] = record
            origins[key] = store.root
    return records


def merge_stores(
    sources: Iterable[PathLike], dest: PathLike
) -> RunStore:
    """Combine the stores of a sharded run into one run directory.

    The shards of one contest share a sampling configuration and hold
    disjoint task keys, so merging is mechanical: verify the manifests'
    config keys agree, union their grid keys, and write every record
    (see :func:`merge_records`) — sorted by task key, in canonical
    serialization — into ``dest``.  Kept solution circuits are copied
    alongside.
    """
    stores = [RunStore(src) for src in sources]
    if not stores:
        raise ValueError("merge_stores needs at least one source")

    merged_manifest: dict[str, Any] = {}
    for store in stores:
        manifest = store.read_manifest()
        if manifest is None:
            continue
        for key in _CONFIG_KEYS:
            if key not in manifest:
                continue
            if key in merged_manifest and \
                    merged_manifest[key] != manifest[key]:
                raise ValueError(
                    f"cannot merge {store.root}: {key}={manifest[key]!r} "
                    f"conflicts with {key}={merged_manifest[key]!r} from "
                    f"an earlier source"
                )
            merged_manifest[key] = manifest[key]
        _union_grids(merged_manifest, manifest)
    records = merge_records(stores)

    out = RunStore(dest)
    if merged_manifest:
        out._write_manifest(merged_manifest)
    out.root.mkdir(parents=True, exist_ok=True)
    with out.records_path.open("w", encoding="utf-8") as fh:
        for key in sorted(records):
            fh.write(canonical_line(records[key]) + "\n")
    kept = [store for store in stores if store.solutions_dir.is_dir()]
    for key in records:
        for store in reversed(kept):  # the last source wins, as records do
            text = store.solution_text(key)
            if text is not None:
                out.solutions_dir.mkdir(parents=True, exist_ok=True)
                out.solution_path(key).write_text(text, encoding="ascii")
                break
    return out
