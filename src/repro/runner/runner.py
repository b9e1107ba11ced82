"""Parallel, resumable, shardable execution of contest task grids.

``run_tasks`` fans a list of :class:`TaskSpec` out over a
``ProcessPoolExecutor`` (``jobs=1`` stays fully in-process, no pool),
skips tasks whose records already sit in the store, and appends each
newly completed record as it lands — so an interrupted run loses at
most the tasks in flight, and re-invoking with the same arguments
resumes where it stopped.  Because workers are pure functions of the
spec (see :mod:`repro.runner.task`), serial, parallel and resumed runs
produce byte-identical records per task.

The same purity enables *sharding*: :func:`shard_tasks` partitions a
grid deterministically by task key, so N independent processes (or CI
jobs) can each run ``--shard k/N`` into their own store directory and
:func:`repro.runner.store.merge_stores` reassembles a store
byte-identical to the unsharded run's.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable, Sequence
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from typing import Any

from repro.contest.evaluate import Score
from repro.runner.store import PathLike, RunStore, benchmark_sort_key
from repro.runner.task import TaskResult, TaskSpec, run_task


def contest_tasks(
    benchmarks: Sequence[Any],
    flow_names: Sequence[str] | dict[str, str],
    n_train: int,
    n_valid: int,
    n_test: int,
    effort: str = "small",
    master_seed: int = 0,
    trials: int = 1,
) -> list[TaskSpec]:
    """The full (flow x benchmark x trial) grid as task specs.

    ``benchmarks`` entries may be suite indices (ints — the historical
    interface, producing the historical ``b{idx:03d}`` task keys),
    registry problem names / family spec strings, or
    :class:`~repro.contest.registry.ProblemSpec` objects.  Specs that
    carry a paper index collapse to that index so their store keys (and
    hence resumability of old run directories) are unchanged; generated
    specs are keyed by canonical name.

    ``flow_names`` is either a list of worker-resolvable names or a
    ``{display name: resolvable name}`` mapping.  Trial ``t`` runs with
    master seed ``master_seed + t``, so multi-seed sweeps stay
    reproducible and each trial's records are independent store keys.
    The grid iterates benchmark-outer (like the historical serial
    loop), which lets the per-process problem cache serve every flow
    of a benchmark from one sampling.
    """
    from repro.contest.registry import ProblemSpec

    if isinstance(flow_names, dict):
        named = list(flow_names.items())
    else:
        named = [(name, name) for name in flow_names]
    resolved: list[int | str] = []
    for entry in benchmarks:
        if isinstance(entry, ProblemSpec):
            resolved.append(
                entry.index if entry.index is not None else entry.name
            )
        elif isinstance(entry, str):
            resolved.append(entry)
        else:
            resolved.append(int(entry))
    specs: list[TaskSpec] = []
    for bench in resolved:
        for t in range(trials):
            for team, flow in named:
                specs.append(
                    TaskSpec(
                        benchmark=bench,
                        flow=flow,
                        seed=master_seed + t,
                        n_train=n_train,
                        n_valid=n_valid,
                        n_test=n_test,
                        effort=effort,
                        team=team,
                    )
                )
    return specs


def parse_shard(text: str) -> tuple[int, int]:
    """Parse a ``"k/N"`` shard selector into ``(k, N)``.

    ``k`` counts from zero: valid selectors for a four-way split are
    ``0/4`` through ``3/4``.
    """
    head, sep, tail = text.partition("/")
    if not sep:
        raise ValueError(
            f"invalid shard {text!r}: expected 'k/N' (e.g. '0/4')"
        )
    try:
        index, total = int(head), int(tail)
    except ValueError:
        raise ValueError(
            f"invalid shard {text!r}: expected integers 'k/N'"
        ) from None
    if total < 1:
        raise ValueError(f"invalid shard {text!r}: N must be >= 1")
    if not 0 <= index < total:
        raise ValueError(
            f"invalid shard {text!r}: k must be in 0..{total - 1}"
        )
    return index, total


def shard_of(key: str, total: int) -> int:
    """The shard owning a task key: stable hash, independent of grid
    order, so adding benchmarks never reshuffles existing tasks."""
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % total


def shard_tasks(
    specs: Sequence[TaskSpec], index: int, total: int
) -> list[TaskSpec]:
    """The subset of a grid owned by shard ``index`` of ``total``.

    Partitioning hashes each task's *key*, so every shard computes its
    subset independently from the full grid — no coordination, no
    ordering sensitivity — and the union over ``0..total-1`` is exactly
    the grid.  ``total=1`` returns the grid unchanged.
    """
    if total == 1:
        return list(specs)
    if not 0 <= index < total:
        raise ValueError(f"shard index {index} out of range 0..{total - 1}")
    return [s for s in specs if shard_of(s.key, total) == index]


def _execute(
    pending: Sequence[TaskSpec],
    jobs: int,
    keep_solutions: bool,
) -> Iterable[TaskResult]:
    """Yield results as they complete (serial: in spec order)."""
    if jobs <= 1:
        for spec in pending:
            yield run_task(spec, keep_solutions)
        return
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = {
            pool.submit(run_task, spec, keep_solutions)
            for spec in pending
        }
        while futures:
            done, futures = wait(futures, return_when=FIRST_COMPLETED)
            for future in done:
                yield future.result()


def run_tasks(
    specs: Sequence[TaskSpec],
    jobs: int = 1,
    store: RunStore | None = None,
    resume: bool = True,
    keep_solutions: bool = False,
    verbose: bool = False,
) -> dict[str, dict[str, Any]]:
    """Execute a task grid, returning ``{task key: record}``.

    With a ``store``, completed records are read first (when
    ``resume``) and every fresh result is appended as it lands, so the
    store is valid after an interruption at any point.
    """
    specs = list(specs)
    done: dict[str, dict[str, Any]] = {}
    if store is not None and resume:
        stored = store.load_records()
        done = {s.key: stored[s.key] for s in specs if s.key in stored}
    pending = [s for s in specs if s.key not in done]
    if verbose and done:
        print(f"resume: {len(done)} of {len(specs)} tasks already stored")
    for result in _execute(pending, jobs, keep_solutions):
        done[result.spec.key] = result.record
        if store is not None:
            store.append(result.record, aag=result.aag)
        if verbose:
            r = result.record
            print(
                f"{r['benchmark_name']} {r['team']} s{r['seed']}: "
                f"acc={r['test_accuracy']:.3f} ands={r['num_ands']} "
                f"[{r['method']}]"
            )
    return done


def run_contest_tasks(
    specs: Sequence[TaskSpec],
    jobs: int = 1,
    out_dir: PathLike | None = None,
    resume: bool = True,
    keep_solutions: bool = False,
    verbose: bool = False,
):
    """Run a grid and reconstruct a :class:`~repro.analysis.ContestRun`.

    The run directory (when given) becomes the source of truth: scores
    are rebuilt from stored records, so a completed directory can be
    re-reported later without executing anything (``repro.cli report``).
    """
    from repro.analysis import ContestRun
    from repro.runner.task import score_from_record

    specs = list(specs)
    store = None
    if out_dir is not None:
        store = RunStore(out_dir)
        if specs:
            first = specs[0]
            store.ensure_manifest(
                {
                    "n_train": first.n_train,
                    "n_valid": first.n_valid,
                    "n_test": first.n_test,
                    "effort": first.effort,
                    "benchmarks": sorted({s.benchmark for s in specs},
                                         key=benchmark_sort_key),
                    "flows": sorted({s.flow for s in specs}),
                    "seeds": sorted({s.seed for s in specs}),
                }
            )
    records = run_tasks(
        specs,
        jobs=jobs,
        store=store,
        resume=resume,
        keep_solutions=keep_solutions,
        verbose=verbose,
    )
    scores_by_team: dict[str, list[Score]] = {}
    for spec in specs:
        scores_by_team.setdefault(spec.team_name, []).append(
            score_from_record(records[spec.key])
        )
    return ContestRun(scores_by_team)


def load_contest_run(out_dir: PathLike):
    """Rebuild a :class:`~repro.analysis.ContestRun` from a directory,
    without executing any task."""
    return load_contest_runs([out_dir])


def load_contest_runs(out_dirs: Sequence[PathLike]):
    """Rebuild one :class:`~repro.analysis.ContestRun` from one or
    more run directories (e.g. the stores of a sharded run).

    The directories are merged in memory — records indexed by task
    key, conflicting duplicate keys rejected — exactly as
    :func:`~repro.runner.store.merge_stores` would merge them on disk,
    then reconstructed in the usual (team, benchmark, seed) order.
    """
    from repro.analysis import ContestRun
    from repro.runner.store import canonical_line
    from repro.runner.task import score_from_record

    records: dict[str, dict[str, Any]] = {}
    origins: dict[str, PathLike] = {}
    found_any = False
    for out_dir in out_dirs:
        store = RunStore(out_dir)
        loaded = store.load_records()
        if loaded:
            found_any = True
        for key, record in loaded.items():
            if key in records and \
                    canonical_line(records[key]) != canonical_line(record):
                raise ValueError(
                    f"task {key!r} differs between {origins[key]} and "
                    f"{store.root}; these directories are not shards of "
                    f"one run"
                )
            records[key] = record
            origins[key] = store.root
    if not found_any:
        listed = ", ".join(str(d) for d in out_dirs)
        raise FileNotFoundError(
            f"no records found under {listed} (expected "
            f"{RunStore(out_dirs[0]).records_path.name})"
        )
    ordered = sorted(
        records.values(),
        key=lambda r: (str(r.get("team", r["flow"])),
                       benchmark_sort_key(r["benchmark"]), r["seed"]),
    )
    scores: dict[str, list[Score]] = {}
    for record in ordered:
        team = str(record.get("team", record["flow"]))
        scores.setdefault(team, []).append(score_from_record(record))
    return ContestRun(scores)
