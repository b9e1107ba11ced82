"""Parallel, resumable contest execution with an on-disk result store.

The three layers:

``task``
    :class:`TaskSpec` — one (benchmark, flow, seed) execution — and
    :func:`run_task`, a *pure* worker function of the spec.  Purity is
    the subsystem's core invariant: serial, parallel and resumed runs
    produce byte-identical records per task.
``store``
    :class:`RunStore` — a run directory holding ``manifest.json``,
    append-only ``records.jsonl`` (canonical JSON, exact float
    round-trip) and optional ``solutions/*.aag`` circuits.
``runner``
    :func:`run_tasks` / :func:`run_contest_tasks` — fan the grid out
    over a ``ProcessPoolExecutor``, skip already-stored tasks, append
    results as they complete, and rebuild
    :class:`~repro.analysis.ContestRun` from the store.

Typical use (what ``repro.cli contest --jobs N --out-dir D`` does)::

    from repro.runner import contest_tasks, run_contest_tasks

    specs = contest_tasks([0, 30, 74], ["team01", "team10"],
                          n_train=400, n_valid=400, n_test=400)
    run = run_contest_tasks(specs, jobs=4, out_dir="runs/mini")
    print(run.table3())

Interrupt it, re-invoke it, extend the grid with more benchmarks or
trials — completed tasks are never recomputed.

Sharded execution splits one grid across independent processes or CI
jobs: ``shard_tasks(specs, k, N)`` deterministically owns a key-hashed
subset, each shard runs into its own directory, and ``merge_stores``
(or the in-memory ``load_contest_runs``) reassembles a store
byte-identical to the unsharded run's.
"""

from repro.runner.runner import (
    contest_tasks,
    load_contest_run,
    load_contest_runs,
    parse_shard,
    run_contest_tasks,
    run_tasks,
    shard_of,
    shard_tasks,
)
from repro.runner.store import (
    RunStore,
    benchmark_sort_key,
    canonical_line,
    merge_stores,
)
from repro.runner.task import (
    TaskSpec,
    dataset_fingerprint,
    flow_name_for,
    resolve_flow,
    run_task,
    score_from_record,
    score_to_record,
)

__all__ = [
    "TaskSpec",
    "RunStore",
    "benchmark_sort_key",
    "canonical_line",
    "contest_tasks",
    "dataset_fingerprint",
    "flow_name_for",
    "load_contest_run",
    "load_contest_runs",
    "merge_stores",
    "parse_shard",
    "resolve_flow",
    "run_contest_tasks",
    "run_task",
    "run_tasks",
    "score_from_record",
    "score_to_record",
    "shard_of",
    "shard_tasks",
]
