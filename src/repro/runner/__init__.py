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
    :func:`contest_tasks` builds the grid from benchmarks and flow
    names; :func:`run_tasks` / :func:`run_contest_tasks` fan it out
    over a ``ProcessPoolExecutor``, skip already-stored tasks and
    append results as they complete.  One function,
    :func:`contest_run_from_records`, turns records into the
    :class:`~repro.analysis.ContestRun` behind Table III, whether they
    were just computed or read back (:func:`load_contest_runs`).

This is the one path from a task grid to Table III.  Typical use
(what ``repro.cli contest --jobs N --out-dir D`` does)::

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
reassembles a store byte-identical to the unsharded run's
(``load_contest_runs`` reports the shards without writing one).  Both
merge records through ``merge_records``, which rejects a task stored
twice with different bytes.
"""

from repro.runner.runner import (
    contest_run_from_records,
    contest_tasks,
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
    merge_records,
    merge_stores,
)
from repro.runner.task import (
    TaskSpec,
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
    "contest_run_from_records",
    "contest_tasks",
    "load_contest_runs",
    "merge_records",
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
