"""The contest workloads: a grid of (benchmark, flow) tasks at jobs=1.

Each pass runs the grid through the public runner API
(``contest_tasks`` + ``run_contest_tasks``) into a fresh run store with
kept solutions, then the oracle re-reads every kept ``.aag`` and
re-simulates it with the reference simulator.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from speed import SpeedClock
from stats import Tally, percentile

SIZES = {"n_train": 400, "n_valid": 400, "n_test": 400}
# Rows of seeded random stimulus on which the oracle compares the
# production simulator against the reference one, per kept circuit.
STIMULUS_ROWS = 256


#: Problems are sampled at this master seed on every run, so records
#: and finalize outputs can be pinned by digest.  The task order is
#: fixed too: it moves single task times by up to 40% (process state
#: left by earlier tasks).  The workload seed draws the oracle's
#: stimulus rows.
MASTER_SEED = 0


@dataclass(frozen=True)
class ContestWorkload:
    benchmarks: tuple[Any, ...]
    flows: tuple[str, ...]
    #: Keep only the cells whose row and column positions sum to a
    #: multiple of this: diagonal stripes that still cover every
    #: benchmark and every flow.
    stride: int = 1

    def specs(self) -> list:
        """Benchmark-outer, like the runner's own grids, so the runner's
        problem cache samples each problem once, in the first task of
        its group."""
        from repro.runner import contest_tasks

        return [
            spec
            for i, bench in enumerate(self.benchmarks)
            for spec in contest_tasks(
                [bench], [f for j, f in enumerate(self.flows)
                          if (i + j) % self.stride == 0],
                effort="small", master_seed=MASTER_SEED, **SIZES)
        ]


WORKLOADS = {
    # The even slot of default_small_indices() (one instance per
    # category) against every team flow but team08: a third of that
    # 90-task grid, 30 tasks, so 22 runs of each workload fit the
    # benchmark's time budget on a busy 2-core box.
    "contest-grid": ContestWorkload(
        benchmarks=(0, 10, 20, 30, 40, 50, 60, 74, 80, 90),
        flows=("team01", "team02", "team03", "team04", "team05",
               "team06", "team07", "team09", "team10"),
        stride=3,
    ),
    # team08's MLP truth-table candidate (about 12.6k ANDs) is over the
    # 5000-AND cap, so finalize compresses it and approximates.
    "contest-approx": ContestWorkload(benchmarks=(20,), flows=("team08",)),
}


def resolve(workload: ContestWorkload) -> list:
    """Imports and flow resolution; returns the grid's task specs."""
    import repro.runner.task as task

    for flow in workload.flows:
        task.resolve_flow(flow)
    return workload.specs()


def setup(workload: ContestWorkload) -> dict[str, float]:
    """Imports, flow and registry resolution, and problem sampling.

    Runs in a fresh interpreter (``run.py --setup-probe``) and returns
    its own timings, so the benchmark process keeps a cold problem
    cache and every workload samples its problems inside the grid.
    Both times are scaled to the reference CPU speed.
    """
    with SpeedClock() as speed:
        start = time.perf_counter()
        import repro.runner  # noqa: F401
        import repro.runner.task as task

        imported = time.perf_counter()
        for spec in resolve(workload):
            task.make_task_problem(spec)
        end = time.perf_counter()
    return {"setup_s": speed.scaled(start, end),
            "import_s": speed.scaled(start, imported)}


class _LineClock(io.TextIOBase):
    """A stdout stand-in that timestamps every completed line.

    ``run_contest_tasks(verbose=True)`` prints one line per stored
    task, so the gaps between stamps are per-task times measured from
    outside the library.
    """

    def __init__(self) -> None:
        self.stamps: list[float] = []

    def write(self, text: str) -> int:
        now = time.perf_counter()
        self.stamps.extend([now] * text.count("\n"))
        return len(text)


@dataclass
class PassResult:
    #: Grid and per-task times at the reference CPU speed (``speed``).
    grid_s: float
    task_ms: list[float]
    wall_s: float
    records: dict[str, dict[str, Any]]
    digest: str
    store: Path
    error: str | None = None


def run_pass(specs: list, store_dir: Path) -> PassResult:
    """One grid into a fresh store, with cold problem caches: every
    pass, traced or not, samples each problem inside the grid."""
    import repro.runner.task as task
    from repro.contest import clear_cache
    from repro.runner import run_contest_tasks

    clear_cache()
    task._cached_problem.cache_clear()
    clock = _LineClock()
    error = None
    with contextlib.redirect_stdout(clock), SpeedClock() as speed:
        start = time.perf_counter()
        try:
            run_contest_tasks(specs, jobs=1, out_dir=store_dir,
                              keep_solutions=True, verbose=True)
        except Exception as exc:  # the oracle counts the missing tasks
            error = f"grid aborted: {type(exc).__name__}: {exc}"
        end = time.perf_counter()
    marks = [start, *clock.stamps]
    task_ms = [speed.scaled(a, b) * 1e3 for a, b in zip(marks, marks[1:])]
    return PassResult(speed.scaled(start, end), task_ms, end - start,
                      *records_digest(store_dir), store_dir, error)


def records_digest(store_dir: Path) -> tuple[dict[str, dict[str, Any]], str]:
    """The stored records and the sha256 of ``records.jsonl`` with its
    lines in key order (the store appends in completion order)."""
    from repro.runner import RunStore

    store = RunStore(store_dir)
    if not store.records_path.exists():
        return {}, ""
    lines = store.records_path.read_text().splitlines()
    keyed = sorted((json.loads(line)["key"], line) for line in lines)
    canonical = "".join(line + "\n" for _, line in keyed)
    return store.load_records(), hashlib.sha256(canonical.encode()).hexdigest()


def check_pass(
    result: PassResult, specs: list, seed: int, tally: Tally
) -> None:
    """Oracle: every kept circuit, re-read from disk and re-simulated
    with ``reference_simulate_packed_all`` on the re-sampled test set,
    reproduces its record's accuracy and size and is legal.  On
    seeded random rows the production simulator must agree with the
    reference bit for bit."""
    import numpy as np

    from repro.aig.aiger import loads_aag
    from repro.contest import DEFAULT_REGISTRY
    from repro.runner import RunStore
    from repro.sim.engine import reference_simulate_packed_all
    from repro.utils.bitops import pack_bits, unpack_bits

    def reference_outputs(aig, rows):
        values = reference_simulate_packed_all(aig, pack_bits(rows))
        words = np.stack([
            ~values[lit >> 1] if lit & 1 else values[lit >> 1]
            for lit in aig.outputs
        ])
        return unpack_bits(words, rows.shape[0])

    if result.error is not None:
        tally.fail(result.error)
    store = RunStore(result.store)
    rng = np.random.default_rng(seed)
    for spec in specs:
        try:
            record = result.records[spec.key]
            aig = loads_aag(store.solution_text(spec.key) or "")
            reg_spec = (DEFAULT_REGISTRY.get(spec.benchmark)
                        if isinstance(spec.benchmark, str)
                        else DEFAULT_REGISTRY.by_index(spec.benchmark))
            test = DEFAULT_REGISTRY.problem(
                reg_spec, master_seed=spec.seed, **SIZES
            ).test
            pred = reference_outputs(aig, test.X)[:, 0]
            hits = int((pred == test.y).sum())
            stimulus = rng.integers(
                0, 2, size=(STIMULUS_ROWS, aig.n_inputs), dtype=np.uint8
            )
            ok = (
                hits / len(test.y) == record["test_accuracy"]
                and aig.count_used_ands() == record["num_ands"]
                and record["legal"] is True
                and record["num_ands"] <= 5000
                and np.array_equal(aig.simulate(stimulus),
                                   reference_outputs(aig, stimulus))
            )
        except Exception as exc:  # any raise is one failed operation
            tally.fail(f"{spec.key}: {type(exc).__name__}: {exc}")
            continue
        tally.check(ok, f"{spec.key}: record does not match its circuit")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def summarize(result: PassResult, specs: list) -> dict[str, float]:
    """End-to-end contest metrics of one pass."""
    # In key order: the mean must not depend on the task order.
    records = [result.records[key] for key in sorted(
        s.key for s in specs if s.key in result.records)]
    return {
        "grid_s": result.grid_s,
        "p50_ms": percentile(result.task_ms, 50),
        "p99_ms": percentile(result.task_ms, 99),
        "mean_test_accuracy": (
            sum(r["test_accuracy"] for r in records) / len(records)
            if records else 0.0
        ),
        "total_ands": float(sum(r["num_ands"] for r in records)),
    }
