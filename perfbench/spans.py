"""In-memory span tracing for the contest workloads' traced run.

The benchmark wraps each public function at the module attribute its
callers bind (nothing under ``src/`` changes).  A span records its
name, start, end, parent and task; a layer's self time is its duration
minus the time its child spans cover.  Spans stay in memory and are
written out once, when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import time
from collections.abc import Callable
from pathlib import Path
from typing import Any

#: The root span of one contest task; every other span nests in it,
#: except ``runner.store`` (the runner appends after the task returns).
TASK = "runner.task"
MIN_TASK_S = 0.02


@dataclasses.dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    ands_in: int = 0
    ands_out: int = 0


class Recorder:
    """Nestable spans over ``perf_counter`` for single-threaded code."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.layers: dict[str, LayerStats] = {}
        # Per task: [wall, sum of non-root self times, harness time].
        self.tasks: list[list[float]] = []
        self._stack: list[list[Any]] = []  # [name, start, child_s, index]
        # Per task key, the sha256 of its finalize_aig outputs in order.
        self._finalized: dict[str, Any] = {}
        self._digest: Any = None  # the running task's entry

    def wrap(self, name: str, fn: Callable, sizes: bool = False) -> Callable:
        """``fn`` timed as layer ``name``; with ``sizes`` the first
        argument and the result are AIGs whose ANDs are counted."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if name == TASK:
                self._digest = self._finalized[args[0].key] = hashlib.sha256()
            self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                stats = self._exit()
            if sizes:
                stats.ands_in += args[0].num_ands
                stats.ands_out += result.num_ands
            return result

        return traced

    def wrap_finalize(self, fn: Callable) -> Callable:
        """``finalize_aig`` traced, its output folded into a digest.

        Serializing the output is harness work: its time is kept out
        of the layer sums that reconcile against task wall time.
        """
        from repro.aig.aiger import dumps_aag

        traced = self.wrap("flows.finalize", fn, sizes=True)

        @functools.wraps(fn)
        def digesting(*args: Any, **kwargs: Any) -> Any:
            result = traced(*args, **kwargs)
            start = time.perf_counter()
            self._digest.update(dumps_aag(result).encode())
            harness = time.perf_counter() - start
            if self._stack:
                # Hidden from the caller's self time; its ancestors
                # already see it only through the caller's duration.
                self._stack[-1][2] += harness
                if self.tasks:
                    self.tasks[-1][2] += harness
            return result

        return digesting

    def _enter(self, name: str) -> None:
        if name == TASK:
            self.tasks.append([0.0, 0.0, 0.0])
        self._stack.append([name, time.perf_counter(), 0.0, len(self.spans)])
        self.spans.append((name, 0.0, 0.0, -1, len(self.tasks) - 1))

    def _exit(self) -> LayerStats:
        end = time.perf_counter()
        name, start, child_s, index = self._stack.pop()
        duration = end - start
        parent = self._stack[-1][3] if self._stack else -1
        self.spans[index] = (name, start, end, parent, len(self.tasks) - 1)
        if self._stack:
            self._stack[-1][2] += duration
        stats = self.layers.setdefault(name, LayerStats())
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - child_s
        if self.tasks and any(f[0] == TASK for f in self._stack):
            self.tasks[-1][1] += duration - child_s
        elif name == TASK:
            self.tasks[-1][0] = duration
        return stats

    def finalize_digest(self) -> str:
        """sha256 over every task's finalize_aig outputs, by task key,
        so it does not depend on the order the tasks ran in."""
        total = hashlib.sha256()
        for key in sorted(self._finalized):
            total.update(f"{key} {self._finalized[key].hexdigest()}\n".encode())
        return total.hexdigest()

    def reconcile(self) -> tuple[float, float]:
        """``(worst task gap, whole-grid gap)``: how far the layers'
        self times fall short of ``runner.task`` wall time, as a share
        of that wall time (harness serialization excluded).  Tasks
        under ``MIN_TASK_S`` are left out of the worst gap: on them 5%
        is below the millisecond of glue every task pays."""
        gaps = []
        wall_sum = layer_sum = 0.0
        for wall, layers, harness in self.tasks:
            wall -= harness
            wall_sum += wall
            layer_sum += layers
            if wall >= MIN_TASK_S:
                gaps.append(abs(wall - layers) / wall)
        whole = abs(wall_sum - layer_sum) / wall_sum if wall_sum else 0.0
        return (max(gaps) if gaps else 0.0), whole

    def write(self, path: Path) -> None:
        with path.open("w") as out:
            for name, start, end, parent, task in self.spans:
                out.write(json.dumps([name, start, end, parent, task]) + "\n")


def install_contest_wrappers(rec: Recorder) -> None:
    """Wrap every contest layer boundary the traced run reports."""
    import repro.aig.aiger as aiger
    import repro.aig.approx as approx
    import repro.aig.opt.passes as passes
    import repro.flows.api as api
    import repro.flows.common as common
    import repro.flows.team04 as team04
    import repro.flows.team06 as team06
    import repro.runner.runner as runner
    import repro.runner.task as task
    from repro.aig.aig import AIG
    from repro.contest.registry import ProblemRegistry
    from repro.flows.api import Flow
    from repro.flows.registry import REGISTRY
    from repro.runner.store import RunStore

    common.compress = rec.wrap("aig.opt.compress", common.compress, sizes=True)
    common.approximate_to_size = rec.wrap(
        "aig.approx", common.approximate_to_size, sizes=True
    )
    for pass_name in ("balance", "rewrite", "refactor", "fraig_lite"):
        setattr(passes, pass_name, rec.wrap(
            f"aig.opt.{pass_name}", getattr(passes, pass_name), sizes=True
        ))
    passes.enumerate_cuts_with_truths = rec.wrap(
        "aig.cuts", passes.enumerate_cuts_with_truths
    )
    approx.substitute_constants = rec.wrap(
        "aig.approx.substitute", approx.substitute_constants
    )
    finalize = rec.wrap_finalize(common.finalize_aig)
    pick_best = rec.wrap("flows.pick_best", common.pick_best)
    for module in (api, team04, team06):
        module.finalize_aig = finalize
        if hasattr(module, "pick_best"):
            module.pick_best = pick_best
    AIG.extract_cone = rec.wrap("aig.extract_cone", AIG.extract_cone)
    Flow.run_detailed = rec.wrap("flows.run", Flow.run_detailed)
    aiger.dumps_aag = rec.wrap("runner.serialize", aiger.dumps_aag)
    for flow in REGISTRY.flows().values():
        flow.stages = tuple(
            dataclasses.replace(stage, fn=rec.wrap("flows.stage", stage.fn))
            for stage in flow.stages
        )
    runner.run_task = rec.wrap(TASK, runner.run_task)
    task.evaluate_solution = rec.wrap("contest.score", task.evaluate_solution)
    RunStore.append = rec.wrap("runner.store", RunStore.append)
    ProblemRegistry.problem = rec.wrap("contest.sample", ProblemRegistry.problem)
