"""The portfolio: a registered composite flow over the team flows.

The paper's Fig. 2 Pareto analysis uses the per-benchmark best
solution across teams ("virtual best").  ``virtual_best`` selects it
from a set of already-evaluated scores; the registered ``portfolio``
flow executes a chosen subset of member flows and keeps the winner by
validation accuracy (the only fair selector a participant could have
used).

As a :class:`~repro.flows.api.Flow` the portfolio honours the same
contract as every team flow — ``run(problem, effort, master_seed)`` —
so it is runnable from the CLI (``repro run --flow portfolio``), valid
in contest grids, and resolvable by spec string
(``portfolio:flows=team01+team10,jobs=4``).  Member flows run with a
*shared* :class:`~repro.flows.api.ArtifactCache`, so deterministic
artifacts (the merged train+valid dataset, the standard-function match
scan Teams 1 and 7 both perform) are computed once per problem.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.contest.evaluate import Score
from repro.contest.problem import LearningProblem, Solution
from repro.flows import common
from repro.flows.api import (
    ArtifactCache,
    Candidate,
    Flow,
    FlowContext,
    Stage,
)
from repro.flows.registry import REGISTRY, register

#: The ten team flows, in contest order.
DEFAULT_MEMBERS = tuple(f"team{i:02d}" for i in range(1, 11))


def virtual_best(scores_by_team: dict[str, list[Score]]) -> list[Score]:
    """Per-benchmark best test-accuracy score across teams.

    Ties are broken by circuit size, like the contest ranking.
    """
    by_benchmark: dict[str, list[Score]] = {}
    for scores in scores_by_team.values():
        for s in scores:
            by_benchmark.setdefault(s.benchmark, []).append(s)
    best: list[Score] = []
    for name in sorted(by_benchmark):
        entries = by_benchmark[name]
        entries.sort(key=lambda s: (-s.test_accuracy, s.num_ands))
        best.append(entries[0])
    return best


def _parse_members(value: str) -> list[str]:
    """``flows=`` override value: ``+``-separated registered flow specs.

    Checked when the spec resolves, so a typo fails before any member
    runs (``ValueError`` with the registry's near-match hint)."""
    members = value.split("+")
    for member in members:
        if not member:
            raise ValueError(f"empty member flow name in {value!r}")
        try:
            REGISTRY.resolve(member)
        except KeyError as exc:
            raise ValueError(exc.args[0]) from None
    return members


def _members_stage(ctx: FlowContext) -> list[Candidate]:
    """Run the member flows and emit each winner's circuit.

    With ``jobs > 1`` the member flows execute concurrently on a
    process pool through the runner task layer; each flow is a pure
    function of (problem, seed), so the selected solution is identical
    to the serial run's.  The serial path passes this flow's artifact
    cache down, so members share deterministic artifacts.
    """
    names = ctx.state.get("flows")
    names = list(names) if names is not None else list(DEFAULT_MEMBERS)
    jobs = ctx.state.get("jobs") or 1
    if jobs > 1 and len(names) > 1:
        from concurrent.futures import ProcessPoolExecutor

        from repro.runner import run_flow_on_problem

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(run_flow_on_problem, ctx.problem, name,
                            ctx.effort, ctx.master_seed)
                for name in names
            ]
            # Collect in submission order: selection must see the same
            # candidate order as the serial loop.
            solutions = {
                name: future.result()
                for name, future in zip(names, futures, strict=True)
            }
    else:
        solutions = {
            name: REGISTRY.resolve(name)(
                ctx.problem, effort=ctx.effort,
                master_seed=ctx.master_seed, cache=ctx.cache,
            )
            for name in names
        }
    ctx.state["member_names"] = names
    ctx.state["solutions"] = solutions
    return [Candidate(name, solutions[name].aig) for name in names]


def _select(ctx: FlowContext) -> Solution:
    """Winner by validation accuracy; the chosen member's method is
    propagated (``portfolio:team01:rf9``-style provenance)."""
    best = common.pick_best(
        [(c.name, c.aig) for c in ctx.candidates], ctx.problem.valid
    )
    if best is None:
        # No flows requested (or no flow produced a candidate): fall
        # back to the majority constant rather than crashing.
        fallback = common.constant_solution(ctx.problem, "portfolio")
        fallback.metadata["selected_flow"] = None
        fallback.metadata["valid_accuracy"] = common.aig_accuracy(
            fallback.aig, ctx.problem.valid
        )
        return fallback
    name, aig, acc = best
    chosen = ctx.state["solutions"][name]
    return Solution(
        aig=aig,
        method=f"portfolio:{chosen.method}",
        metadata={"selected_flow": name, "valid_accuracy": acc},
    )


class PortfolioFlow(Flow):
    """Composite flow with two extra (defaulted) contract parameters:
    the member subset and the process-pool width."""

    def run(
        self,
        problem: LearningProblem,
        effort: str = "small",
        master_seed: int = 0,
        *,
        flows: Sequence[str] | None = None,
        jobs: int = 1,
        cache: ArtifactCache | None = None,
    ) -> Solution:
        return self.run_detailed(
            problem, effort=effort, master_seed=master_seed, cache=cache,
            state={"flows": flows, "jobs": jobs},
        ).solution

    __call__ = run


FLOW = register(PortfolioFlow(
    "portfolio",
    team="virtual best",
    techniques={"ensemble"},
    description="Runs member team flows (serially with a shared "
                "artifact cache, or on a process pool) and keeps the "
                "best by validation accuracy",
    # Members interpret the effort knob themselves.
    efforts={"small": {}, "full": {}},
    stages=(
        Stage("members", _members_stage, "run the member flows"),
    ),
    finalize=None,  # members already finalized their circuits
    select=_select,
    spec_params={
        "flows": _parse_members,
        "jobs": int,
    },
))
