"""Comparative analysis of flow results (the paper's section V).

Turns per-team :class:`~repro.contest.evaluate.Score` lists into the
paper's tables and figures: Table III (team summary), Fig. 2 (accuracy
vs size Pareto with the virtual best), Fig. 3 (per-benchmark maximum
accuracy), Fig. 4 (win-rate / top-1% counts).  A :class:`ContestRun`
comes from the runner: :func:`repro.runner.run_contest_tasks` or,
for a stored run, :func:`repro.runner.load_contest_runs`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.contest.evaluate import Score, summarize
from repro.flows.portfolio import virtual_best


def table3(scores_by_team: dict[str, list[Score]]) -> list[dict]:
    """Table III rows sorted like the paper (test accuracy descending)."""
    rows = []
    for team, scores in scores_by_team.items():
        summary = summarize(scores)
        summary["team"] = team
        rows.append(summary)
    rows.sort(key=lambda r: -r["test_accuracy"])
    return rows


def pareto_curve(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    """Pareto frontier of (size, accuracy) points: smaller-is-better
    size, larger-is-better accuracy, sorted by size ascending."""
    frontier: list[tuple[float, float]] = []
    for size, acc in sorted(points):
        if not frontier or acc > frontier[-1][1]:
            frontier.append((size, acc))
    return frontier


def accuracy_size_tradeoff(
    scores_by_team: dict[str, list[Score]],
) -> list[tuple[float, float]]:
    """Fig. 2's virtual-best trade-off curve.

    A Lagrangian sweep: for each multiplier, pick per benchmark the
    legal solution (across all teams) maximizing ``accuracy - lam *
    size`` and average; the swept averages reduce to the returned
    Pareto frontier.  :func:`size_needed_for_accuracy` reads it at a
    target accuracy, the form the paper's Fig. 2 annotations quote
    ("~x ANDs buy y% accuracy").
    """
    by_benchmark: dict[str, list[Score]] = {}
    for scores in scores_by_team.values():
        for s in scores:
            if s.legal:
                by_benchmark.setdefault(s.benchmark, []).append(s)
    if not by_benchmark:
        return []
    curve: list[tuple[float, float]] = []
    lambdas = np.geomspace(1e-6, 1e-1, 60)
    for lam in lambdas:
        total_acc = 0.0
        total_size = 0.0
        for entries in by_benchmark.values():
            best = max(entries,
                       key=lambda s: s.test_accuracy - lam * s.num_ands)
            total_acc += best.test_accuracy
            total_size += best.num_ands
        n = len(by_benchmark)
        curve.append((total_size / n, total_acc / n))
    return pareto_curve(curve)


def size_needed_for_accuracy(
    frontier: Sequence[tuple[float, float]], accuracy: float
) -> float:
    """Smallest average size on the frontier reaching ``accuracy``."""
    feasible = [size for size, acc in frontier if acc >= accuracy]
    if not feasible:
        return float("nan")
    return min(feasible)


def per_benchmark_best(
    scores_by_team: dict[str, list[Score]]
) -> dict[str, float]:
    """Fig. 3: maximum accuracy achieved on each benchmark."""
    return {
        s.benchmark: s.test_accuracy
        for s in virtual_best(scores_by_team)
    }


def win_rates(
    scores_by_team: dict[str, list[Score]],
) -> dict[str, dict[str, int]]:
    """Fig. 4: per team, #benchmarks where it is best / near the top.

    The margin is an **absolute** 0.01: a team counts as "top1pct"
    when its test accuracy is within one accuracy *point* of the
    per-benchmark best (e.g. best 0.90 admits >= 0.89), matching the
    paper's "within 1% of the best" reading.  Exact ties at the top all count as
    "best" — and every "best" team trivially also counts as "top1pct".

    Multi-trial runs contribute one comparison per (benchmark, trial),
    so counts scale with trials instead of silently dropping all but
    one seed.  Scores carrying a ``seed`` (everything reconstructed
    from a run store) are matched by seed — robust even when an
    interrupted store holds different seed subsets per team; scores
    without one fall back to positional alignment, which is exact for
    complete in-memory grids.
    """
    by_benchmark: dict[tuple[str, object], dict[str, Score]] = {}
    for team, scores in scores_by_team.items():
        occurrence: dict[str, int] = {}
        for s in scores:
            if s.seed is not None:
                trial: object = ("seed", s.seed)
            else:
                index = occurrence.get(s.benchmark, 0)
                occurrence[s.benchmark] = index + 1
                trial = ("pos", index)
            by_benchmark.setdefault((s.benchmark, trial), {})[team] = s
    out = {team: {"best": 0, "top1pct": 0} for team in scores_by_team}
    for entries in by_benchmark.values():
        top = max(e.test_accuracy for e in entries.values())
        winners = [
            t for t, e in entries.items() if e.test_accuracy == top
        ]
        for t in winners:
            out[t]["best"] += 1
        for t, e in entries.items():
            if e.test_accuracy >= top - 0.01:
                out[t]["top1pct"] += 1
    return out


def format_table3(rows: list[dict]) -> str:
    """Render Table III the way the paper prints it."""
    lines = [
        f"{'team':>8} {'test acc':>9} {'And gates':>10} "
        f"{'levels':>7} {'overfit':>8}"
    ]
    for r in rows:
        lines.append(
            f"{r['team']:>8} {100 * r['test_accuracy']:9.2f} "
            f"{r['and_gates']:10.2f} {r['levels']:7.2f} "
            f"{100 * r['overfit']:8.2f}"
        )
    return "\n".join(lines)


def per_category_table(
    scores_by_team: dict[str, list[Score]],
    categories: dict[str, str],
) -> dict[str, dict[str, float]]:
    """Mean test accuracy per (team, benchmark category).

    ``categories`` maps benchmark name -> category.  This backs the
    paper's qualitative per-category observations (arithmetic is hard
    for learners, image comparisons favour forests, symmetric
    functions favour matching/periodic models).
    """
    out: dict[str, dict[str, float]] = {}
    for team, scores in scores_by_team.items():
        buckets: dict[str, list[float]] = {}
        for s in scores:
            cat = categories.get(s.benchmark, "unknown")
            buckets.setdefault(cat, []).append(s.test_accuracy)
        out[team] = {
            cat: float(np.mean(vals)) for cat, vals in buckets.items()
        }
    return out


@dataclass
class ContestRun:
    """Convenience bundle: every team's scores over a benchmark set."""

    scores_by_team: dict[str, list[Score]]

    def table3(self) -> list[dict]:
        return table3(self.scores_by_team)

    def virtual_best(self) -> list[Score]:
        return virtual_best(self.scores_by_team)

    def win_rates(self) -> dict[str, dict[str, int]]:
        return win_rates(self.scores_by_team)

