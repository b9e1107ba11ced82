"""Fig. 4: which team wins the most benchmarks / is in the top 1%.

Paper shape: wins are *spread* over several teams (Team 3 led with 42
of 100, followed by Teams 7 and 1) — no team wins everything, and the
average-accuracy winner (Team 1) is not the per-benchmark win-count
leader.  We assert the spread: at least two teams win something and no
team wins every benchmark; top-1% counts dominate best counts.
"""

from _report import echo
from repro.analysis import win_rates


def test_fig4_win_rates(contest_run, scale):
    wins = win_rates(contest_run.scores_by_team)
    n_benchmarks = len(next(iter(contest_run.scores_by_team.values())))
    echo(f"\n=== Fig. 4: win counts over {n_benchmarks} benchmarks "
          f"(scale={scale['name']}) ===")
    for team in sorted(wins, key=lambda t: -wins[t]["best"]):
        echo(f"  {team}: best={wins[team]['best']:3d} "
              f"top1%={wins[team]['top1pct']:3d}")

    winners = [t for t, w in wins.items() if w["best"] > 0]
    assert len(winners) >= 2, "wins should be spread across teams"
    assert max(w["best"] for w in wins.values()) < n_benchmarks, (
        "no single team dominates every benchmark"
    )
    for team, w in wins.items():
        assert w["top1pct"] >= w["best"], team
