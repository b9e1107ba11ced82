"""Run a miniature IWLS 2020 contest.

Executes all ten team flows over a handful of benchmarks spanning the
suite's categories and prints a Table-III-style leaderboard plus the
per-benchmark winners (Fig. 4's win counts, in miniature).

Run:  python examples/mini_contest.py          (a few minutes)
      python examples/mini_contest.py --fast   (3 flows, seconds)
"""

import sys

from repro.analysis import format_table3, win_rates
from repro.flows import TEAM_FLOW_NAMES
from repro.runner import contest_tasks, run_contest_tasks

FAST_FLOWS = ("team01", "team07", "team10")
BENCHMARKS = [0, 21, 30, 74, 75, 80, 90]  # one per difficulty flavour


def main() -> None:
    fast = "--fast" in sys.argv
    # Flows are plain registry names; spec strings like
    # "team01:effort=full" or "portfolio:flows=team01+team10" are
    # equally valid here (see `python -m repro.cli flows`).
    flows = [
        name for name in TEAM_FLOW_NAMES
        if not fast or name in FAST_FLOWS
    ]
    print(f"running {len(flows)} flows over benchmarks "
          f"{['ex%02d' % b for b in BENCHMARKS]} ...\n")
    specs = contest_tasks(BENCHMARKS, flows, n_train=400, n_valid=400,
                          n_test=400, effort="small")
    run = run_contest_tasks(specs, verbose=True)
    print("\n=== Table III (miniature) ===")
    print(format_table3(run.table3()))

    print("\n=== win counts (Fig. 4, miniature) ===")
    wins = win_rates(run.scores_by_team)
    for team in sorted(wins, key=lambda t: -wins[t]["best"]):
        print(f"  {team}: best on {wins[team]['best']} benchmark(s), "
              f"top-1% on {wins[team]['top1pct']}")

    vb = run.virtual_best()
    print("\n=== virtual best per benchmark ===")
    for score in vb:
        print(f"  {score.benchmark}: {score.test_accuracy:.3f} "
              f"({score.num_ands} ANDs, by {score.method})")


if __name__ == "__main__":
    main()
