"""Fig. 3: maximum accuracy achieved on each benchmark.

Paper shape: "While most of the benchmarks achieved a 100% accuracy,
several benchmarks only achieved close to 50%" — the hard tail being
wide multiplier/sqrt bits and the CIFAR group comparisons.  We assert
the same bimodality: some benchmarks saturate (>=95%) while at least
one stays below 75%, and the easy group outnumbers a chance-level
middle.
"""

from _report import echo
from repro.analysis import per_benchmark_best


def test_fig3_max_accuracy(contest_run, scale):
    best = per_benchmark_best(contest_run.scores_by_team)
    echo(f"\n=== Fig. 3: best accuracy per benchmark "
          f"(scale={scale['name']}) ===")
    for name in sorted(best):
        bar = "#" * int((best[name] - 0.5) * 40) if best[name] > 0.5 else ""
        echo(f"  {name}: {100 * best[name]:6.2f}%  {bar}")

    values = list(best.values())
    saturated = sum(1 for v in values if v >= 0.95)
    hard = sum(1 for v in values if v < 0.75)
    echo(f"  saturated (>=95%): {saturated}/{len(values)}, "
          f"hard (<75%): {hard}/{len(values)}")
    assert saturated >= len(values) * 0.3, "many benchmarks saturate"
    assert hard >= 1, "a hard tail exists"
    # Nothing below chance.
    assert min(values) > 0.45
