"""Deep compress vs plain ``compress`` on the same tree candidates.

``trees-deep`` finalizes its decision-tree candidates with
``compress_deep`` — ``compress``'s four passes plus a larger-cone
``refactor`` and a stronger ``fraig_lite``, tried in a fixed order and
restarted after every gain until a full sweep finds nothing.  Its twin
here is the same flow with a plain ``FinalizeSpec()``.  Both share one
``ArtifactCache`` per problem, so every compared candidate starts from
the *same* tree circuit; every pass is exact, so accuracies are equal
and only sizes differ.

Slice: odd indices ex61-ex99 at 250 samples.  Gate: ``trees-deep`` is
never larger than the twin on any candidate, strictly smaller in
total (at most 0.995x), and equal in validation accuracy.
"""

import time

from _report import echo
from repro.contest import DEFAULT_REGISTRY
from repro.flows import REGISTRY
from repro.flows.api import ArtifactCache, FinalizeSpec, Flow
from repro.flows.common import aig_accuracy

SLICE = [f"ex{i:02d}" for i in range(61, 100, 2)]
SAMPLES = 250
MAX_RATIO = 0.995


def _twin(flow: Flow, name: str, finalize: FinalizeSpec | None) -> Flow:
    return Flow(
        name,
        team=flow.team,
        techniques=flow.techniques,
        efforts=flow.efforts,
        stages=flow.stages,
        finalize=finalize,
    )


def _timed(fn):
    start = time.perf_counter()
    out = fn()
    return time.perf_counter() - start, out


def _compare():
    deep = REGISTRY.get("trees-deep")
    twin = _twin(deep, "trees-compress", FinalizeSpec())
    # Trains and caches the trees, so neither timed run pays for them.
    warm = _twin(deep, "trees-raw", None)
    totals = {"compress": 0, "deep": 0}
    seconds = {"compress": 0.0, "deep": 0.0}
    larger, accuracy_diffs = [], []
    for name in SLICE:
        problem = DEFAULT_REGISTRY.problem(
            name, n_train=SAMPLES, n_valid=SAMPLES, n_test=SAMPLES
        )
        cache = ArtifactCache()  # both flows start from the same trees
        warm.run(problem, cache=cache)
        t_plain, plain = _timed(
            lambda: twin.run_detailed(problem, cache=cache))
        t_deep, deeper = _timed(
            lambda: deep.run_detailed(problem, cache=cache))
        seconds["compress"] += t_plain
        seconds["deep"] += t_deep
        plain_sizes = {c.name: c.num_ands for c in plain.candidates}
        for cand in deeper.candidates:
            totals["compress"] += plain_sizes[cand.name]
            totals["deep"] += cand.num_ands
            if cand.num_ands > plain_sizes[cand.name]:
                larger.append((name, cand.name))
        accs = (aig_accuracy(plain.solution.aig, problem.valid),
                aig_accuracy(deeper.solution.aig, problem.valid))
        if accs[0] != accs[1]:
            accuracy_diffs.append((name, *accs))
    return totals, seconds, larger, accuracy_diffs


def test_deep_compress_smaller_than_compress():
    totals, seconds, larger, accuracy_diffs = _compare()
    ratio = totals["deep"] / max(totals["compress"], 1)
    echo(f"\n=== Deep compress vs compress ({len(SLICE)} benchmarks, "
         f"{SAMPLES} samples) ===")
    for who in ("compress", "deep"):
        echo(f"  {who:8s} total ANDs: {totals[who]:6d}  "
             f"finalize+select {seconds[who]:5.2f} s")
    echo(f"  ratio deep/compress: {ratio:.4f}x")

    assert not larger, f"compress_deep larger than compress on {larger}"
    assert totals["deep"] < totals["compress"], totals
    assert ratio <= MAX_RATIO, ratio
    assert not accuracy_diffs, accuracy_diffs
