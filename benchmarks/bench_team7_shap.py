"""Figs. 25-27: Team 7's majority network and SHAP analysis.

Fig. 25: a 3-layer MAJ-5 tree approximates a wide majority gate.
Fig. 26: on the multiplier MSB, correlation coefficients show no
pattern while Shapley importance does.
Fig. 27: on a signed comparator, mean Shapley values form two
monotone ramps of opposite polarity over the two operand words.
"""

import numpy as np

from _report import echo
from repro.aig.aig import AIG
from repro.aig.build import maj5_tree
from repro.contest import DEFAULT_REGISTRY
from repro.ml.boosting import GradientBoostedTrees
from repro.ml.shap import mean_abs_shapley
from repro.utils.rng import rng_for


def test_fig25_maj5_tree(rng_seed=0):
    rng = np.random.default_rng(rng_seed)

    def build_and_measure():
        aig = AIG(125)
        aig.set_output(maj5_tree(aig, aig.input_lits()))
        X = rng.integers(0, 2, size=(3000, 125)).astype(np.uint8)
        got = aig.simulate(X)[:, 0]
        want = (X.sum(axis=1) >= 63).astype(np.uint8)
        return aig, float((got == want).mean())

    aig, agreement = build_and_measure()
    echo(f"\n=== Fig. 25: MAJ-5 tree vs true 125-majority ===")
    echo(f"  nodes={aig.num_ands} agreement={100 * agreement:.1f}%")
    # Far cheaper than an exact 125-input majority and well above
    # chance even on uniform inputs, whose popcounts concentrate right
    # at the decision threshold (the approximation's hardest regime).
    assert agreement > 0.7
    assert aig.num_ands < 1500


def _shap_comparator(samples):
    # ex31: a 20-bit comparator.
    problem = DEFAULT_REGISTRY.problem("ex31", n_train=samples,
                                       n_valid=samples, n_test=samples)
    model = GradientBoostedTrees(n_estimators=25, max_depth=4)
    model.fit(problem.train.X, problem.train.y)
    rng = rng_for("bench-shap")
    background = problem.train.X[:60]
    probe = problem.train.X[:40]
    # Per-sample attributions, then the mean conditioned on the bit
    # being set — the quantity whose ramps Fig. 27 plots (the
    # unconditional mean integrates to ~0 by construction).
    from repro.ml.shap import sampling_shapley

    matrix = np.array([
        sampling_shapley(model.decision_margin, background, row,
                         n_permutations=8, rng=rng)
        for row in probe
    ])
    signed = np.zeros(problem.n_inputs)
    for j in range(problem.n_inputs):
        mask = probe[:, j] == 1
        if mask.any():
            signed[j] = matrix[mask, j].mean()
    return problem, signed


def test_fig27_comparator_shap_pattern(scale):
    samples = min(scale["samples"], 600)
    problem, signed = _shap_comparator(samples)
    k = problem.n_inputs // 2
    echo("\n=== Fig. 27: mean Shapley values, comparator operands ===")
    echo(f"  word A: {np.round(signed[:k], 2)}")
    echo(f"  word B: {np.round(signed[k:], 2)}")
    # Opposite polarities: the MSB-most informative bits of word A push
    # positive (a > b) and of word B push negative.
    top_a = signed[:k][-3:].sum()
    top_b = signed[k:][-3:].sum()
    assert top_a > 0 > top_b
    # Weight pattern: high bits matter more than low bits.
    assert abs(signed[k - 1]) > abs(signed[0])
    assert abs(signed[2 * k - 1]) > abs(signed[k])


def _shap_vs_correlation(samples):
    problem = DEFAULT_REGISTRY.problem("ex30", n_train=samples,
                                       n_valid=samples, n_test=samples)
    model = GradientBoostedTrees(n_estimators=25, max_depth=4)
    model.fit(problem.train.X, problem.train.y)
    rng = rng_for("bench-shap26")
    X = problem.train.X
    y = problem.train.y.astype(float)
    corr = np.array([
        np.corrcoef(X[:, j], y)[0, 1] if X[:, j].std() > 0 else 0.0
        for j in range(X.shape[1])
    ])
    importance = mean_abs_shapley(
        model.decision_margin, X[:60], X[:30], n_permutations=8, rng=rng
    )
    return problem, corr, importance


def test_fig26_shap_vs_correlation(scale):
    samples = min(scale["samples"], 600)
    problem, corr, importance = _shap_vs_correlation(samples)
    k = problem.n_inputs // 2
    echo("\n=== Fig. 26: |corr| vs mean |SHAP| (comparator) ===")
    echo(f"  |corr|  MSBs: {np.round(np.abs(corr)[[k-1, 2*k-1]], 3)}")
    echo(f"  |SHAP|  MSBs: {np.round(importance[[k-1, 2*k-1]], 3)}")
    # SHAP concentrates importance on the MSBs far more sharply than
    # raw correlation concentrates (the paper's point: SHAP reveals
    # the bit-weight pattern).
    shap_ratio = importance[[k - 1, 2 * k - 1]].mean() / max(
        importance.mean(), 1e-9
    )
    assert shap_ratio > 2.0, "MSBs should dominate Shapley importance"
