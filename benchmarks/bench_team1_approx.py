"""Fig. 7 + section IV claim: Team 1's AIG approximation.

The paper applies simulation-guided constant substitution to oversize
LUT-network AIGs on the image benchmarks and reports "the accuracy
drops at most 5% while reducing 3000-5000 nodes".  We train a
memorization LUT network on the CIFAR-like benchmark (the paper's
cases 80-99), convert it to an AIG of several thousand nodes, and
strip nodes in steps, simulating with the training distribution
(Team 1 used random patterns at 6400 samples; at reduced scale the
data distribution is the honest stimulus).  Asserted shape: removing
the first 2000 nodes costs only a few points; deeper cuts degrade
gracefully toward the constant predictor, never below chance.
"""

from _report import echo
from repro.aig.approx import approximate_to_size
from repro.contest import DEFAULT_REGISTRY
from repro.flows.common import aig_accuracy
from repro.ml.lutnet import LUTNetwork
from repro.synth.from_lutnet import lutnet_to_aig
from repro.utils.rng import rng_for


def _approx_sweep(samples):
    problem = DEFAULT_REGISTRY.problem("ex90", n_train=samples, n_valid=500,
                                       n_test=samples)
    rng = rng_for("bench-approx")
    net = LUTNetwork(n_layers=6, luts_per_layer=512, lut_size=4,
                     rng=rng)
    net.fit(problem.train.X, problem.train.y)
    aig = lutnet_to_aig(net).extract_cone()
    sweep = [(aig.num_ands, aig_accuracy(aig, problem.test))]
    for removed in (2000, 4000):
        target = aig.num_ands - removed
        if target <= 0:
            break
        small = approximate_to_size(
            aig, max_ands=target, rng=rng, patterns=problem.train.X
        )
        sweep.append((small.num_ands, aig_accuracy(small, problem.test)))
    return sweep


def test_fig7_approximation_degradation(scale):
    samples = max(min(scale["samples"] * 4, 2000), 1000)
    sweep = _approx_sweep(samples)
    echo("\n=== Fig. 7: LUT-net accuracy vs approximated size ===")
    base_size, base_acc = sweep[0]
    for ands, acc in sweep:
        echo(f"  {ands:6d} ANDs (-{base_size - ands:5d})  ->  "
             f"{100 * acc:6.2f}%")
    assert base_acc > 0.8, "LUT net should learn the image task"
    # The paper's claim: the first thousands of removed nodes are
    # nearly free (<= 5% there; allow 8 points at reduced scale).
    assert len(sweep) >= 2
    assert base_acc - sweep[1][1] <= 0.08, (base_acc, sweep[1][1])
    # Deeper cuts degrade but never below chance.
    assert all(acc > 0.45 for _, acc in sweep)
