"""Ablation: CGP bootstrapped vs random initialization (Team 9).

The write-up's two-fold claim: bootstrapping (i) "allows to improve
further the solutions found by the other techniques", and (ii) random
initialization is the fallback when no good starter exists.  Measured
on the evolution's own objective (training fitness): the bootstrapped
run must start at/above the starter's quality and finish at least as
fit as the random-init run on the same generation budget.  The flow
itself (team09) guards test-side regressions by validating against
the starter — asserted here too.
"""

from _report import echo
from repro.cgp import CGPEvolver, CGPGenome, evolve_from_aig
from repro.contest import DEFAULT_REGISTRY, evaluate_solution
from repro.flows import get_flow
from repro.flows.common import aig_accuracy
from repro.ml.decision_tree import DecisionTree
from repro.ml.metrics import accuracy
from repro.synth.from_tree import tree_to_aig
from repro.utils.rng import rng_for


def _run(samples, generations):
    # ex60: a 16-input mixed cone.
    problem = DEFAULT_REGISTRY.problem("ex60", n_train=samples,
                                       n_valid=samples, n_test=samples)
    rng = rng_for("bench-cgp")
    # Starter: a small DT, deliberately under-fit (depth 4).
    tree = DecisionTree(max_depth=4).fit(problem.train.X,
                                         problem.train.y)
    starter = tree_to_aig(tree).extract_cone()
    starter_train = aig_accuracy(starter, problem.train)

    boot_genome, boot_fit = evolve_from_aig(
        starter, problem.train.X, problem.train.y,
        generations=generations, rng=rng_for("bench-cgp", "boot"),
    )
    seed = CGPGenome.from_aig(starter, rng=rng)
    rand = CGPEvolver(n_nodes=seed.n_nodes,
                      rng=rng_for("bench-cgp", "rand"))
    _, rand_fit = rand.run(problem.train.X, problem.train.y,
                           generations=generations)

    # The full flow (with its validation guard) on the same problem.
    solution = get_flow("team09").run(problem, effort="small")
    flow_score = evaluate_solution(problem, solution)
    starter_test = aig_accuracy(starter, problem.test)
    boot_test = accuracy(problem.test.y,
                         boot_genome.evaluate(problem.test.X))
    return (starter_train, starter_test, boot_fit, boot_test,
            rand_fit, flow_score)


def test_cgp_bootstrap_vs_random(scale):
    samples = min(scale["samples"], 600)
    generations = 800 if scale["name"] != "full" else 10000
    (starter_train, starter_test, boot_fit, boot_test, rand_fit,
     flow_score) = _run(samples, generations)
    echo("\n=== Ablation: CGP initialization ===")
    echo(f"  DT starter:       train {100 * starter_train:.1f}%  "
         f"test {100 * starter_test:.1f}%")
    echo(f"  bootstrapped CGP: train {100 * boot_fit:.1f}%  "
         f"test {100 * boot_test:.1f}%")
    echo(f"  random-init CGP:  train {100 * rand_fit:.1f}%")
    echo(f"  team09 flow (validation-guarded): test "
         f"{100 * flow_score.test_accuracy:.1f}%")
    # (i) bootstrapping never loses training fitness vs the starter
    # (neutral drift accepts only >=) and beats/matches random init.
    assert boot_fit >= starter_train - 1e-9
    assert boot_fit >= rand_fit - 0.02
    # (ii) the flow's validation guard keeps test quality at or above
    # a plain under-fit starter.
    assert flow_score.test_accuracy >= starter_test - 0.05
