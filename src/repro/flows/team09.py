"""Team 9 (UFSC/UFRGS): bootstrapped Cartesian Genetic Programming.

A decision tree and espresso each produce a starter AIG on half the
training data; if the better one reaches at least 55% accuracy, CGP
fine-tunes it on the full training set (genome sized at twice the AIG,
no mini-batches).  Otherwise the search starts from random individuals
with mini-batch fitness that reshuffles every few hundred generations.
The (1+4)-ES with the 1/5th mutation-rate rule and preferential
selection of larger phenotypes comes from ``repro.cgp``.
"""

from __future__ import annotations

from repro.cgp import AIG_FUNCTIONS, XAIG_FUNCTIONS, CGPEvolver, CGPGenome
from repro.contest.problem import Solution
from repro.flows.api import Candidate, FinalizeSpec, Flow, FlowContext, Stage
from repro.flows.common import aig_accuracy
from repro.flows.registry import register
from repro.ml.decision_tree import DecisionTree
from repro.synth.from_sop import cover_to_aig
from repro.synth.from_tree import tree_to_aig
from repro.twolevel.espresso import espresso_from_samples

BOOTSTRAP_THRESHOLD = 0.55


def _evolve_stage(ctx: FlowContext) -> list[Candidate]:
    """Bootstrap starters on half the data, CGP-evolve, and send both
    the evolved circuit and the starter into the funnel."""
    params, rng, problem = ctx.params, ctx.rng, ctx.problem

    # Bootstrap candidates trained on half the training set (the other
    # half is reserved for the CGP fine-tuning, per the write-up).
    half_a, half_b = problem.train.split_stratified(0.5, rng)
    starters = []
    tree = DecisionTree(max_depth=8).fit(half_a.X, half_a.y)
    starters.append(("dt", tree_to_aig(tree)))
    esp_data = half_a
    limit = params["espresso_max_samples"]
    if esp_data.n_samples > limit:
        esp_data = esp_data.sample_fraction(limit / esp_data.n_samples, rng)
    cover = espresso_from_samples(esp_data.X, esp_data.y,
                                  first_irredundant=True)
    starters.append(("espresso", cover_to_aig(cover).extract_cone()))
    starters = [
        (name, aig, aig_accuracy(aig, half_b)) for name, aig in starters
    ]
    starters.sort(key=lambda s: -s[2])
    boot_name, boot_aig, boot_acc = starters[0]

    function_set = (
        XAIG_FUNCTIONS if "xaig" in params["function_sets"] else AIG_FUNCTIONS
    )
    if boot_acc >= BOOTSTRAP_THRESHOLD and boot_aig.num_ands > 0:
        seed = CGPGenome.from_aig(boot_aig, rng=rng,
                                  function_set=function_set)
        evolver = CGPEvolver(
            n_nodes=seed.n_nodes,
            function_set=function_set,
            rng=rng,
        )
        genome, fit = evolver.run(
            half_b.X, half_b.y,
            generations=params["generations"],
            seed_genome=seed,
        )
        ctx.state["mode"] = f"bootstrap[{boot_name}]"
    else:
        evolver = CGPEvolver(
            n_nodes=params["random_nodes"],
            function_set=function_set,
            batch_size=params["batch_size"],
            batch_generations=params["batch_generations"],
            rng=rng,
        )
        genome, fit = evolver.run(
            problem.train.X, problem.train.y,
            generations=params["generations"],
        )
        ctx.state["mode"] = "random-init"
    ctx.state["train_fitness"] = fit
    # Keep whichever of {evolved, starter} validates better.
    return [
        Candidate("evolved", genome.to_aig()),
        Candidate(f"starter-{boot_name}", boot_aig),
    ]


def _package(ctx: FlowContext, name, aig, acc) -> Solution:
    return Solution(
        aig=aig,
        method=f"{ctx.flow.name}:{ctx.state['mode']}:{name}",
        metadata={"train_fitness": ctx.state["train_fitness"],
                  "valid_accuracy": acc},
    )


FLOW = register(Flow(
    "team09",
    team="UFSC/UFRGS",
    techniques={"CGP", "decision tree", "ESPRESSO/SOP"},
    description="CGP fine-tuning bootstrapped from DT/espresso "
                "starters (random init below 55%)",
    efforts={
        "small": {
            "generations": 600,
            "random_nodes": 200,
            "batch_size": 512,
            "batch_generations": 200,
            "espresso_max_samples": 1500,
            "function_sets": ("aig",),
        },
        "full": {
            "generations": 25000,
            "random_nodes": 5000,
            "batch_size": 1024,
            "batch_generations": 1000,
            "espresso_max_samples": 8000,
            "function_sets": ("aig", "xaig"),
        },
    },
    stages=(
        Stage("evolve", _evolve_stage,
              "bootstrap starters, CGP evolution, starter rescue"),
    ),
    finalize=FinalizeSpec(),
    package=_package,
))
