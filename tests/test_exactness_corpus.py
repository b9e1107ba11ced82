"""Exactness on the graphs contest flows actually produce.

The property tests elsewhere run the optimization passes on random
graphs.  This corpus is a few registry benchmark x flow cells at small
sample sizes: every candidate circuit a cell emits, before its flow
finalizes it, plus that circuit's ``balance`` form.  On it:

- every pass of :data:`~repro.aig.opt.passes.DEEP_PASSES` is proven
  equivalent to its input: every benchmark here has 16 inputs, so
  comparing exhaustive truth tables is a complete equivalence check;
- ``rewrite`` and ``refactor`` match their pricing oracles in
  :mod:`tests.oracles` byte for byte;
- ``approximate_to_size`` meets its cap while agreeing with its input
  on most simulated patterns.
"""

import functools

import numpy as np
import pytest

from repro.aig.aig import AIG
from repro.aig.aiger import dumps_aag
from repro.aig.approx import approximate_to_size
from repro.aig.opt.passes import DEEP_PASSES, balance, refactor, rewrite
from repro.contest import DEFAULT_REGISTRY
from repro.flows import get_flow
from repro.flows.api import Flow
from repro.utils.rng import rng_for
from tests import oracles

#: (benchmark, flow): a multiplier bit, symmetric and image-like
#: functions through covers, trees, boosting, MLPs and a LUT network.
CELLS = (
    ("ex20", "team05"),
    ("ex40", "team01"),
    ("ex40", "team03"),
    ("ex50", "team01"),
    ("ex40", "team07"),
    ("ex74", "team03"),
    ("ex74", "team05"),
    ("ex74", "team10"),
)


class _Capture:
    """A finalize step that keeps each candidate and changes nothing."""

    def __init__(self) -> None:
        self.aigs: list[AIG] = []

    def apply(self, aig: AIG, rng: np.random.Generator) -> AIG:
        self.aigs.append(aig)
        return aig


@functools.cache
def corpus() -> tuple[tuple[str, AIG], ...]:
    """``(name, graph)`` of every candidate the cells emit, raw cone and
    balanced, in emission order."""
    graphs = []
    for bench, flow_name in CELLS:
        problem = DEFAULT_REGISTRY.problem(bench, n_train=200, n_valid=100,
                                           n_test=100)
        flow = get_flow(flow_name)
        capture = _Capture()
        Flow(flow.name, team=flow.team, efforts=flow.efforts,
             stages=flow.stages, finalize=capture).run_detailed(problem)
        for i, aig in enumerate(capture.aigs):
            raw = aig.extract_cone()
            if raw.num_ands:
                graphs.append((f"{bench}/{flow_name}/{i}", raw))
                graphs.append((f"{bench}/{flow_name}/{i}/balance", balance(raw)))
    return tuple(graphs)


def test_corpus_is_real_and_varied():
    sizes = [aig.num_ands for _, aig in corpus()]
    assert len(sizes) >= 40
    assert max(sizes) >= 500
    assert {aig.n_inputs for _, aig in corpus()} == {16}
    cells = {tuple(name.split("/")[:2]) for name, _ in corpus()}
    assert cells == set(CELLS)


@functools.cache
def truth_tables(name: str) -> list[int]:
    return dict(corpus())[name].truth_tables()


@pytest.mark.parametrize("index", range(len(DEEP_PASSES)))
def test_every_deep_pass_is_exact_on_contest_graphs(index):
    pass_fn = DEEP_PASSES[index]
    for name, aig in corpus():
        assert pass_fn(aig).truth_tables() == truth_tables(name), (index, name)


def test_rewrite_and_refactor_match_pricing_oracles_on_contest_graphs():
    for name, aig in corpus():
        assert dumps_aag(rewrite(aig)) == dumps_aag(oracles.rewrite(aig)), name
        for max_leaves in (10, 14):
            assert dumps_aag(refactor(aig, max_leaves)) == dumps_aag(
                oracles.refactor(aig, max_leaves)
            ), (name, max_leaves)


def test_approximation_meets_cap_and_keeps_its_simulated_accuracy():
    patterns = rng_for("corpus-approx").integers(
        0, 2, size=(4096, 16), dtype=np.uint8
    )
    checked = 0
    for name, aig in corpus():
        if aig.num_ands < 100:
            continue
        cap = aig.num_ands * 9 // 10
        out = approximate_to_size(aig, cap, rng=rng_for("corpus", name))
        assert out.num_ands <= cap, name
        agree = np.mean(out.simulate(patterns) == aig.simulate(patterns))
        assert agree >= 0.8, (name, agree)
        checked += 1
    assert checked >= 10
