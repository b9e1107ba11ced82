"""``compress_deep`` and the ``trees-deep`` flow that finalizes with it."""

import pytest

from repro.aig.aiger import dumps_aag, loads_aag
from repro.aig.cec import check_equivalence
from repro.aig.optimize import compress_deep
from repro.contest.problem import MAX_AND_NODES
from repro.flows import REGISTRY
from repro.flows.api import FinalizeSpec, Flow
from repro.flows.common import aig_accuracy
from tests.conftest import random_aig

GRAPHS = [(8, 60, 3), (10, 150, 21), (12, 120, 11)]


@pytest.mark.parametrize("n_inputs,n_nodes,seed", GRAPHS)
class TestCompressDeep:
    def test_equivalent(self, n_inputs, n_nodes, seed):
        aig = random_aig(n_inputs, n_nodes, seed=seed, n_outputs=2)
        ok, cex = check_equivalence(aig, compress_deep(aig))
        assert ok, f"compress_deep broke equivalence: {cex}"

    def test_never_larger_than_input_cone(self, n_inputs, n_nodes, seed):
        cone = random_aig(n_inputs, n_nodes, seed=seed).extract_cone()
        out = compress_deep(cone)
        assert (out.num_ands, out.depth()) <= (cone.num_ands, cone.depth())

    def test_byte_deterministic_across_copies(self, n_inputs, n_nodes,
                                              seed):
        text = dumps_aag(random_aig(n_inputs, n_nodes, seed=seed))
        one = dumps_aag(compress_deep(loads_aag(text)))
        two = dumps_aag(compress_deep(loads_aag(text)))
        assert one == two

    def test_fixpoint(self, n_inputs, n_nodes, seed):
        once = compress_deep(random_aig(n_inputs, n_nodes, seed=seed))
        assert dumps_aag(compress_deep(once)) == dumps_aag(once)


class TestTreesDeepFlow:
    def test_registered(self):
        flow = REGISTRY.get("trees-deep")
        assert flow.finalize == FinalizeSpec(deep=True)
        assert flow.spec_params == {}

    def test_matches_plain_compress_twin(self, small_problem):
        deep = REGISTRY.get("trees-deep")
        twin = Flow(
            "trees-plain",
            team="test",
            efforts=deep.efforts,
            stages=deep.stages,
            finalize=FinalizeSpec(),
        )
        result = deep.run_detailed(small_problem)
        plain = twin.run_detailed(small_problem)
        assert result.solution.aig.num_ands <= MAX_AND_NODES
        assert aig_accuracy(
            result.solution.aig, small_problem.valid
        ) == aig_accuracy(plain.solution.aig, small_problem.valid)
