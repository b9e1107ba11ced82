"""Every team flow end-to-end on small problems (integration)."""

import numpy as np
import pytest

from repro.contest import DEFAULT_REGISTRY, evaluate_solution
from repro.flows import TEAM_FLOW_NAMES, TECHNIQUE_NAMES, TECHNIQUES, get_flow


@pytest.fixture(scope="module")
def comparator_problem():
    return DEFAULT_REGISTRY.problem("ex30", n_train=250, n_valid=250,
                                    n_test=250)


@pytest.fixture(scope="module")
def parity_problem():
    return DEFAULT_REGISTRY.problem("ex74", n_train=250, n_valid=250,
                                    n_test=250)


@pytest.mark.parametrize("flow_name", sorted(TEAM_FLOW_NAMES))
def test_flow_contract(flow_name, comparator_problem):
    """Every flow returns a legal, better-than-chance solution."""
    solution = get_flow(flow_name).run(comparator_problem, effort="small")
    score = evaluate_solution(comparator_problem, solution)
    assert score.legal, f"{flow_name} exceeded the node cap"
    assert solution.aig.num_outputs == 1
    assert solution.aig.n_inputs == comparator_problem.n_inputs
    assert score.test_accuracy > 0.55, (
        f"{flow_name} barely better than chance: {score.test_accuracy}"
    )


@pytest.mark.parametrize("flow_name", sorted(TEAM_FLOW_NAMES))
def test_flow_deterministic(flow_name, comparator_problem):
    a = get_flow(flow_name).run(comparator_problem, effort="small",
                                master_seed=7)
    b = get_flow(flow_name).run(comparator_problem, effort="small",
                                master_seed=7)
    assert a.aig.num_ands == b.aig.num_ands
    assert np.array_equal(
        a.aig.simulate(comparator_problem.test.X),
        b.aig.simulate(comparator_problem.test.X),
    )


class TestMatchingFlows:
    def test_team01_matches_parity_exactly(self, parity_problem):
        solution = get_flow("team01").run(parity_problem, effort="small")
        score = evaluate_solution(parity_problem, solution)
        assert "match" in solution.method
        assert score.test_accuracy == 1.0

    def test_team07_matches_parity_exactly(self, parity_problem):
        solution = get_flow("team07").run(parity_problem, effort="small")
        score = evaluate_solution(parity_problem, solution)
        assert "match" in solution.method
        assert score.test_accuracy == 1.0

    def test_team10_fails_parity(self, parity_problem):
        """Plain DTs cannot learn wide parity — the paper's recurring
        negative result."""
        solution = get_flow("team10").run(parity_problem, effort="small")
        score = evaluate_solution(parity_problem, solution)
        assert score.test_accuracy < 0.7


class TestTechniquesMatrix:
    def test_every_team_listed(self):
        assert set(TECHNIQUES) == set(TEAM_FLOW_NAMES)

    def test_technique_names_known(self):
        for team, used in TECHNIQUES.items():
            assert used <= set(TECHNIQUE_NAMES), team

    def test_no_single_technique_everywhere(self):
        """Fig. 1's point: the portfolios differ."""
        sets = list(TECHNIQUES.values())
        assert not any(s == sets[0] for s in sets[1:])


class TestPortfolio:
    def test_portfolio_at_least_as_good_as_members(self, comparator_problem):
        flows = ["team10", "team02"]
        member_scores = [
            evaluate_solution(
                comparator_problem,
                get_flow(f).run(comparator_problem, effort="small"),
            ).valid_accuracy
            for f in flows
        ]
        portfolio = get_flow("portfolio").run(
            comparator_problem, effort="small", flows=flows
        )
        score = evaluate_solution(comparator_problem, portfolio)
        assert score.valid_accuracy >= max(member_scores) - 1e-9
        assert portfolio.metadata["selected_flow"] in flows
