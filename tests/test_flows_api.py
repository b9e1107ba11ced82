"""The Flow API: registry, contract enforcement, spec strings,
artifact cache sharing, and FlowResult introspection."""

import inspect

import numpy as np
import pytest

from repro.aig.aig import AIG, CONST0
from repro.contest import DEFAULT_REGISTRY
from repro.contest.problem import Solution
from repro.contest.registry import parse_spec_string
from repro.flows import (
    REGISTRY,
    TEAM_FLOW_NAMES,
    get_flow,
    resolve_spec,
)
from repro.flows.api import (
    ArtifactCache,
    Candidate,
    FinalizeSpec,
    Flow,
    Stage,
    check_flow_contract,
)
from repro.flows.registry import FlowSpec


def unregistered_flow(problem, effort="small", master_seed=0):
    """A module-level flow outside the registry."""
    return get_flow("team10").run(problem, effort=effort,
                                  master_seed=master_seed)


def _trivial_flow(name: str) -> Flow:
    def stage(ctx):
        aig = AIG(ctx.problem.n_inputs)
        aig.set_output(CONST0)
        return [Candidate("const0", aig)]

    return Flow(
        name,
        team="test",
        efforts={"small": {}, "full": {}},
        stages=(Stage("const", stage),),
        finalize=None,
    )


@pytest.fixture
def scratch_flow():
    flow = REGISTRY.register(_trivial_flow("scratch-flow"))
    try:
        yield flow
    finally:
        REGISTRY.remove("scratch-flow")


class TestRegistry:
    def test_all_team_flows_and_portfolio_registered(self):
        names = set(REGISTRY.names())
        assert set(TEAM_FLOW_NAMES) <= names
        assert "portfolio" in names

    def test_get_unknown_raises_with_listing(self):
        with pytest.raises(KeyError, match="registered"):
            REGISTRY.get("teamXX")

    def test_duplicate_registration_rejected(self, scratch_flow):
        with pytest.raises(ValueError, match="already registered"):
            REGISTRY.register(_trivial_flow("scratch-flow"))

    def test_replace_allows_override(self, scratch_flow):
        replacement = _trivial_flow("scratch-flow")
        REGISTRY.remove("scratch-flow")
        REGISTRY.register(replacement)
        assert REGISTRY.get("scratch-flow") is replacement

    def test_non_flow_rejected(self):
        with pytest.raises(TypeError, match="Flow instances"):
            REGISTRY.register(lambda problem: None)

    def test_spec_like_name_rejected(self):
        with pytest.raises(ValueError, match="spec syntax"):
            REGISTRY.register(_trivial_flow("bad=name"))


class TestContract:
    """Satellite: the registry enforces the documented signature
    ``run(problem, effort="small", master_seed=0)`` for every flow —
    including the portfolio, whose historical signature violated it."""

    @pytest.mark.parametrize("name", sorted(REGISTRY.names()))
    def test_registered_flow_signature_conformance(self, name):
        flow = REGISTRY.get(name)
        check_flow_contract(flow.run, name)  # raises on violation
        params = list(inspect.signature(flow.run).parameters.values())
        assert [p.name for p in params[:3]] == [
            "problem", "effort", "master_seed"
        ]
        assert params[1].default == "small"
        assert params[2].default == 0
        for extra in params[3:]:
            assert extra.default is not inspect.Parameter.empty, (
                f"{name}: extra parameter {extra.name} needs a default"
            )

    def test_contract_rejects_wrong_leading_params(self):
        def bad(data, effort="small", master_seed=0):
            return None

        with pytest.raises(TypeError, match="leading parameters"):
            check_flow_contract(bad, "bad")

    def test_contract_rejects_wrong_defaults(self):
        def bad(problem, effort="full", master_seed=0):
            return None

        with pytest.raises(TypeError, match="effort"):
            check_flow_contract(bad, "bad")

    def test_contract_rejects_defaultless_extras(self):
        def bad(problem, effort="small", master_seed=0, jobs=None,
                flows=()):
            return None

        check_flow_contract(bad, "ok")  # defaults everywhere: fine

        def worse(problem, effort="small", master_seed=0, *, jobs):
            return None

        with pytest.raises(TypeError, match="jobs"):
            check_flow_contract(worse, "worse")

    def test_registration_runs_the_contract_check(self):
        class BadFlow(Flow):
            def run(self, problem, effort="full", master_seed=0):
                raise NotImplementedError

        bad = BadFlow(
            "bad-flow", team="t", efforts={"small": {}},
            stages=(Stage("s", lambda ctx: None),),
        )
        with pytest.raises(TypeError, match="effort"):
            REGISTRY.register(bad)
        assert "bad-flow" not in REGISTRY


class TestSpecStrings:
    def test_parse_plain_name(self):
        assert parse_spec_string("team01") == ("team01", {})

    def test_parse_overrides(self):
        name, overrides = parse_spec_string("portfolio:flows=a+b,effort=full")
        assert name == "portfolio"
        assert overrides == {"flows": "a+b", "effort": "full"}

    @pytest.mark.parametrize("bad", ["", ":effort=full", "team01:effort",
                                     "team01:effort=full,effort=small"])
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_spec_string(bad)

    def test_resolve_plain_name_returns_flow(self):
        assert resolve_spec("team01") is REGISTRY.get("team01")

    def test_resolve_effort_override(self):
        spec = resolve_spec("team01:effort=full")
        assert isinstance(spec, FlowSpec)
        assert spec.flow is REGISTRY.get("team01")
        assert spec.overrides == {"effort": "full"}

    def test_resolve_rejects_unknown_effort(self):
        with pytest.raises(ValueError, match="no effort"):
            resolve_spec("team01:effort=huge")

    def test_resolve_rejects_undeclared_override(self):
        with pytest.raises(ValueError, match="override"):
            resolve_spec("team01:jobs=4")

    def test_portfolio_spec_params_coerced(self):
        spec = resolve_spec("portfolio:flows=team01+team10")
        assert spec.overrides == {"flows": ["team01", "team10"]}
        # The members run serially: there is no pool width to set.
        with pytest.raises(ValueError, match="override"):
            resolve_spec("portfolio:jobs=2")

    def test_unknown_override_suggests(self):
        with pytest.raises(ValueError, match="did you mean flows"):
            resolve_spec("portfolio:flow=team01")

    @pytest.mark.parametrize("members,match", [
        ("team01+nope", "unknown flow 'nope'"),
        ("team1", "did you mean team10, team01"),
        ("", "empty member"),
        ("team01++team10", "empty member"),
    ])
    def test_portfolio_members_checked_at_resolve(self, members, match):
        with pytest.raises(ValueError, match=match):
            resolve_spec(f"portfolio:flows={members}")

    def test_spec_override_wins_over_caller(self, scratch_flow,
                                            small_problem):
        calls = []

        def recording_stage(ctx):
            calls.append(ctx.effort)
            aig = AIG(ctx.problem.n_inputs)
            aig.set_output(CONST0)
            return [Candidate("c", aig)]

        REGISTRY.remove("scratch-flow")
        REGISTRY.register(
            Flow("scratch-flow", team="t",
                 efforts={"small": {}, "full": {}},
                 stages=(Stage("s", recording_stage),), finalize=None),
        )
        resolve_spec("scratch-flow:effort=full")(
            small_problem, effort="small"
        )
        assert calls == ["full"]

    def test_spec_pinned_kwargs_win_over_caller(self, small_problem):
        # Regression: every pinned override wins, not just effort — a
        # stored "portfolio:flows=..." spec must run exactly that spec.
        spec = resolve_spec("portfolio:flows=team10")
        solution = spec(small_problem, flows=["team07"])
        assert solution.metadata["selected_flow"] == "team10"

    def test_runner_resolve_flow_uses_registry(self):
        from repro.runner import resolve_flow

        assert resolve_flow("team01") is REGISTRY.get("team01")
        spec = resolve_flow("team01:effort=full")
        assert isinstance(spec, FlowSpec)
        # The dotted-path escape hatch for unregistered callables.
        assert resolve_flow(f"{__name__}:unregistered_flow") is (
            unregistered_flow
        )


class TestArtifactCache:
    def test_miss_then_hit(self, small_problem):
        cache = ArtifactCache()
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert cache.get_or_compute(small_problem, "f", ("k",),
                                    compute) == 42
        assert cache.get_or_compute(small_problem, "f", ("k",),
                                    compute) == 42
        assert calls == [1]
        assert cache.stats()["f"] == {"hits": 1, "misses": 1}

    def test_none_is_a_cacheable_result(self, small_problem):
        cache = ArtifactCache()
        calls = []

        def compute():
            calls.append(1)
            return None

        assert cache.get_or_compute(small_problem, "f", (), compute) is None
        assert cache.get_or_compute(small_problem, "f", (), compute) is None
        assert calls == [1]

    def test_problems_are_isolated(self, small_problem):
        other = DEFAULT_REGISTRY.problem("ex00", n_train=32, n_valid=32,
                                         n_test=32)
        cache = ArtifactCache()
        cache.get_or_compute(small_problem, "f", (), lambda: "a")
        assert cache.get_or_compute(other, "f", (), lambda: "b") == "b"
        assert len(cache) == 2

    def test_dataset_digest_distinguishes_content(self):
        a = np.zeros((4, 4), dtype=np.uint8)
        b = np.ones((4, 4), dtype=np.uint8)
        assert (ArtifactCache.dataset_digest(a)
                != ArtifactCache.dataset_digest(b))
        assert (ArtifactCache.dataset_digest(a, b)
                == ArtifactCache.dataset_digest(a.copy(), b.copy()))

    def test_dataset_digest_is_boundary_and_shape_sensitive(self):
        # Same concatenated byte stream, different split points or
        # shapes, must not collide.
        ab, c = (np.frombuffer(b"ab", dtype=np.uint8),
                 np.frombuffer(b"c", dtype=np.uint8))
        a, bc = (np.frombuffer(b"a", dtype=np.uint8),
                 np.frombuffer(b"bc", dtype=np.uint8))
        assert (ArtifactCache.dataset_digest(ab, c)
                != ArtifactCache.dataset_digest(a, bc))
        flat = np.arange(16, dtype=np.uint8)
        assert (ArtifactCache.dataset_digest(flat)
                != ArtifactCache.dataset_digest(flat.reshape(4, 4)))

    def test_cache_pins_problems_against_id_recycling(self, small_problem):
        # Regression: keying on id(problem) alone would let a freed
        # problem's recycled id serve stale artifacts.  The cache must
        # hold a strong reference to every problem it has seen.
        import gc

        cache = ArtifactCache()
        seen = []
        for _ in range(4):
            p = DEFAULT_REGISTRY.problem("ex00", n_train=16, n_valid=16,
                                         n_test=16)
            seen.append(id(p))
            marker = object()
            got = cache.get_or_compute(p, "f", (), lambda: marker)
            assert got is marker  # always a miss: p is a new problem
            del p
            gc.collect()
        assert cache.misses == 4 and cache.hits == 0


class TestCrossFlowSharing:
    """Acceptance: the cache deduplicates a shared model family across
    flows.  Teams 1 and 7 run the identical standard-function match
    scan on the identical merged dataset — with a shared cache the
    scan happens once, and both flows still return byte-identical
    Solutions."""

    @pytest.fixture(scope="class")
    def parity_problem(self):
        return DEFAULT_REGISTRY.problem("ex74", n_train=200, n_valid=200,
                                        n_test=200)

    def test_match_family_computed_once_across_flows(self,
                                                     parity_problem):
        cache = ArtifactCache()
        sol01 = get_flow("team01").run(parity_problem, cache=cache)
        sol07 = get_flow("team07").run(parity_problem, cache=cache)
        stats = cache.stats()
        assert stats["function-match"] == {"hits": 1, "misses": 1}
        assert stats["merged-dataset"] == {"hits": 1, "misses": 1}
        # Sharing must not change behaviour.
        cold01 = get_flow("team01").run(parity_problem)
        cold07 = get_flow("team07").run(parity_problem)
        from repro.aig.aiger import dumps_aag

        assert sol01.method == cold01.method
        assert sol07.method == cold07.method
        assert dumps_aag(sol01.aig.extract_cone()) == \
            dumps_aag(cold01.aig.extract_cone())
        assert dumps_aag(sol07.aig.extract_cone()) == \
            dumps_aag(cold07.aig.extract_cone())

    def test_portfolio_members_share_the_cache(self, parity_problem):
        cache = ArtifactCache()
        solution = get_flow("portfolio").run(
            parity_problem, flows=["team01", "team07"], cache=cache
        )
        assert solution.method.startswith("portfolio:")
        assert cache.stats()["function-match"]["hits"] >= 1

    def test_team05_grid_dedups_identical_trees(self, small_problem):
        """Within-flow dedup: identical (data, depth) grid cells train
        one tree (at full effort the 80%-proportion cells repeat per
        sweep seed; at small effort the family is at least present)."""
        result = get_flow("team05").run_detailed(small_problem)
        stats = result.cache_stats
        assert "decision-tree" in stats
        assert stats["decision-tree"]["misses"] >= 1


class TestFlowResult:
    def test_detailed_matches_run(self, small_problem):
        flow = get_flow("team10")
        detailed = flow.run_detailed(small_problem)
        plain = flow.run(small_problem)
        assert detailed.solution.method == plain.method
        assert detailed.flow == "team10"
        assert detailed.effort == "small"
        assert not detailed.short_circuited
        [record] = detailed.candidates
        assert record.name == "dt8"
        assert record.stage == "dt8"
        assert record.num_ands == detailed.solution.aig.count_used_ands()
        assert "leaves" in record.provenance

    def test_candidate_table_covers_all_stages(self):
        # A random control cone: no standard-function match, so the
        # espresso + beam + forests stages all emit into the funnel.
        problem = DEFAULT_REGISTRY.problem("ex50", n_train=150,
                                           n_valid=150, n_test=150)
        result = get_flow("team01").run_detailed(problem)
        assert not result.short_circuited
        stages = {c.stage for c in result.candidates}
        assert {"espresso", "lutnet-beam", "forests"} <= stages

    def test_short_circuit_flagged(self):
        parity = DEFAULT_REGISTRY.problem("ex74", n_train=200,
                                          n_valid=200, n_test=200)
        result = get_flow("team07").run_detailed(parity)
        assert result.short_circuited
        assert result.solution.method == "team07:match"


class TestFlowObject:
    def test_flow_is_callable_with_contract(self, small_problem):
        flow = get_flow("team10")
        assert flow(small_problem).method == flow.run(small_problem).method

    def test_params_for_returns_copy(self):
        flow = get_flow("team01")
        params = flow.params_for("small")
        params["forest_sizes"] = ()
        assert flow.params_for("small")["forest_sizes"] != ()

    def test_params_for_unknown_effort(self):
        with pytest.raises(KeyError, match="no effort"):
            get_flow("team01").params_for("huge")

    def test_empty_stages_rejected(self):
        with pytest.raises(ValueError, match="at least one stage"):
            Flow("x", team="t", efforts={"small": {}}, stages=())

    def test_duplicate_stage_names_rejected(self):
        stage = Stage("s", lambda ctx: None)
        with pytest.raises(ValueError, match="duplicate stage"):
            Flow("x", team="t", efforts={"small": {}},
                 stages=(stage, Stage("s", lambda ctx: None)))

    def test_finalize_spec_callable_optimize(self, rng):
        from repro.aig.aig import AIG

        spec = FinalizeSpec(optimize=lambda aig: False)
        aig = AIG(2)
        aig.set_output(aig.add_and(aig.input_lit(0), aig.input_lit(1)))
        out = spec.apply(aig, rng)
        assert out.truth_tables() == aig.truth_tables()

    def test_custom_flow_end_to_end(self, scratch_flow, small_problem):
        """The README registration example, as a test: register, run
        through the registry, run through the contest runner."""
        from repro.runner import contest_tasks, run_contest_tasks

        solution = resolve_spec("scratch-flow")(small_problem)
        assert isinstance(solution, Solution)
        assert solution.method == "scratch-flow:const0"
        run = run_contest_tasks(contest_tasks(
            [74], ["scratch-flow"], n_train=32, n_valid=32, n_test=32))
        assert set(run.scores_by_team) == {"scratch-flow"}
