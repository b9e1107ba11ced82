"""Tests for repro.sched: features, harvesting, policies, scheduling."""

import numpy as np
import pytest

from repro.aig.aig import AIG
from repro.aig.aiger import dumps_aag, loads_aag
from repro.aig.cec import check_equivalence
from repro.flows import REGISTRY, resolve_spec
from repro.sched import (
    FEATURE_NAMES,
    EpsilonGreedyBandit,
    GreedyPolicy,
    PASS_NAMES,
    default_policy,
    extract_features,
    harvest_circuit,
    load_policy,
    load_tuples,
    save_policy,
    schedule_opt,
    train_policy,
    tuples_to_jsonl,
)
from repro.sched.features import N_FEATURES
from repro.sim import reference_simulate_packed_all
from repro.utils.rng import rng_for
from tests.conftest import random_aig


class TestFeatures:
    def test_schema_shape(self):
        aig = random_aig(8, 60, seed=3)
        vec = extract_features(aig)
        assert vec.shape == (N_FEATURES,)
        assert len(FEATURE_NAMES) == N_FEATURES
        assert vec.dtype == np.float64
        assert np.isfinite(vec).all()

    def test_deterministic_across_instances(self):
        a = random_aig(10, 80, seed=7)
        b = loads_aag(dumps_aag(a))
        assert extract_features(a).tobytes() == extract_features(b).tobytes()

    def test_cache_hit_and_invalidation(self):
        aig = random_aig(6, 40, seed=1)
        first = extract_features(aig)
        assert extract_features(aig) is first  # version unchanged: cached
        lits = aig.input_lits()
        aig.add_and(lits[0], lits[1])
        second = extract_features(aig)
        assert second is not first

    def test_backends_agree(self, monkeypatch):
        """The engine and the reference oracle give the same feature bytes."""
        text = dumps_aag(random_aig(12, 120, seed=11))
        # Fresh instance per simulator: the per-AIG cache is keyed by
        # structural version only, so reuse would mask drift.
        engine = extract_features(loads_aag(text)).tobytes()
        monkeypatch.setattr(
            AIG, "simulate_packed_all", reference_simulate_packed_all
        )
        oracle = extract_features(loads_aag(text)).tobytes()
        assert engine == oracle

    def test_trivial_graphs(self):
        empty = AIG(4)
        empty.set_output(0)  # constant false
        vec = extract_features(empty)
        assert vec.shape == (N_FEATURES,)
        assert np.isfinite(vec).all()


class TestHarvest:
    def test_probes_every_pass_each_step(self):
        aig = random_aig(8, 60, seed=5)
        tuples = harvest_circuit(aig, key="k", horizon=2)
        step0 = [t["pass"] for t in tuples if t["step"] == 0]
        assert step0 == list(PASS_NAMES)
        for t in tuples:
            assert t["key"] == "k"
            assert len(t["features"]) == N_FEATURES
            assert t["size_before"] >= 0 and t["size_after"] >= 0

    def test_jsonl_byte_deterministic(self):
        text = dumps_aag(random_aig(9, 70, seed=13))
        one = tuples_to_jsonl(harvest_circuit(loads_aag(text), "a", 2))
        two = tuples_to_jsonl(harvest_circuit(loads_aag(text), "a", 2))
        assert one == two

    def test_jsonl_round_trip(self, tmp_path):
        tuples = harvest_circuit(random_aig(7, 50, seed=2), "rt", 1)
        path = tmp_path / "t.jsonl"
        path.write_text(tuples_to_jsonl(tuples), encoding="utf-8")
        assert load_tuples(path) == tuples


class TestPolicy:
    def _tuples(self):
        return harvest_circuit(random_aig(8, 60, seed=5), key="t", horizon=2)

    def test_train_save_load_round_trip(self, tmp_path):
        policy = train_policy(self._tuples())
        path = tmp_path / "p.json"
        save_policy(policy, path)
        loaded = load_policy(path)
        phi = extract_features(random_aig(6, 30, seed=9))
        assert policy.predict(phi) == loaded.predict(phi)

    def test_train_rejects_empty(self):
        with pytest.raises(ValueError, match="no usable tuples"):
            train_policy([])

    def test_load_rejects_schema_mismatch(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": 99, "passes": {}}', encoding="utf-8")
        with pytest.raises(ValueError, match="retrain"):
            load_policy(path)

    def test_default_policy_ships(self):
        policy = default_policy()
        assert set(policy.weights) == set(PASS_NAMES)

    def test_greedy_exhausted_pool_returns_none(self):
        policy = default_policy()
        phi = extract_features(random_aig(5, 20, seed=4))
        assert policy.choose(phi, exclude=frozenset(PASS_NAMES)) is None

    def test_bandit_requires_rng_when_exploring(self):
        bandit = EpsilonGreedyBandit(epsilon=0.5)
        phi = extract_features(random_aig(5, 20, seed=4))
        with pytest.raises(ValueError, match="seeded rng"):
            bandit.choose(phi, rng=None)

    def test_bandit_updates_move_estimates(self):
        bandit = EpsilonGreedyBandit(epsilon=0.0)
        phi = extract_features(random_aig(5, 20, seed=4))
        before = bandit.predict(phi)["balance"]
        for _ in range(5):
            bandit.update("balance", phi, 1.0)
        assert bandit.predict(phi)["balance"] > before


class TestScheduleOpt:
    def test_never_larger_and_equivalent(self):
        aig = random_aig(10, 150, seed=21)
        cone = aig.extract_cone()
        out, history = schedule_opt(cone, default_policy(), budget=10)
        assert out.num_ands <= cone.num_ands
        assert len(history) <= 10
        assert set(history) <= set(PASS_NAMES)
        ok, cex = check_equivalence(cone, out)
        assert ok, f"scheduling broke equivalence: {cex}"

    def test_zero_budget_is_identity(self):
        cone = random_aig(8, 60, seed=3).extract_cone()
        out, history = schedule_opt(cone, default_policy(), budget=0)
        assert history == []
        assert out.num_ands == cone.num_ands

    def test_negative_budget_raises(self):
        with pytest.raises(ValueError, match="budget"):
            schedule_opt(
                random_aig(4, 10, seed=1), default_policy(), budget=-1
            )

    def test_bandit_schedule_is_seed_deterministic(self):
        text = dumps_aag(random_aig(9, 100, seed=17))

        def run():
            bandit = EpsilonGreedyBandit(
                prior=default_policy(), epsilon=0.3
            )
            return schedule_opt(
                loads_aag(text),
                bandit,
                budget=8,
                rng=rng_for("test-sched", 0),
            )

        out1, hist1 = run()
        out2, hist2 = run()
        assert hist1 == hist2
        assert dumps_aag(out1) == dumps_aag(out2)


class TestLearnedFlows:
    def test_registered(self):
        names = REGISTRY.names()
        assert "learned" in names and "learned-greedy" in names

    def test_unknown_override_suggests(self):
        with pytest.raises(ValueError, match="did you mean budget"):
            resolve_spec("learned:buget=20")

    def test_greedy_flow_runs(self, small_problem):
        flow = resolve_spec("learned-greedy:budget=4")
        result = flow(small_problem, effort="small", master_seed=0)
        assert result.aig.num_ands <= 5000
        detailed = REGISTRY.get("learned-greedy").run_detailed(
            small_problem, effort="small", master_seed=0
        )
        assert detailed.candidates
        for cand in detailed.candidates:
            passes = cand.provenance.get("passes")
            assert passes is not None
            assert set(passes) <= set(PASS_NAMES) | {"approx"}
