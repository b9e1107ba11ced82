"""The problem registry: golden byte-identity, cache bounds, selectors.

The registry replaced a hardcoded tuple of the 100 paper benchmarks;
these tests pin the three promises of that refactor:

1. **Byte identity** — all 100 paper benchmarks sample exactly the
   bytes the pre-registry code sampled (golden fingerprints captured
   from the old implementation), through both the runner's dataset
   fingerprint and the registry-direct path.
2. **Bounded laziness** — describing specs builds nothing; heavy
   generator state (balanced cones, image models) lives in one
   explicit, size-bounded, clearable per-process cache.
3. **Uniform addressing** — names, indices, family spec strings,
   globs and manifest files all resolve through one selector with
   helpful near-match errors.
"""

import json
import multiprocessing
from pathlib import Path

import pytest

from repro.contest import (
    DEFAULT_REGISTRY,
    MaterialCache,
    clear_cache,
)
from repro.contest.registry import (
    GeneratorFamily,
    ProblemRegistry,
    canonical_spec_string,
    parse_spec_string,
)
from repro.runner import dataset_fingerprint

GOLDEN = Path(__file__).parent / "golden" / "problem_fingerprints.json"


def _registry_fingerprint(name, n_train, n_valid, n_test, master_seed):
    """Fingerprint via the registry-direct path."""
    import hashlib

    import numpy as np

    problem = DEFAULT_REGISTRY.problem(
        name, n_train=n_train, n_valid=n_valid, n_test=n_test,
        master_seed=master_seed,
    )
    digest = hashlib.sha256()
    for ds in (problem.train, problem.valid, problem.test):
        digest.update(np.ascontiguousarray(ds.X).tobytes())
        digest.update(np.ascontiguousarray(ds.y).tobytes())
    return digest.hexdigest()


class TestGoldenFingerprints:
    """The refactor's anchor: captured from the pre-registry code."""

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN.read_text())

    def test_all_100_paper_benchmarks_byte_identical(self, golden):
        g = golden["fingerprints"]
        mismatched = []
        for name, want in g["values"].items():
            idx = int(name[2:])
            got = dataset_fingerprint(
                idx, g["n_train"], g["n_valid"], g["n_test"],
                master_seed=g["master_seed"],
            )
            if got != want:
                mismatched.append(name)
        assert not mismatched, (
            f"{len(mismatched)} benchmark(s) drifted from the "
            f"pre-registry bytes: {mismatched}"
        )

    def test_alt_sizes_and_seed_byte_identical(self, golden):
        g = golden["alt"]
        for name, want in g["values"].items():
            idx = int(name[2:])
            assert dataset_fingerprint(
                idx, g["n_train"], g["n_valid"], g["n_test"],
                master_seed=g["master_seed"],
            ) == want, name

    def test_registry_direct_path_matches_shim(self, golden):
        # The golden bytes were captured through the index-addressed
        # suite interface the registry replaced.
        g = golden["alt"]
        for name, want in g["values"].items():
            assert _registry_fingerprint(
                name, g["n_train"], g["n_valid"], g["n_test"],
                g["master_seed"],
            ) == want, name

    def test_string_and_index_tasks_sample_identically(self, golden):
        g = golden["alt"]
        name = next(iter(g["values"]))
        assert dataset_fingerprint(
            name, g["n_train"], g["n_valid"], g["n_test"],
            master_seed=g["master_seed"],
        ) == g["values"][name]


class TestPaperGrid:
    def test_registry_exposes_the_paper_grid(self):
        suite = [DEFAULT_REGISTRY.by_index(i) for i in range(100)]
        assert [s.index for s in suite] == list(range(100))
        assert suite[74].name == "ex74"
        assert suite[74].n_inputs == 16
        for bad in (-1, 100):
            with pytest.raises(IndexError, match="out of range"):
                DEFAULT_REGISTRY.by_index(bad)

    def test_materialized_slots_match_family_kind(self):
        parity = DEFAULT_REGISTRY.materialize("ex74")
        assert parity.label_fn is not None and parity.sampler is None
        mnist = DEFAULT_REGISTRY.materialize("ex80")
        assert mnist.sampler is not None and mnist.label_fn is None

    def test_describing_the_suite_materializes_nothing(self):
        clear_cache()
        specs = DEFAULT_REGISTRY.select("ex*")
        assert len(specs) == 100 and all(s.description for s in specs)
        assert len(DEFAULT_REGISTRY.cache) == 0


class TestMaterialCache:
    """Satellite 1: explicit, clearable, size-bounded registry cache."""

    def test_bounded_with_lru_eviction(self):
        cache = MaterialCache(maxsize=3)
        for i in range(5):
            cache.get(("k", i), lambda i=i: i * 10)
        assert len(cache) == 3
        stats = cache.stats()
        assert stats["builds"] == 5 and stats["evictions"] == 2
        # Oldest entries went first; the newest survive.
        assert ("k", 4) in cache.keys() and ("k", 0) not in cache.keys()

    def test_hit_refreshes_recency(self):
        cache = MaterialCache(maxsize=2)
        cache.get(("a",), lambda: 1)
        cache.get(("b",), lambda: 2)
        cache.get(("a",), lambda: 1)  # refresh a
        cache.get(("c",), lambda: 3)  # evicts b, not a
        assert ("a",) in cache.keys() and ("b",) not in cache.keys()

    def test_clear(self):
        cache = MaterialCache(maxsize=4)
        cache.get(("x",), lambda: object())
        cache.clear()
        assert len(cache) == 0

    def test_registry_cache_is_bounded_over_full_sweep(self):
        """Materializing far more specs than the cache holds must not
        grow the cache past its bound (the old lru_cache'd suite pinned
        everything forever)."""
        clear_cache()
        maxsize = DEFAULT_REGISTRY.cache.maxsize
        # Cheap deterministic specs, more than the cache can hold.
        for width in range(2, maxsize + 10):
            spec = DEFAULT_REGISTRY.get(f"comparator:width={width}")
            DEFAULT_REGISTRY.materialize(spec)
        assert len(DEFAULT_REGISTRY.cache) <= maxsize
        assert DEFAULT_REGISTRY.cache.stats()["evictions"] > 0
        clear_cache()
        assert len(DEFAULT_REGISTRY.cache) == 0

    def test_repeated_materialization_hits_cache(self):
        clear_cache()
        spec = DEFAULT_REGISTRY.get("ex74")
        first = DEFAULT_REGISTRY.materialize(spec)
        before = DEFAULT_REGISTRY.cache.stats()["builds"]
        second = DEFAULT_REGISTRY.materialize(spec)
        assert DEFAULT_REGISTRY.cache.stats()["builds"] == before
        assert first is second


class TestSelectors:
    def test_names_indices_and_specs(self):
        specs = DEFAULT_REGISTRY.select(["ex74", 75, "adder:width=4"])
        assert [s.name for s in specs] == \
            ["ex74", "ex75", "adder:bit=4,width=4"]
        passthrough = DEFAULT_REGISTRY.select([specs[2]])
        assert passthrough == [specs[2]]

    def test_globs_over_names_families_and_categories(self):
        adders = DEFAULT_REGISTRY.select(["adder*"])
        assert len(adders) == 10  # ex00..ex09
        ex8x = DEFAULT_REGISTRY.select(["ex8?"])
        assert [s.name for s in ex8x] == [f"ex8{i}" for i in range(10)]

    def test_comma_joined_patterns(self):
        specs = DEFAULT_REGISTRY.select(["adder*,ex8?"])
        assert len(specs) == 20

    def test_selection_deduplicates_preserving_order(self):
        specs = DEFAULT_REGISTRY.select(["ex74", "parity*", 74])
        assert [s.name for s in specs] == ["ex74"]

    def test_manifest_file(self, tmp_path):
        manifest = tmp_path / "suite.txt"
        manifest.write_text(
            "# tier-1 mini suite\n"
            "ex74\n"
            "adder:width=4\n"
            "\n"
            "ex8?\n"
        )
        specs = DEFAULT_REGISTRY.select([f"@{manifest}"])
        assert [s.name for s in specs[:2]] == \
            ["ex74", "adder:bit=4,width=4"]
        assert len(specs) == 12

    def test_near_match_error(self):
        with pytest.raises(KeyError) as exc:
            DEFAULT_REGISTRY.get("ex9a")
        message = str(exc.value)
        assert "ex9" in message and "did you mean" in message

    def test_unknown_family_lists_families(self):
        with pytest.raises(KeyError, match="families"):
            DEFAULT_REGISTRY.get("addr:width=4")

    def test_bad_index_raises_index_error(self):
        with pytest.raises(IndexError, match="out of range"):
            DEFAULT_REGISTRY.by_index(100)


class TestFamilies:
    def test_canonical_names_are_spelling_invariant(self):
        a = DEFAULT_REGISTRY.get("adder:width=4,bit=4")
        b = DEFAULT_REGISTRY.get("adder:bit=4,width=4")
        assert a == b and a.name == "adder:bit=4,width=4"

    def test_required_parameter_enforced(self):
        with pytest.raises(ValueError, match="requires parameter"):
            DEFAULT_REGISTRY.get("adder")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ValueError, match="no parameter"):
            DEFAULT_REGISTRY.get("adder:width=4,depth=2")

    def test_duplicate_parameter_rejected(self):
        """One grammar with flow specs: a key given twice is an error,
        not a silent last-one-wins."""
        with pytest.raises(ValueError, match="duplicate key 'width'"):
            DEFAULT_REGISTRY.get("adder:width=8,width=9")

    def test_spec_keywords_are_not_parameters(self):
        for text in ("adder:width=4,name=ex74", "adder:width=4,index=3",
                     "adder:width=4,category=image"):
            with pytest.raises(ValueError, match="no parameter"):
                DEFAULT_REGISTRY.get(text)

    def test_bad_parameter_type_rejected(self):
        with pytest.raises(ValueError, match="not a valid int"):
            DEFAULT_REGISTRY.get("adder:width=four")

    def test_paper_specs_carry_indices_generated_do_not(self):
        assert DEFAULT_REGISTRY.get("ex00").index == 0
        assert DEFAULT_REGISTRY.get("adder:width=4").index is None

    def test_spec_string_round_trips(self):
        spec = DEFAULT_REGISTRY.get("cone:inputs=20,seed=3")
        head, overrides = parse_spec_string(spec.name)
        assert head == "cone"
        assert DEFAULT_REGISTRY.families[head].spec(**overrides) == spec
        assert canonical_spec_string(
            spec.family, dict(spec.params)) == spec.name

    def test_perturbed_differs_from_base(self):
        import numpy as np

        base = DEFAULT_REGISTRY.materialize(DEFAULT_REGISTRY.get("ex74"))
        pert = DEFAULT_REGISTRY.materialize(
            DEFAULT_REGISTRY.get("perturbed:base=ex74"))
        rng = np.random.default_rng(0)
        X = rng.integers(0, 2, size=(512, 16)).astype(np.uint8)
        y0, y1 = base.label_fn(X), pert.label_fn(X)
        assert y0.shape == y1.shape
        assert 0 < int((y0 != y1).sum()) < 512  # noisy, not scrambled

    def test_perturbed_rejects_generative_base(self):
        with pytest.raises(ValueError, match="deterministic"):
            DEFAULT_REGISTRY.materialize(
                DEFAULT_REGISTRY.get("perturbed:base=ex80"))

    def test_composed_xors_two_benchmarks(self):
        import numpy as np

        spec = DEFAULT_REGISTRY.get("composed:a=ex74,b=t481")
        assert spec.n_inputs == 16
        mat = DEFAULT_REGISTRY.materialize(spec)
        a = DEFAULT_REGISTRY.materialize(DEFAULT_REGISTRY.get("ex74"))
        b = DEFAULT_REGISTRY.materialize(DEFAULT_REGISTRY.get("t481"))
        rng = np.random.default_rng(1)
        X = rng.integers(0, 2, size=(256, 16)).astype(np.uint8)
        assert np.array_equal(
            mat.label_fn(X), a.label_fn(X) ^ b.label_fn(X[:, :16]))

    def test_swept_cone_density_changes_function(self):
        import numpy as np

        lo = DEFAULT_REGISTRY.materialize(
            DEFAULT_REGISTRY.get("cone:inputs=16,density=1"))
        hi = DEFAULT_REGISTRY.materialize(
            DEFAULT_REGISTRY.get("cone:inputs=16,density=8"))
        rng = np.random.default_rng(2)
        X = rng.integers(0, 2, size=(512, 16)).astype(np.uint8)
        assert not np.array_equal(lo.label_fn(X), hi.label_fn(X))


class TestGeneratedDeterminism:
    """Generated specs get the paper benchmarks' reproducibility."""

    @pytest.mark.parametrize(
        "name", ["adder:width=6", "cone:inputs=18,seed=4", "parity:inputs=10"]
    )
    def test_same_spec_same_bytes_in_process(self, name):
        assert _registry_fingerprint(name, 40, 24, 16, 3) == \
            _registry_fingerprint(name, 40, 24, 16, 3)

    def test_spawned_worker_sees_identical_data(self):
        name = "cone:inputs=18,seed=4"
        parent = dataset_fingerprint(name, 40, 24, 16, master_seed=3)
        ctx = multiprocessing.get_context("spawn")
        with ctx.Pool(1) as pool:
            child = pool.apply(dataset_fingerprint, (name, 40, 24, 16, 3))
        assert child == parent

    def test_generated_stream_independent_of_paper_stream(self):
        """A generated spec with the same parameters as a paper
        benchmark is a *different* named stream (name-derived seed),
        not an alias — ex74 keeps its historical index-derived bytes."""
        paper = dataset_fingerprint(74, 40, 24, 16, master_seed=0)
        generated = dataset_fingerprint(
            "parity:inputs=16", 40, 24, 16, master_seed=0)
        assert paper != generated


class TestCustomRegistry:
    def test_register_family_and_named_spec(self):
        reg = ProblemRegistry()
        family = GeneratorFamily(
            name="const",
            category="trivial",
            description="constant zero",
            params={"inputs": (int, 4)},
            n_inputs=lambda p: p["inputs"],
            build=lambda p, cache: __import__(
                "repro.contest.registry", fromlist=["Materialized"]
            ).Materialized(label_fn=lambda X: X[:, 0] * 0),
        )
        reg.register_family(family)
        spec = reg.get("const:inputs=3")
        assert spec.n_inputs == 3
        reg.register(family.spec(name="zero3", inputs=3))
        assert reg.get("zero3").family == "const"
        assert "zero3" in reg.names()

    def test_duplicate_name_rejected(self):
        reg = ProblemRegistry()
        spec = DEFAULT_REGISTRY.get("ex74")
        reg.families["parity"] = DEFAULT_REGISTRY.families["parity"]
        reg.register(spec)
        with pytest.raises(ValueError, match="already registered"):
            reg.register(spec)
