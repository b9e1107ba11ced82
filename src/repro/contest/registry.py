"""Problem registry: generator families behind every benchmark.

The contest's closed world of 100 hardcoded benchmarks becomes an open
one: a :class:`ProblemSpec` names a *parameterized* instance of a
registered :class:`GeneratorFamily` (``adder:width=48``,
``cone:flavour=mixed,inputs=120,seed=7``), and datasets materialize
lazily per task — a 500-benchmark grid is 500 small spec objects, not
500 resident datasets.  The paper's grid survives as 100 *named*
specs (``ex00``..``ex99``) whose sampling is byte-identical to the
pre-registry implementation, pinned by the golden fingerprint tests.

Three layers:

``GeneratorFamily``
    A named, parameterized benchmark generator: parameter schema with
    defaults, an ``n_inputs`` formula, and a ``build`` hook returning
    the materialized label function or sampler.  The ten paper
    categories are ported as families accepting arbitrary widths and
    input counts, plus swept families the paper never had
    (``perturbed``, ``composed``).

``ProblemSpec``
    One concrete benchmark: family + resolved parameters + a
    deterministic seed derivation (paper benchmarks keep their
    historical ``("problem", index)`` stream; generated ones derive
    from their canonical name, so every spec is reproducible from its
    name alone).

``ProblemRegistry``
    Name -> spec lookup, family spec-string parsing, glob selection
    over names/families/categories (``"adder*"``, ``"ex8?"``), suite
    manifest files (``@path``), and a **bounded, clearable**
    materialization cache — heavy generator state (balanced random
    cones, image models) is pinned per-process only up to the cache
    bound, never for process lifetime.
"""

from __future__ import annotations

import fnmatch
from collections import OrderedDict
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, cast

import numpy as np

from repro.contest import functions as fns
from repro.contest.problem import LearningProblem
from repro.ml.dataset import Dataset
from repro.utils.rng import rng_for
from repro.utils.suggest import did_you_mean

#: Sentinel: a family parameter with no default must be given.
REQUIRED = object()


# ---------------------------------------------------------------------------
# Materialization cache
# ---------------------------------------------------------------------------


class MaterialCache:
    """Bounded, clearable per-process cache of generator state.

    Keys are hashable tuples chosen by the families (a spec's
    ``(family, params)``, or a shared component like one image model
    serving ten benchmarks).  LRU eviction bounds the heavy state —
    balanced random cones, prototype image models — that the
    pre-registry suite tuple pinned for process lifetime in every
    worker.
    """

    def __init__(self, maxsize: int = 32):
        if maxsize < 1:
            raise ValueError("maxsize must be >= 1")
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, object] = OrderedDict()
        self.hits = 0
        self.builds = 0
        self.evictions = 0

    def get(self, key: tuple, builder: Callable[[], object]) -> object:
        cached = self._entries.get(key)
        if cached is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return cached
        self.builds += 1
        value = builder()
        self._entries[key] = value
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
        return value

    def clear(self) -> None:
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[tuple]:
        return list(self._entries)

    def stats(self) -> dict[str, int]:
        return {
            "entries": len(self._entries),
            "maxsize": self.maxsize,
            "hits": self.hits,
            "builds": self.builds,
            "evictions": self.evictions,
        }


# ---------------------------------------------------------------------------
# Specs and families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Materialized:
    """A built generator: exactly one of label_fn / sampler is set."""

    label_fn: Callable[[np.ndarray], np.ndarray] | None = None
    sampler: Callable | None = None

    def sample(
        self, n_inputs: int, n: int, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        if self.sampler is not None:
            return self.sampler(n, rng)
        label_fn = self.label_fn
        if label_fn is None:
            raise ValueError(
                "materialized generator has neither label_fn nor sampler"
            )
        X = unique_uniform_rows(n_inputs, n, rng)
        return X, label_fn(X)


@dataclass(frozen=True)
class ProblemSpec:
    """One concrete benchmark: a family instance with resolved params.

    ``index`` is set only for the 100 paper benchmarks; it keeps their
    historical RNG stream (``rng_for("problem", index, seed)``) so the
    registry reproduces the pre-registry samples byte-identically.
    Generated specs derive their stream from the canonical name
    instead — any process can rebuild the exact datasets from the
    name alone.
    """

    name: str
    family: str
    params: tuple[tuple[str, object], ...]
    n_inputs: int
    category: str
    description: str
    index: int | None = None

    @property
    def params_dict(self) -> dict[str, object]:
        return dict(self.params)

    @property
    def seed_part(self) -> int | str:
        return self.index if self.index is not None else self.name


@dataclass(frozen=True)
class GeneratorFamily:
    """A parameterized benchmark generator.

    ``params`` maps parameter name to ``(type, default)``; a default of
    :data:`REQUIRED` must be supplied.  ``n_inputs`` computes the input
    count from resolved params without materializing anything (grids
    stay cheap to *describe*).  ``build`` returns the
    :class:`Materialized` generator; it receives the cache so shared
    components (e.g. one image model behind ten comparisons) can be
    reused across specs.
    """

    name: str
    category: str
    description: str
    params: Mapping[str, tuple[type, object]]
    n_inputs: Callable[[dict[str, Any]], int]
    build: Callable[[dict[str, Any], MaterialCache], Materialized]
    describe: Callable[[dict[str, Any]], str] | None = field(
        default=None
    )
    #: Optional post-resolution hook for defaults that depend on other
    #: parameters (e.g. adder ``bit`` defaulting to the MSB of
    #: ``width``).  Runs before the canonical name is derived, so the
    #: name always shows fully resolved parameters.
    finalize: Callable[[dict[str, Any]], dict[str, Any]] | None = None

    def param_summary(self) -> list[tuple[str, object | None]]:
        """``(name, default)`` pairs for display; required parameters
        (no default) appear with ``None``."""
        return [
            (key, None if default is REQUIRED else default)
            for key, (_, default) in self.params.items()
        ]

    def resolve_params(self, overrides: Mapping[str, object]) -> dict[str, Any]:
        resolved: dict[str, Any] = {}
        for key, (kind, default) in self.params.items():
            if key in overrides:
                raw = overrides[key]
                try:
                    resolved[key] = kind(raw) if not isinstance(raw, kind) \
                        else raw
                except (TypeError, ValueError):
                    raise ValueError(
                        f"family {self.name!r}: parameter {key}={raw!r} "
                        f"is not a valid {kind.__name__}"
                    ) from None
            elif default is REQUIRED:
                raise ValueError(
                    f"family {self.name!r} requires parameter {key!r} "
                    f"(e.g. {self.name}:{key}=...)"
                )
            else:
                resolved[key] = default
        unknown = set(overrides) - set(self.params)
        if unknown:
            raise ValueError(
                f"family {self.name!r} has no parameter(s) "
                f"{sorted(unknown)}; accepted: {sorted(self.params)}"
            )
        if self.finalize is not None:
            resolved = self.finalize(resolved)
        return resolved

    def spec(self, *, index: int | None = None,
             name: str | None = None,
             category: str | None = None,
             **overrides) -> ProblemSpec:
        """A concrete :class:`ProblemSpec` of this family.

        Without ``name`` the spec gets its canonical generated name:
        ``family:key=value,...`` over every resolved parameter in
        sorted order, so two spellings of the same instance collapse
        to one identity (and one cache entry, one RNG stream).
        """
        resolved = self.resolve_params(overrides)
        params = tuple(sorted(resolved.items()))
        if name is None:
            name = canonical_spec_string(self.name, resolved)
        n_inputs = int(self.n_inputs(resolved))
        if n_inputs < 1:
            raise ValueError(f"{name!r} has {n_inputs} inputs")
        if self.describe is not None:
            description = self.describe(resolved)
        else:
            description = self.description
        return ProblemSpec(
            name=name,
            family=self.name,
            params=params,
            n_inputs=n_inputs,
            category=category if category is not None else self.category,
            description=description,
            index=index,
        )


def canonical_spec_string(family: str, params: Mapping[str, object]) -> str:
    """The one true name of a generated family instance."""
    if not params:
        return family
    joined = ",".join(f"{k}={v}" for k, v in sorted(params.items()))
    return f"{family}:{joined}"


def parse_spec_string(text: str) -> tuple[str, dict[str, str]]:
    """``"name:key=value,key=value"`` -> ``("name", {key: value})``.

    The one grammar of problem specs (``adder:width=48,bit=47``) and
    flow specs (``team01:effort=full``).  Whitespace around the name,
    keys and values is stripped; an empty name, a part without ``=``,
    an empty key or a key given twice raises ``ValueError``, so a typo
    fails loudly instead of one spelling silently winning.
    """
    head, _, tail = text.partition(":")
    name = head.strip()
    if not name:
        raise ValueError(f"empty name in spec {text!r}")
    overrides: dict[str, str] = {}
    if tail:
        for part in tail.split(","):
            key, eq, value = part.partition("=")
            key = key.strip()
            if not eq or not key:
                raise ValueError(
                    f"malformed part {part!r} in spec {text!r} "
                    f"(expected name:key=value[,key=value...])"
                )
            if key in overrides:
                raise ValueError(f"duplicate key {key!r} in spec {text!r}")
            overrides[key] = value.strip()
    return name, overrides


# ---------------------------------------------------------------------------
# Sampling helpers (moved from suite.py; byte-identical behaviour)
# ---------------------------------------------------------------------------


def unique_uniform_rows(
    n_inputs: int, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Uniform random distinct input rows.

    For wide inputs collisions are essentially impossible and we skip
    the dedup; for narrow inputs we sample integers without
    replacement from the full space when it is small enough.
    """
    space = 2.0**n_inputs
    if n_inputs <= 40:
        if space <= 4 * n:
            chosen = rng.choice(int(space), size=min(n, int(space)),
                                replace=False)
        else:
            seen = set()
            while len(seen) < n:
                draw = rng.integers(0, int(space), size=n)
                for v in draw:
                    seen.add(int(v))
                    if len(seen) == n:
                        break
            chosen = np.fromiter(seen, dtype=np.int64, count=n)
        # Python set iteration leaks value order for small ints, which
        # would skew the train/valid/test split; shuffle explicitly.
        chosen = chosen[rng.permutation(len(chosen))]
        X = np.zeros((len(chosen), n_inputs), dtype=np.uint8)
        for i in range(n_inputs):
            X[:, i] = (chosen >> i) & 1
        return X
    return rng.integers(0, 2, size=(n, n_inputs)).astype(np.uint8)


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


class ProblemRegistry:
    """Named problems + generator families + the material cache."""

    def __init__(self, cache_size: int = 32):
        self.families: dict[str, GeneratorFamily] = {}
        self._named: OrderedDict[str, ProblemSpec] = OrderedDict()
        self.cache = MaterialCache(cache_size)

    # -- registration ------------------------------------------------

    def register_family(self, family: GeneratorFamily) -> GeneratorFamily:
        if family.name in self.families:
            raise ValueError(f"family {family.name!r} already registered")
        self.families[family.name] = family
        return family

    def register(self, spec: ProblemSpec) -> ProblemSpec:
        if spec.name in self._named:
            raise ValueError(f"problem {spec.name!r} already registered")
        self._named[spec.name] = spec
        return spec

    # -- lookup ------------------------------------------------------

    def names(self) -> list[str]:
        return list(self._named)

    def family_names(self) -> list[str]:
        return sorted(self.families)

    def __contains__(self, name: str) -> bool:
        return name in self._named

    def by_index(self, index: int) -> ProblemSpec:
        """The paper benchmark at suite ``index`` (``ex{index:02d}``)."""
        name = f"ex{index:02d}"
        spec = self._named.get(name)
        if spec is None or spec.index != index:
            raise IndexError(
                f"benchmark index {index} out of range (no registered "
                f"{name!r})"
            )
        return spec

    def get(self, name: str | ProblemSpec) -> ProblemSpec:
        """One spec: a registered name or a family spec string."""
        if isinstance(name, ProblemSpec):
            return name
        named = self._named.get(name)
        if named is not None:
            return named
        head = name.partition(":")[0]
        if head in self.families:
            _, overrides = parse_spec_string(name)
            family = self.families[head]
            # Resolved first, so ``index=``, ``name=`` or ``category=``
            # is rejected as an unknown parameter instead of reaching
            # spec()'s own keywords.
            family.resolve_params(overrides)
            return family.spec(**overrides)
        raise KeyError(self._unknown_message(name))

    def _unknown_message(self, name: str) -> str:
        pool = list(self._named) + list(self.families)
        hint = did_you_mean(name, pool)
        return (
            f"unknown benchmark {name!r}: not a registered problem, "
            f"family spec or glob (families: "
            f"{', '.join(self.family_names())}){hint}"
        )

    def select(
        self,
        patterns: str | Iterable[str | int | ProblemSpec],
    ) -> list[ProblemSpec]:
        """Resolve a benchmark selector into specs (order-preserving).

        Each pattern may be: a registered name (``ex42``), an integer
        suite index (``42``), a family spec string with parameters
        (``adder:width=48``), a glob over names / families /
        categories (``"adder*"``, ``"ex8?"``, ``"mnist-like"``), or
        ``@path`` — a *suite manifest* file holding one pattern per
        line (``#`` comments allowed).  A comma inside one pattern
        separates sub-patterns, except after a family head, where it
        separates parameters (``cone:inputs=64,seed=3`` is one spec).
        Duplicates collapse to the first occurrence.
        """
        if isinstance(patterns, (str, int)):
            patterns = [patterns]
        out: OrderedDict[str, ProblemSpec] = OrderedDict()
        for pattern in patterns:
            for spec in self._select_one(pattern):
                out.setdefault(spec.name, spec)
        return list(out.values())

    def _select_one(
        self, pattern: str | int | ProblemSpec,
        manifests: frozenset[Path] = frozenset(),
    ) -> list[ProblemSpec]:
        if isinstance(pattern, ProblemSpec):
            return [pattern]
        if isinstance(pattern, (int, np.integer)):
            return [self.by_index(int(pattern))]
        pattern = pattern.strip()
        if not pattern:
            return []
        if pattern.startswith("@"):
            return self._select_manifest(pattern[1:], manifests)
        head = pattern.partition(":")[0]
        if head in self.families:
            # Parameters may contain commas; the whole token is one spec.
            return [self.get(pattern)]
        if "," in pattern:
            specs: list[ProblemSpec] = []
            for part in pattern.split(","):
                specs.extend(self._select_one(part, manifests))
            return specs
        if pattern.lstrip("-").isdigit():
            return [self.by_index(int(pattern))]
        if pattern in self._named:
            return [self._named[pattern]]
        if any(ch in pattern for ch in "*?["):
            matches = [
                spec for spec in self._named.values()
                if fnmatch.fnmatchcase(spec.name, pattern)
                or fnmatch.fnmatchcase(spec.family, pattern)
                or fnmatch.fnmatchcase(spec.category, pattern)
            ]
            if not matches:
                raise KeyError(
                    f"benchmark glob {pattern!r} matches nothing "
                    f"(families: {', '.join(self.family_names())})"
                )
            return matches
        # Bare family/category name acts as a select-all for it.
        matches = [
            spec for spec in self._named.values()
            if spec.family == pattern or spec.category == pattern
        ]
        if matches:
            return matches
        raise KeyError(self._unknown_message(pattern))

    def _select_manifest(
        self, path: str, manifests: frozenset[Path]
    ) -> list[ProblemSpec]:
        """A suite manifest: one selector pattern per line.

        ``manifests`` are the files already being read, so a manifest
        that includes itself, directly or through others, is an error.
        """
        where = Path(path).resolve()
        if where in manifests:
            raise ValueError(f"suite manifest {path!r} includes itself")
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise ValueError(
                f"cannot read suite manifest {path!r}: {exc.strerror or exc}"
            ) from exc
        specs: list[ProblemSpec] = []
        for line in text.splitlines():
            line = line.split("#", 1)[0].strip()
            if line:
                specs.extend(self._select_one(line, manifests | {where}))
        return specs

    # -- materialization ---------------------------------------------

    def materialize(self, spec: str | ProblemSpec) -> Materialized:
        """The built generator for a spec (bounded-cache memoized)."""
        spec = self.get(spec)
        family = self.families[spec.family]
        resolved = spec  # bind for the closure after narrowing to a spec
        built = self.cache.get(
            ("materialized", spec.family, spec.params),
            lambda: family.build(resolved.params_dict, self.cache),
        )
        return cast(Materialized, built)

    def problem(
        self,
        spec: str | ProblemSpec,
        n_train: int = 6400,
        n_valid: int = 6400,
        n_test: int = 6400,
        master_seed: int = 0,
    ) -> LearningProblem:
        """Sample a train/validation/test triple for one spec.

        For deterministic label functions the three sets are disjoint
        in input space (split from one without-replacement draw);
        generative benchmarks use independent draws, like the
        contest's image data.  Paper benchmarks reproduce the
        pre-registry samples byte-for-byte.
        """
        spec = self.get(spec)
        material = self.materialize(spec)
        rng = rng_for("problem", spec.seed_part, master_seed)
        total = n_train + n_valid + n_test
        X, y = material.sample(spec.n_inputs, total, rng)
        train = Dataset(X[:n_train], y[:n_train])
        valid = Dataset(X[n_train : n_train + n_valid],
                        y[n_train : n_train + n_valid])
        test = Dataset(X[n_train + n_valid :], y[n_train + n_valid :])
        return LearningProblem(
            name=spec.name,
            category=spec.category,
            n_inputs=spec.n_inputs,
            train=train,
            valid=valid,
            test=test,
        )


# ---------------------------------------------------------------------------
# The built-in families (the ten paper categories, parameterized)
# ---------------------------------------------------------------------------


def _build_label(fn) -> Materialized:
    return Materialized(label_fn=fn)


def _adder(p, cache):
    return _build_label(fns.adder_bit(p["width"], p["bit"]))


def _divider(p, cache):
    part = p["part"]
    if part not in ("quotient", "remainder"):
        raise ValueError("divider part must be 'quotient' or 'remainder'")
    return _build_label(fns.divider_bit(p["width"], part))


def _multiplier(p, cache):
    return _build_label(fns.multiplier_bit(p["width"], p["bit"]))


def _comparator(p, cache):
    return _build_label(fns.comparator(p["width"]))


def _sqrt(p, cache):
    which = p["which"]
    if which not in ("lsb", "mid"):
        raise ValueError("sqrt which must be 'lsb' or 'mid'")
    return _build_label(fns.sqrt_bit(p["width"], which))


def _cone(p, cache):
    from repro.contest.randomlogic import random_cone_function

    flavour = p["flavour"]
    if flavour not in ("control", "mixed"):
        raise ValueError("cone flavour must be 'control' or 'mixed'")
    return _build_label(random_cone_function(
        p["inputs"], flavour, p["seed"], density=p["density"],
    ))


def _cordic(p, cache):
    return _build_label(fns.cordic_sign(output=p["output"]))


def _widesop(p, cache):
    return _build_label(fns.wide_sop_like(
        n_inputs=p["inputs"], n_cubes=p["cubes"],
        literals=p["literals"], seed=p["seed"],
    ))


def _t481(p, cache):
    return _build_label(fns.t481_like())


def _parity(p, cache):
    return _build_label(fns.parity(p["inputs"]))


def _symmetric(p, cache):
    return _build_label(fns.symmetric16(p["signature"]))


def _image_model(kind: str, cache: MaterialCache):
    from repro.contest.imagelike import cifar_like_model, mnist_like_model

    builder = mnist_like_model if kind == "mnist" else cifar_like_model
    return cache.get(("image-model", kind), builder)


def _image_pixels(kind: str) -> int:
    return 196 if kind == "mnist" else 256  # 14x14 / 16x16


def _image_family(kind: str):
    def build(p, cache):
        from repro.contest.imagelike import group_comparison_sampler

        model = _image_model(kind, cache)
        return Materialized(
            sampler=group_comparison_sampler(model, p["comparison"])
        )

    return build


def _perturbed(p, cache):
    """A standard function XOR a sparse seeded SOP: the base problem
    with a deterministic, structured 'label noise' overlay."""
    base = DEFAULT_REGISTRY.get(p["base"])
    base_material = DEFAULT_REGISTRY.materialize(base)
    if base_material.label_fn is None:
        raise ValueError(
            f"perturbed base {p['base']!r} must be a deterministic "
            f"label function, not a generative sampler"
        )
    noise = fns.wide_sop_like(
        n_inputs=base.n_inputs, n_cubes=p["cubes"],
        literals=p["literals"], seed=p["seed"],
    )
    base_fn = base_material.label_fn

    def fn(X: np.ndarray) -> np.ndarray:
        return (base_fn(X) ^ noise(X)).astype(np.uint8)

    fn.n_inputs = base.n_inputs
    fn.__name__ = f"perturbed_{base.name}"
    return _build_label(fn)


def _perturbed_inputs(p) -> int:
    return DEFAULT_REGISTRY.get(p["base"]).n_inputs


def _composed(p, cache):
    """XOR of two deterministic benchmarks over shared inputs (the
    wider operand's extra columns feed only the wider function)."""
    a = DEFAULT_REGISTRY.get(p["a"])
    b = DEFAULT_REGISTRY.get(p["b"])
    ma = DEFAULT_REGISTRY.materialize(a)
    mb = DEFAULT_REGISTRY.materialize(b)
    if ma.label_fn is None or mb.label_fn is None:
        raise ValueError(
            "composed operands must be deterministic label functions"
        )
    fa, fb = ma.label_fn, mb.label_fn
    na, nb = a.n_inputs, b.n_inputs

    def fn(X: np.ndarray) -> np.ndarray:
        return (fa(X[:, :na]) ^ fb(X[:, :nb])).astype(np.uint8)

    fn.n_inputs = max(na, nb)
    fn.__name__ = f"composed_{a.name}_{b.name}"
    return _build_label(fn)


def _composed_inputs(p) -> int:
    return max(DEFAULT_REGISTRY.get(p["a"]).n_inputs,
               DEFAULT_REGISTRY.get(p["b"]).n_inputs)


def _builtin_families() -> list[GeneratorFamily]:
    return [
        GeneratorFamily(
            name="adder", category="adder",
            description="output bit of a k-bit adder",
            params={"width": (int, REQUIRED), "bit": (int, -1)},
            n_inputs=lambda p: 2 * p["width"],
            build=_adder,
            describe=lambda p: (
                f"bit {p['bit']} of {p['width']}-bit adder"),
            finalize=lambda p: _default_bit(p, p["width"]),
        ),
        GeneratorFamily(
            name="divider", category="divider",
            description="quotient/remainder MSB of a k-bit divider",
            params={"width": (int, REQUIRED), "part": (str, "quotient")},
            n_inputs=lambda p: 2 * p["width"],
            build=_divider,
            describe=lambda p: (
                f"{p['part']} MSB of {p['width']}-bit divider"),
        ),
        GeneratorFamily(
            name="multiplier", category="multiplier",
            description="output bit of a k-bit multiplier",
            params={"width": (int, REQUIRED), "bit": (int, -1)},
            n_inputs=lambda p: 2 * p["width"],
            build=_multiplier,
            describe=lambda p: (
                f"bit {p['bit']} of {p['width']}-bit multiplier"),
            finalize=lambda p: _default_bit(p, 2 * p["width"] - 1),
        ),
        GeneratorFamily(
            name="comparator", category="comparator",
            description="k-bit comparator (a > b)",
            params={"width": (int, REQUIRED)},
            n_inputs=lambda p: 2 * p["width"],
            build=_comparator,
            describe=lambda p: f"{p['width']}-bit comparator (a > b)",
        ),
        GeneratorFamily(
            name="sqrt", category="sqrt",
            description="lsb/mid bit of a k-bit square-rooter",
            params={"width": (int, REQUIRED), "which": (str, "lsb")},
            n_inputs=lambda p: p["width"],
            build=_sqrt,
            describe=lambda p: (
                f"{p['which']} bit of {p['width']}-bit square-rooter"),
        ),
        GeneratorFamily(
            name="cone", category="randomlogic",
            description="balanced seeded random logic cone",
            params={
                "inputs": (int, REQUIRED),
                "flavour": (str, "control"),
                "seed": (int, 0),
                "density": (int, 3),
            },
            n_inputs=lambda p: p["inputs"],
            build=_cone,
            describe=lambda p: (
                f"balanced random {p['flavour']} cone, {p['inputs']} "
                f"inputs (density {p['density']}, seed {p['seed']})"),
        ),
        GeneratorFamily(
            name="cordic", category="mcnc-like",
            description="CORDIC sin/cos threshold comparison",
            params={"output": (str, "sin_ge")},
            n_inputs=lambda p: 23,
            build=_cordic,
        ),
        GeneratorFamily(
            name="widesop", category="mcnc-like",
            description="seeded wide two-level function",
            params={
                "inputs": (int, 38),
                "cubes": (int, 40),
                "literals": (int, 7),
                "seed": (int, 0),
            },
            n_inputs=lambda p: p["inputs"],
            build=_widesop,
            describe=lambda p: (
                f"wide SOP: {p['cubes']} cubes x {p['literals']} "
                f"literals over {p['inputs']} inputs (seed {p['seed']})"),
        ),
        GeneratorFamily(
            name="t481", category="mcnc-like",
            description="t481-like structured function",
            params={},
            n_inputs=lambda p: 16,
            build=_t481,
        ),
        GeneratorFamily(
            name="parity", category="mcnc-like",
            description="XOR of all inputs",
            params={"inputs": (int, 16)},
            n_inputs=lambda p: p["inputs"],
            build=_parity,
            describe=lambda p: f"{p['inputs']}-input parity",
        ),
        GeneratorFamily(
            name="symmetric", category="symmetric",
            description="symmetric function from its signature",
            params={"signature": (str, REQUIRED)},
            n_inputs=lambda p: len(p["signature"]) - 1,
            build=_symmetric,
            describe=lambda p: (
                f"{len(p['signature']) - 1}-input symmetric "
                f"{p['signature']}"),
        ),
        GeneratorFamily(
            name="mnist", category="mnist-like",
            description="MNIST-like group comparison",
            params={"comparison": (int, REQUIRED)},
            n_inputs=lambda p: _image_pixels("mnist"),
            build=_image_family("mnist"),
            describe=lambda p: f"MNIST-like groups {p['comparison']}",
        ),
        GeneratorFamily(
            name="cifar", category="cifar-like",
            description="CIFAR-like group comparison",
            params={"comparison": (int, REQUIRED)},
            n_inputs=lambda p: _image_pixels("cifar"),
            build=_image_family("cifar"),
            describe=lambda p: f"CIFAR-like groups {p['comparison']}",
        ),
        GeneratorFamily(
            name="perturbed", category="perturbed",
            description="standard function XOR sparse seeded SOP noise",
            params={
                "base": (str, REQUIRED),
                "cubes": (int, 8),
                "literals": (int, 6),
                "seed": (int, 0),
            },
            n_inputs=_perturbed_inputs,
            build=_perturbed,
            describe=lambda p: (
                f"{p['base']} perturbed by {p['cubes']} noise cubes "
                f"(seed {p['seed']})"),
        ),
        GeneratorFamily(
            name="composed", category="composed",
            description="XOR of two deterministic benchmarks",
            params={"a": (str, REQUIRED), "b": (str, REQUIRED)},
            n_inputs=_composed_inputs,
            build=_composed,
            describe=lambda p: f"{p['a']} XOR {p['b']}",
        ),
    ]


def _default_bit(p: dict[str, Any], msb: int) -> dict[str, Any]:
    """``bit=-1`` (the default) means the MSB for adder/multiplier."""
    out = dict(p)
    if out.get("bit", -1) < 0:
        out["bit"] = msb
    return out


# ---------------------------------------------------------------------------
# The paper's 100 named benchmarks (Table I), registered via families
# ---------------------------------------------------------------------------

ADDER_WIDTHS = (16, 32, 64, 128, 256)
DIVIDER_WIDTHS = (16, 32, 64, 128, 256)
MULTIPLIER_WIDTHS = (8, 16, 32, 64, 128)
COMPARATOR_WIDTHS = tuple(range(10, 101, 10))
SQRT_WIDTHS = (16, 32, 64, 128, 256)
CONE_INPUTS = (16, 32, 57, 83, 108, 134, 159, 185, 200, 24)


def _register_paper_suite(reg: ProblemRegistry) -> None:
    def add(index: int, family: str, category: str, **params) -> None:
        spec = reg.families[family].spec(
            index=index, name=f"ex{index:02d}", category=category,
            **params,
        )
        reg.register(spec)

    # ex00-09: two MSBs of adders.
    for i, k in enumerate(ADDER_WIDTHS):
        for j, bit in enumerate((k, k - 1)):  # MSB (carry), 2nd MSB
            add(2 * i + j, "adder", "adder", width=k, bit=bit)
    # ex10-19: divider quotient/remainder MSBs.
    for i, k in enumerate(DIVIDER_WIDTHS):
        for j, part in enumerate(("quotient", "remainder")):
            add(10 + 2 * i + j, "divider", "divider", width=k, part=part)
    # ex20-29: multiplier MSB and middle bit.
    for i, k in enumerate(MULTIPLIER_WIDTHS):
        for j, bit in enumerate((2 * k - 1, k - 1)):
            add(20 + 2 * i + j, "multiplier", "multiplier",
                width=k, bit=bit)
    # ex30-39: comparators.
    for i, k in enumerate(COMPARATOR_WIDTHS):
        add(30 + i, "comparator", "comparator", width=k)
    # ex40-49: square-rooter LSB / middle bit.
    for i, k in enumerate(SQRT_WIDTHS):
        for j, which in enumerate(("lsb", "mid")):
            add(40 + 2 * i + j, "sqrt", "sqrt", width=k, which=which)
    # ex50-59 / ex60-69: PicoJava-like and i10-like cones.
    for i, n in enumerate(CONE_INPUTS):
        add(50 + i, "cone", "picojava-like",
            inputs=n, flavour="control", seed=i)
    for i, n in enumerate(CONE_INPUTS):
        add(60 + i, "cone", "i10-like",
            inputs=n, flavour="mixed", seed=i)
    # ex70-74: MCNC singles.
    add(70, "cordic", "mcnc-like", output="sin_ge")
    add(71, "cordic", "mcnc-like", output="cos_ge")
    add(72, "widesop", "mcnc-like", seed=2)
    add(73, "t481", "mcnc-like")
    add(74, "parity", "mcnc-like", inputs=16)
    # ex75-79: symmetric functions.
    for i, sig in enumerate(fns.SYMMETRIC_SIGNATURES):
        add(75 + i, "symmetric", "symmetric", signature=sig)
    # ex80-89 / ex90-99: image-like group comparisons.
    for i in range(10):
        add(80 + i, "mnist", "mnist-like", comparison=i)
    for i in range(10):
        add(90 + i, "cifar", "cifar-like", comparison=i)


def _paper_descriptions(reg: ProblemRegistry) -> None:
    """Keep the historical ``repro list`` wording for cordic/t481."""
    overrides = {
        "ex70": "cordic output 0 (sin threshold)",
        "ex71": "cordic output 1 (cos threshold)",
        "ex72": "too_large-like wide SOP",
        "ex73": "t481-like structured function",
        "ex74": "16-input parity",
    }
    for name, description in overrides.items():
        old = reg._named[name]
        reg._named[name] = ProblemSpec(
            name=old.name, family=old.family, params=old.params,
            n_inputs=old.n_inputs, category=old.category,
            description=description, index=old.index,
        )


def _build_default_registry() -> ProblemRegistry:
    reg = ProblemRegistry()
    for family in _builtin_families():
        reg.register_family(family)
    _register_paper_suite(reg)
    _paper_descriptions(reg)
    return reg


#: The process-wide registry every layer (runner, CLI, benches,
#: analysis, serving) resolves benchmarks through.
DEFAULT_REGISTRY = _build_default_registry()


def clear_cache() -> None:
    """Drop every materialized generator in the default registry."""
    DEFAULT_REGISTRY.cache.clear()
