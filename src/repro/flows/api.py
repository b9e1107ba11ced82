"""The composable Flow API.

A *flow* — one team's end-to-end learn→synthesize→optimize pipeline —
is a first-class, declarative object instead of an ad-hoc module-level
``run()`` function:

``Flow``
    A named pipeline with metadata (team, paper techniques, effort
    grids as data) composed of :class:`Stage`\\ s.  Stages emit a
    stream of :class:`Candidate` circuits into the shared
    ``finalize_aig``/``pick_best`` funnel; a stage may instead
    short-circuit the whole flow by returning a finished
    :class:`~repro.contest.problem.Solution` (e.g. an exact standard-
    function match).  ``Flow.run`` keeps the historical contract
    ``run(problem, effort="small", master_seed=0) -> Solution``;
    ``Flow.run_detailed`` additionally returns the full candidate
    table as a :class:`FlowResult`.

``ArtifactCache``
    A per-(problem, seed) memo for *deterministic* intermediate
    artifacts — merged train+valid datasets, standard-function match
    scans, espresso covers, decision trees keyed by a digest of their
    training data.  Flows sharing a cache (the portfolio, contest
    grids over one problem) compute each shared artifact once.  Only
    artifacts that are pure functions of their key are cached, so a
    warm cache is *provably* behaviour-preserving: every flow returns
    byte-identical Solutions with or without sharing.  RNG-consuming
    artifacts (forests, LUT networks, MLPs) are deliberately not
    cached — each flow draws them from its own sequential seed stream,
    so two flows' "same" model family is bit-different by design.

Flows register themselves in :mod:`repro.flows.registry`; the runner,
CLI and analysis layers resolve them from there by name or by spec
string (``"team01:effort=full"``).
"""

from __future__ import annotations

import inspect
from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.aig.aig import AIG
from repro.contest.problem import LearningProblem, Solution
from repro.flows.common import (
    constant_solution,
    finalize_aig,
    flow_rng,
    pick_best,
)
from repro.ml.dataset import Dataset

__all__ = [
    "ArtifactCache",
    "Candidate",
    "FinalizeSpec",
    "Flow",
    "FlowContext",
    "FlowResult",
    "Stage",
    "match_standard_stage",
    "select_best_validation",
    "select_sole_candidate",
]


# --------------------------------------------------------------------
# Candidates
# --------------------------------------------------------------------

@dataclass(frozen=True)
class Candidate:
    """One circuit a stage proposes to the selection funnel.

    ``provenance`` is free-form bookkeeping (hyper-parameters, CV
    scores, member lists); single-candidate flows promote it verbatim
    into the Solution metadata.  ``stage`` is stamped by ``Flow.run``.
    """

    name: str
    aig: AIG
    provenance: Mapping[str, object] = field(default_factory=dict)
    stage: str | None = None

    def with_stage(self, stage: str) -> "Candidate":
        if self.stage is not None:
            return self
        return Candidate(self.name, self.aig, self.provenance, stage)


# --------------------------------------------------------------------
# Artifact cache
# --------------------------------------------------------------------

class ArtifactCache:
    """Memo for deterministic per-(problem, seed) artifacts.

    Keys are ``(problem identity, family, key)``; the problem is keyed
    by object identity, and the cache pins a strong reference to every
    problem it has seen so a recycled ``id()`` can never serve one
    problem's artifacts to another.  Values may be ``None`` (a
    *negative* match result is still a result).

    The cache must only ever hold artifacts that are pure functions of
    their key: anything consuming a flow's sequential RNG stream would
    make a warm cache observable in the flow's output, breaking the
    byte-equivalence guarantee the golden tests pin.
    """

    def __init__(self) -> None:
        self._artifacts: dict[tuple, object] = {}
        self._problems: dict[int, LearningProblem] = {}
        self._hits: dict[str, int] = {}
        self._misses: dict[str, int] = {}

    def get_or_compute(
        self,
        problem: LearningProblem,
        family: str,
        key: tuple,
        compute: Callable[[], object],
    ) -> object:
        """Return the cached artifact, computing (and storing) on miss."""
        self._problems[id(problem)] = problem
        full_key = (id(problem), family, key)
        if full_key in self._artifacts:
            self._hits[family] = self._hits.get(family, 0) + 1
            return self._artifacts[full_key]
        self._misses[family] = self._misses.get(family, 0) + 1
        value = compute()
        self._artifacts[full_key] = value
        return value

    @property
    def hits(self) -> int:
        return sum(self._hits.values())

    @property
    def misses(self) -> int:
        return sum(self._misses.values())

    def stats(self) -> dict[str, dict[str, int]]:
        """Per-family ``{"hits": n, "misses": m}`` counters."""
        return {
            family: {
                "hits": self._hits.get(family, 0),
                "misses": self._misses.get(family, 0),
            }
            for family in sorted(set(self._hits) | set(self._misses))
        }

    def __len__(self) -> int:
        return len(self._artifacts)

    @staticmethod
    def dataset_digest(*arrays: np.ndarray) -> str:
        """SHA-256 over array contents — the key for artifacts trained
        on data (identical data + identical hyper-parameters + a
        deterministic trainer ⇒ identical artifact).  Each array's
        dtype and shape are hashed ahead of its bytes, so arrays whose
        concatenated byte streams coincide still key differently."""
        import hashlib

        digest = hashlib.sha256()
        for arr in arrays:
            arr = np.ascontiguousarray(arr)
            digest.update(f"{arr.dtype.str}{arr.shape}|".encode("ascii"))
            digest.update(arr.tobytes())
        return digest.hexdigest()


# --------------------------------------------------------------------
# Context and stages
# --------------------------------------------------------------------

@dataclass
class FlowContext:
    """Everything a stage sees: the problem, resolved effort params,
    the flow's deterministic RNG stream, the artifact cache, and a
    scratch ``state`` dict for passing values between stages and into
    custom selectors."""

    flow: "Flow"
    problem: LearningProblem
    effort: str
    master_seed: int
    params: Mapping[str, object]
    cache: ArtifactCache
    rng: np.random.Generator
    state: dict[str, object] = field(default_factory=dict)
    candidates: list[Candidate] = field(default_factory=list)

    def derive_rng(self, *parts) -> np.random.Generator:
        """A fresh named sub-stream (same derivation as the legacy
        ``flow_rng(name, problem, master_seed, *parts)`` calls)."""
        return flow_rng(self.flow.name, self.problem, self.master_seed,
                        *parts)

    def artifact(self, family: str, key: tuple,
                 compute: Callable[[], object]) -> object:
        """Cache lookup scoped to this context's problem."""
        return self.cache.get_or_compute(self.problem, family, key, compute)

    def merged_train_valid(self) -> Dataset:
        """The train+valid merge, computed once per (problem, cache)."""
        return self.artifact(
            "merged-dataset", (), self.problem.merged_train_valid
        )

    def standard_match(self):
        """Shared standard-function match scan (Teams 1 and 7 run the
        identical deterministic scan on the identical merged data)."""
        from repro.synth.matching import match_standard_function

        merged = self.merged_train_valid()
        return self.artifact(
            "function-match", (),
            lambda: match_standard_function(merged.X, merged.y),
        )


#: What a stage may return: nothing, a candidate batch, or a finished
#: Solution that short-circuits the flow.
StageOutcome = None | Iterable[Candidate] | Solution


@dataclass(frozen=True)
class Stage:
    """One named step of a flow."""

    name: str
    fn: Callable[[FlowContext], StageOutcome]
    description: str = ""


def match_standard_stage(ctx: FlowContext) -> StageOutcome:
    """Shared opening stage of Teams 1 and 7: an exact standard-
    function hit (adder/comparator/parity/...) ends the flow."""
    match = ctx.standard_match()
    if match is None:
        return None
    return Solution(
        aig=match.aig.extract_cone(),
        method=f"{ctx.flow.name}:match",
        metadata={"matched": match.name},
    )


# --------------------------------------------------------------------
# Finalization and selection
# --------------------------------------------------------------------

@dataclass(frozen=True)
class FinalizeSpec:
    """How ``Flow.run`` post-processes emitted candidates (in emission
    order, drawing from the flow's sequential RNG — exactly where the
    legacy ``run()`` functions placed their ``finalize_aig`` loop).

    ``optimize`` may be a bool or a per-candidate predicate
    ``(AIG) -> bool`` (Team 5/6 skip the expensive passes above 4000
    nodes).  Flows that interleave finalization with training (Teams 4
    and 6) set ``Flow.finalize=None`` and finalize inside the stage.
    ``deep`` swaps ``compress_deep`` in for ``compress``.
    """

    optimize: bool | Callable[[AIG], bool] = True
    deep: bool = False

    def apply(self, aig: AIG, rng: np.random.Generator) -> AIG:
        optimize = self.optimize
        if callable(optimize):
            optimize = optimize(aig)
        return finalize_aig(aig, rng, optimize=optimize, deep=self.deep)


def select_best_validation(ctx: FlowContext) -> Solution:
    """Default funnel exit: best candidate by validation accuracy
    (``ctx.state["selection_data"]`` overrides the dataset — Team 5
    selects on its own re-split), majority-constant fallback when no
    stage produced anything."""
    data = ctx.state.get("selection_data", ctx.problem.valid)
    best = pick_best([(c.name, c.aig) for c in ctx.candidates], data)
    if best is None:
        return constant_solution(ctx.problem, ctx.flow.name)
    name, aig, acc = best
    return ctx.flow.package(ctx, name, aig, acc)


def select_sole_candidate(ctx: FlowContext) -> Solution:
    """Exit for single-candidate flows (Teams 2/3/7/10): the one
    emitted candidate wins outright and its provenance becomes the
    Solution metadata."""
    if len(ctx.candidates) != 1:
        raise ValueError(
            f"flow {ctx.flow.name!r} uses select_sole_candidate but "
            f"emitted {len(ctx.candidates)} candidates"
        )
    cand = ctx.candidates[0]
    return Solution(
        aig=cand.aig,
        method=f"{ctx.flow.name}:{cand.name}",
        metadata=dict(cand.provenance),
    )


def default_package(ctx: FlowContext, name: str, aig: AIG,
                    acc: float) -> Solution:
    """Default Solution packaging for the validation funnel."""
    return Solution(
        aig=aig,
        method=f"{ctx.flow.name}:{name}",
        metadata={"valid_accuracy": acc},
    )


# --------------------------------------------------------------------
# Results
# --------------------------------------------------------------------

@dataclass(frozen=True)
class CandidateRecord:
    """One row of a FlowResult's candidate table."""

    name: str
    stage: str | None
    num_ands: int
    provenance: Mapping[str, object]


@dataclass(frozen=True)
class FlowResult:
    """Uniform detailed result of a flow execution: the Solution plus
    the full candidate table and cache counters, for analysis layers
    that want more than the winning circuit."""

    flow: str
    effort: str
    master_seed: int
    solution: Solution
    candidates: tuple[CandidateRecord, ...]
    cache_stats: dict[str, dict[str, int]]
    short_circuited: bool = False


# --------------------------------------------------------------------
# The Flow object
# --------------------------------------------------------------------

class Flow:
    """A named, registered, stage-composed pipeline.

    Construction is declarative: metadata plus data (effort grids) plus
    a stage tuple plus (optionally) a finalize spec and a selector.
    Execution (:meth:`run`) is the uniform engine: resolve the effort
    grid, seed the RNG stream, run stages (a stage returning a Solution
    short-circuits), finalize the candidate stream in emission order,
    select.  Instances are callable with the historical module
    contract, so a ``Flow`` drops in anywhere a ``run()`` function was
    accepted.
    """

    def __init__(
        self,
        name: str,
        *,
        team: str,
        techniques: Iterable[str] = (),
        efforts: Mapping[str, Mapping[str, object]],
        stages: Sequence[Stage],
        finalize: FinalizeSpec | None = FinalizeSpec(),
        select: Callable[[FlowContext], Solution] = select_best_validation,
        package: Callable[..., Solution] = default_package,
        description: str = "",
        spec_params: Mapping[str, Callable[[str], object]] | None = None,
    ) -> None:
        if not stages:
            raise ValueError(f"flow {name!r} needs at least one stage")
        seen = set()
        for stage in stages:
            if stage.name in seen:
                raise ValueError(
                    f"flow {name!r} has duplicate stage {stage.name!r}"
                )
            seen.add(stage.name)
        self.name = name
        self.team = team
        self.techniques = frozenset(techniques)
        self.efforts = {k: dict(v) for k, v in efforts.items()}
        self.stages = tuple(stages)
        self.finalize = finalize
        self.select = select
        self.package = package
        self.description = description
        #: extra spec-string override keys -> value parsers (e.g. the
        #: portfolio's ``flows=team01+team10``).
        self.spec_params = dict(spec_params or {})

    # -- metadata ----------------------------------------------------

    def params_for(self, effort: str) -> dict[str, object]:
        """The effort grid as plain data (copy — stages may not rely
        on mutating the flow's grid)."""
        try:
            return dict(self.efforts[effort])
        except KeyError:
            raise KeyError(
                f"flow {self.name!r} has no effort {effort!r} "
                f"(choose from {sorted(self.efforts)})"
            ) from None

    @property
    def stage_names(self) -> tuple[str, ...]:
        return tuple(stage.name for stage in self.stages)

    def __repr__(self) -> str:
        return (f"Flow({self.name!r}, team={self.team!r}, "
                f"stages={list(self.stage_names)!r}, "
                f"efforts={sorted(self.efforts)!r})")

    # -- execution ---------------------------------------------------

    def run(
        self,
        problem: LearningProblem,
        effort: str = "small",
        master_seed: int = 0,
        *,
        cache: ArtifactCache | None = None,
    ) -> Solution:
        """The flow contract: ``(problem, effort, master_seed) ->
        Solution``.  ``cache`` shares deterministic artifacts with
        other flows run on the same problem."""
        return self.run_detailed(
            problem, effort=effort, master_seed=master_seed, cache=cache
        ).solution

    __call__ = run

    def run_detailed(
        self,
        problem: LearningProblem,
        effort: str = "small",
        master_seed: int = 0,
        *,
        cache: ArtifactCache | None = None,
        state: Mapping[str, object] | None = None,
    ) -> FlowResult:
        """Run and return the Solution plus the full candidate table."""
        ctx = FlowContext(
            flow=self,
            problem=problem,
            effort=effort,
            master_seed=master_seed,
            params=self.params_for(effort),
            cache=cache if cache is not None else ArtifactCache(),
            rng=flow_rng(self.name, problem, master_seed),
            state=dict(state or {}),
        )
        solution: Solution | None = None
        for stage in self.stages:
            out = stage.fn(ctx)
            if isinstance(out, Solution):
                solution = out
                break
            if out is not None:
                for cand in out:
                    ctx.candidates.append(cand.with_stage(stage.name))
        short_circuited = solution is not None
        if solution is None:
            if self.finalize is not None:
                ctx.candidates = [
                    Candidate(
                        c.name,
                        self.finalize.apply(c.aig, ctx.rng),
                        c.provenance,
                        c.stage,
                    )
                    for c in ctx.candidates
                ]
            solution = self.select(ctx)
        return FlowResult(
            flow=self.name,
            effort=effort,
            master_seed=master_seed,
            solution=solution,
            candidates=tuple(
                CandidateRecord(
                    name=c.name,
                    stage=c.stage,
                    num_ands=c.aig.count_used_ands(),
                    provenance=dict(c.provenance),
                )
                for c in ctx.candidates
            ),
            cache_stats=ctx.cache.stats(),
            short_circuited=short_circuited,
        )


# --------------------------------------------------------------------
# Contract validation (used by the registry)
# --------------------------------------------------------------------

def check_flow_contract(fn: Callable, name: str = "<flow>") -> None:
    """Raise unless ``fn`` honours ``run(problem, effort="small",
    master_seed=0)``: those exact leading parameters, defaults on
    everything after ``problem``.  Extra parameters are allowed only
    with defaults (the portfolio's ``flows``/``cache``)."""
    sig = inspect.signature(fn)
    params = [p for p in sig.parameters.values()
              if p.kind is not inspect.Parameter.VAR_KEYWORD]
    names = [p.name for p in params]
    if names[:3] != ["problem", "effort", "master_seed"]:
        raise TypeError(
            f"flow {name!r} violates the contract: leading parameters "
            f"must be (problem, effort, master_seed), got {names[:3]}"
        )
    if params[1].default != "small":
        raise TypeError(
            f"flow {name!r}: effort must default to 'small', "
            f"got {params[1].default!r}"
        )
    if params[2].default != 0:
        raise TypeError(
            f"flow {name!r}: master_seed must default to 0, "
            f"got {params[2].default!r}"
        )
    for p in params[3:]:
        if p.default is inspect.Parameter.empty:
            raise TypeError(
                f"flow {name!r}: extra parameter {p.name!r} must have "
                f"a default (callers only pass the contract arguments)"
            )
