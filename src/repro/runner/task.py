"""The unit of contest work: one (benchmark, flow, seed) task.

A :class:`TaskSpec` names everything a worker needs to recompute its
result from scratch — the benchmark (a suite *index* or a registry
*problem name* like ``"ex74"`` / ``"adder:width=48"``), the flow
*name*, the master seed and the sample sizes — so the worker function
:func:`run_task` is a pure function of the spec.  That purity is what
makes the parallel runner deterministic (any process, any order, same
record), makes resume sound (a stored record fully substitutes for a
re-execution), makes sharded runs mergeable byte-identically, and
makes the golden determinism tests possible.

Flows are referenced by name, never by callable: a registry name or
spec string (``"team01"``, ``"team01:effort=full"``,
``"portfolio:flows=team01+team10"`` — see
:mod:`repro.flows.registry`) or a ``"module:qualname"`` dotted path
(the escape hatch benches and downstream users need for custom flows
that are not registered).
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache
from typing import Any

import numpy as np

from repro.contest.evaluate import Score, evaluate_solution
from repro.contest.problem import LearningProblem

#: Bump when the record layout changes incompatibly.
RECORD_SCHEMA = 1


@dataclass(frozen=True)
class TaskSpec:
    """One contest execution: flow x benchmark x seed at fixed sizes.

    ``benchmark`` is either a suite index (the historical interface —
    keys and records are unchanged, so old stores keep resuming) or a
    registry problem name / family spec string resolved through
    :data:`repro.contest.registry.DEFAULT_REGISTRY`.
    """

    benchmark: int | str  # suite index or registry problem name
    flow: str  # registry name/spec string or "module:qualname" path
    seed: int  # master seed for sampling and the flow's RNG streams
    n_train: int
    n_valid: int
    n_test: int
    effort: str = "small"

    @property
    def key(self) -> str:
        """Stable identity of the task within one run directory."""
        if isinstance(self.benchmark, str):
            return f"{self.benchmark}:{self.flow}:s{self.seed}"
        return f"b{self.benchmark:03d}:{self.flow}:s{self.seed}"


def resolve_flow(name: str) -> Callable:
    """Turn a flow name into its contract callable.

    Resolution order: the flow registry (plain names return the
    registered :class:`~repro.flows.api.Flow`; spec strings with
    overrides return a :class:`~repro.flows.registry.FlowSpec`), then
    ``module:qualname`` import paths for unregistered callables.
    """
    from repro.flows.registry import REGISTRY

    head = name.partition(":")[0]
    if head in REGISTRY:
        return REGISTRY.resolve(name)
    if ":" in name and "=" not in name:
        module_name, _, qualname = name.partition(":")
        try:
            obj: Any = importlib.import_module(module_name)
            for part in qualname.split("."):
                obj = getattr(obj, part)
        except (ImportError, AttributeError, TypeError) as exc:
            raise KeyError(
                f"unknown flow {name!r}: cannot import it as a "
                f"'module:qualname' path ({exc})"
            ) from exc
        return obj
    from repro.utils.suggest import did_you_mean

    raise KeyError(
        f"unknown flow {name!r}: not a registered flow/spec "
        f"(registered: {REGISTRY.names()}) and not a "
        f"'module:qualname' path{did_you_mean(head, REGISTRY.names())}"
    )


@lru_cache(maxsize=4)
def _cached_problem(
    benchmark: int | str,
    n_train: int,
    n_valid: int,
    n_test: int,
    seed: int,
) -> LearningProblem:
    """Per-process problem cache.

    Sampling is deterministic in these five arguments, so caching
    cannot break task purity — it only stops a serial contest (whose
    task grid iterates benchmark-outer) from re-sampling the same
    datasets once per flow.  Flows receive the shared instance; they
    already must not mutate problem data (the serial contest reused
    one instance across flows long before the runner existed).
    """
    from repro.contest import DEFAULT_REGISTRY

    if isinstance(benchmark, str):
        spec = DEFAULT_REGISTRY.get(benchmark)
    else:
        spec = DEFAULT_REGISTRY.by_index(benchmark)
    return DEFAULT_REGISTRY.problem(
        spec, n_train=n_train, n_valid=n_valid,
        n_test=n_test, master_seed=seed,
    )


def make_task_problem(spec: TaskSpec) -> LearningProblem:
    """Sample the task's problem (same recipe in every process)."""
    return _cached_problem(
        spec.benchmark, spec.n_train, spec.n_valid, spec.n_test, spec.seed
    )


def _json_safe(value):
    """Conservatively coerce metadata values into JSON-stable types."""
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    if isinstance(value, float):
        return value
    if isinstance(value, np.generic):
        return _json_safe(value.item())
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _json_safe(v) for k, v in value.items()}
    return repr(value)


def score_to_record(score: Score) -> dict[str, Any]:
    """Serialize a Score losslessly (floats keep their exact value).

    ``seed`` is emitted only when set: freshly evaluated scores carry
    ``None`` and the task spec's seed (already in the full record)
    must not be clobbered.
    """
    record = {
        "benchmark_name": score.benchmark,
        "method": score.method,
        "test_accuracy": float(score.test_accuracy),
        "valid_accuracy": float(score.valid_accuracy),
        "train_accuracy": float(score.train_accuracy),
        "num_ands": int(score.num_ands),
        "levels": int(score.levels),
        "legal": bool(score.legal),
    }
    if score.seed is not None:
        record["seed"] = int(score.seed)
    return record


def score_from_record(record: dict[str, Any]) -> Score:
    """Inverse of :func:`score_to_record` (exact round-trip).

    The record's task-level ``seed`` is attached to the Score, so
    reconstructed multi-trial runs stay seed-aligned (``win_rates``
    compares like trials even when a store is partially complete).
    """
    return Score(
        benchmark=record["benchmark_name"],
        method=record["method"],
        test_accuracy=record["test_accuracy"],
        valid_accuracy=record["valid_accuracy"],
        train_accuracy=record["train_accuracy"],
        num_ands=record["num_ands"],
        levels=record["levels"],
        legal=record["legal"],
        seed=record.get("seed"),
    )


@dataclass
class TaskResult:
    """What a worker sends back: the record plus the optional circuit."""

    spec: TaskSpec
    record: dict[str, Any]
    aag: str | None = None


def run_task(spec: TaskSpec, keep_solution: bool = False) -> TaskResult:
    """Execute one task from scratch.  Pure: output depends only on
    ``spec`` (and ``keep_solution``), never on process or ordering."""
    from repro.aig.aiger import dumps_aag

    problem = make_task_problem(spec)
    flow = resolve_flow(spec.flow)
    solution = flow(problem, effort=spec.effort, master_seed=spec.seed)
    score = evaluate_solution(problem, solution)
    record = {
        "schema": RECORD_SCHEMA,
        "key": spec.key,
        "benchmark": spec.benchmark,
        "flow": spec.flow,
        "team": spec.flow,
        "seed": spec.seed,
        "n_train": spec.n_train,
        "n_valid": spec.n_valid,
        "n_test": spec.n_test,
        "effort": spec.effort,
        "solution_metadata": _json_safe(solution.metadata),
    }
    record.update(score_to_record(score))
    return TaskResult(
        spec=spec,
        record=record,
        aag=dumps_aag(solution.aig) if keep_solution else None,
    )
