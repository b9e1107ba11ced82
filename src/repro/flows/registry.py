"""The flow registry: name → :class:`~repro.flows.api.Flow`.

Every flow module registers its Flow at import time; the runner and
CLI resolve flows exclusively from here.  Resolution accepts plain
names (``"team01"``) and *spec strings* with overrides, in the grammar
problem specs use (:func:`repro.contest.registry.parse_spec_string`)::

    team01                      the flow, contract defaults
    team01:effort=full          effort pinned (wins over the caller's)
    portfolio:flows=team01+team10
                                flow-specific extras (declared by the
                                flow via ``spec_params``)

Registration enforces the flow contract — ``run(problem,
effort="small", master_seed=0) -> Solution`` — so a mis-signed flow
fails at import, not mid-contest.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field

from repro.contest.registry import parse_spec_string
from repro.flows.api import Flow, check_flow_contract
from repro.utils.suggest import did_you_mean

__all__ = [
    "REGISTRY",
    "FlowRegistry",
    "FlowSpec",
    "get_flow",
    "flow_names",
    "register",
    "resolve_spec",
]


@dataclass(frozen=True)
class FlowSpec:
    """A resolved spec string: the flow plus pinned overrides.

    Callable with the flow contract; pinned overrides win over the
    caller's corresponding arguments (a task grid running
    ``team01:effort=full`` runs full effort regardless of the grid's
    default effort).
    """

    spec: str
    flow: Flow
    overrides: dict[str, object] = field(default_factory=dict)

    def __call__(self, problem, effort: str = "small",
                 master_seed: int = 0, **kwargs):
        # Pinned overrides win over the caller's kwargs — for every
        # key, not just effort: a task grid running a stored
        # "portfolio:flows=a+b" spec must execute exactly that spec.
        merged = dict(kwargs)
        merged.update(self.overrides)
        effort = merged.pop("effort", effort)
        return self.flow.run(
            problem, effort=effort, master_seed=master_seed, **merged
        )

    @property
    def name(self) -> str:
        return self.flow.name


class FlowRegistry:
    """Mutable name → Flow mapping with contract enforcement."""

    def __init__(self) -> None:
        self._flows: dict[str, Flow] = {}

    # -- registration ------------------------------------------------

    def register(self, flow: Flow) -> Flow:
        if not isinstance(flow, Flow):
            raise TypeError(
                f"only Flow instances can be registered, got {flow!r}; "
                f"wrap ad-hoc callables in a Flow (or use the runner's "
                f"'module:qualname' escape hatch, which bypasses the "
                f"registry)"
            )
        if "=" in flow.name or "," in flow.name:
            raise ValueError(
                f"flow name {flow.name!r} collides with spec syntax"
            )
        if flow.name in self._flows:
            raise ValueError(
                f"flow {flow.name!r} is already registered (remove it first)"
            )
        check_flow_contract(flow.run, flow.name)
        self._flows[flow.name] = flow
        return flow

    def remove(self, name: str) -> None:
        """Unregister (tests and ad-hoc experiments)."""
        del self._flows[name]

    # -- lookup ------------------------------------------------------

    def get(self, name: str) -> Flow:
        try:
            return self._flows[name]
        except KeyError:
            hint = did_you_mean(name, self._flows)
            raise KeyError(
                f"unknown flow {name!r} (registered: "
                f"{self.names()}){hint}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._flows)

    def flows(self) -> dict[str, Flow]:
        return dict(self._flows)

    def __contains__(self, name: object) -> bool:
        return name in self._flows

    def __iter__(self) -> Iterator[str]:
        return iter(self.names())

    def __len__(self) -> int:
        return len(self._flows)

    # -- spec resolution ---------------------------------------------

    def resolve(self, spec: str) -> Callable:
        """Resolve a name or spec string to a contract callable.

        Plain names return the Flow itself; specs with overrides
        return a :class:`FlowSpec`.  Override keys are validated here:
        ``effort`` must name one of the flow's grids, anything else
        must be declared by the flow's ``spec_params``.
        """
        name, raw = parse_spec_string(spec)
        flow = self.get(name)
        if not raw:
            return flow
        overrides: dict[str, object] = {}
        for key, value in raw.items():
            if key == "effort":
                if value not in flow.efforts:
                    raise ValueError(
                        f"flow {name!r} has no effort {value!r} "
                        f"(choose from {sorted(flow.efforts)})"
                    )
                overrides[key] = value
            elif key in flow.spec_params:
                try:
                    overrides[key] = flow.spec_params[key](value)
                except (TypeError, ValueError) as exc:
                    raise ValueError(
                        f"bad value {value!r} for override {key!r} in "
                        f"flow spec {spec!r}: {exc}"
                    ) from None
            else:
                allowed = ["effort"] + sorted(flow.spec_params)
                hint = did_you_mean(key, allowed)
                raise ValueError(
                    f"flow {name!r} does not accept override {key!r} "
                    f"in spec {spec!r} (allowed: {allowed}){hint}"
                )
        return FlowSpec(spec=spec, flow=flow, overrides=overrides)


#: The process-wide registry; flow modules populate it at import time.
REGISTRY = FlowRegistry()


def register(flow: Flow) -> Flow:
    """Register into the global registry (module-level convenience)."""
    return REGISTRY.register(flow)


def get_flow(name: str) -> Flow:
    return REGISTRY.get(name)


def flow_names() -> list[str]:
    return REGISTRY.names()


def resolve_spec(spec: str) -> Callable:
    return REGISTRY.resolve(spec)
