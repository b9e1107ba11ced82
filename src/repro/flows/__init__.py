"""The ten contest team flows, the portfolio and ``trees-deep``, as
registered Flows.

Every flow is a :class:`repro.flows.api.Flow` — a named, registered
pipeline of :class:`~repro.flows.api.Stage`\\ s with declarative
metadata (team, paper techniques, effort grids as data) — honouring
the contract ``run(problem, effort="small", master_seed=0) ->
Solution``.  The ``effort`` knob selects hyper-parameter grids:
``"small"`` keeps every flow laptop-fast for tests and default
benches, ``"full"`` uses the paper's grids.

Look flows up through the registry::

    from repro.flows import get_flow, resolve_spec

    solution = get_flow("team01").run(problem, effort="small")
    result = get_flow("team01").run_detailed(problem)  # + candidate table
    full = resolve_spec("team01:effort=full")(problem)

``TECHNIQUES`` is the Fig. 1 matrix (derived from the registered
flows' metadata): which representation/technique each team used.
"""

# Importing the flow modules registers their Flows.
from repro.flows import (  # noqa: F401  (registration side effects)
    api,
    portfolio as _portfolio_module,
    registry,
    team01,
    team02,
    team03,
    team04,
    team05,
    team06,
    team07,
    team08,
    team09,
    team10,
    trees_deep,
)
from repro.flows.api import ArtifactCache, Candidate, Flow, FlowResult, Stage
from repro.flows.portfolio import virtual_best
from repro.flows.registry import (
    REGISTRY,
    flow_names,
    get_flow,
    resolve_spec,
)

#: The ten team flows, in contest order (single source of truth: the
#: portfolio's default member list).
TEAM_FLOW_NAMES = _portfolio_module.DEFAULT_MEMBERS

# Fig. 1: techniques used by each team.
TECHNIQUE_NAMES = (
    "decision tree",
    "random forest",
    "boosting",
    "rule learner",
    "neural network",
    "LUT network",
    "ESPRESSO/SOP",
    "function matching",
    "feature selection",
    "CGP",
    "ensemble",
    "approximation",
)

#: Derived from the registered flows' declarative metadata.
TECHNIQUES = {
    name: set(REGISTRY.get(name).techniques) for name in TEAM_FLOW_NAMES
}

__all__ = [
    "ArtifactCache",
    "Candidate",
    "Flow",
    "FlowResult",
    "REGISTRY",
    "Stage",
    "TEAM_FLOW_NAMES",
    "TECHNIQUES",
    "TECHNIQUE_NAMES",
    "api",
    "flow_names",
    "team01",
    "team02",
    "team03",
    "team04",
    "team05",
    "team06",
    "team07",
    "team08",
    "team09",
    "team10",
    "get_flow",
    "registry",
    "resolve_spec",
    "virtual_best",
]
