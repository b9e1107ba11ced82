"""The learned schedule loop: features -> policy -> pass -> repeat.

:func:`schedule_opt` puts a learned policy in ``compress``'s seat.
Both are hill-climbers over the same palette with the same adoption
rule — a pass result is kept only if it improves ``(size, depth)`` —
but where ``compress`` sweeps the palette in one fixed order for at
most three rounds, the scheduler asks the policy which pass to try
next and keeps going until the pass budget runs out or no pass can
improve the graph (a single-pass fixpoint, the same termination class
``compress`` approximates).

Passes that failed to improve the *current* graph are masked until
some pass improves it again — a deterministic policy would otherwise
re-pick its argmax forever on an unchanged graph.  The policy still
observes the reward of every probe (the bandit learns online from
failures too).

Guarantees:

- **Never larger.** Only improving results are adopted, so the
  returned graph's ``(size, depth)`` is at most the input cone's.
- **Exact.** Every palette pass preserves equivalence, so the result
  computes the same function as the input.
- **Deterministic.** Pass implementations are deterministic and the
  only randomness is the caller-supplied seeded generator used for
  bandit exploration — same ``(graph, policy, budget, rng stream)``
  means the same schedule, byte for byte.
"""

from __future__ import annotations

from typing import Protocol

import numpy as np

from repro.aig.aig import AIG
from repro.sched.features import extract_features
from repro.sched.harvest import PASS_NAMES, apply_pass


class Policy(Protocol):
    """What :func:`schedule_opt` needs from a scheduling policy."""

    def choose(
        self,
        features: np.ndarray,
        rng: np.random.Generator | None,
        exclude: frozenset[str] = frozenset(),
    ) -> str | None: ...

    def update(
        self, name: str, features: np.ndarray, reward: float
    ) -> None: ...


def _qor(aig: AIG) -> tuple[int, int]:
    return (aig.num_ands, aig.depth() if aig.num_ands else 0)


def schedule_opt(
    aig: AIG,
    policy: Policy,
    budget: int = 20,
    rng: np.random.Generator | None = None,
) -> tuple[AIG, list[str]]:
    """Optimize ``aig`` by letting ``policy`` schedule up to ``budget``
    pass applications; returns ``(graph, applied pass sequence)``.

    ``rng`` feeds bandit exploration only; greedy policies never touch
    it, so it may be ``None`` for them.  The history records every
    pass *tried* (adopted or not) — its length is the true work done.
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    current = aig.extract_cone()
    qor = _qor(current)
    history: list[str] = []
    tried: set[str] = set()
    while len(history) < budget and current.num_ands:
        if len(tried) == len(PASS_NAMES):
            break  # single-pass fixpoint: nothing can improve
        phi = extract_features(current)
        name = policy.choose(phi, rng, exclude=frozenset(tried))
        if name is None:
            break
        nxt = apply_pass(name, current)
        reward = (current.num_ands - nxt.num_ands) / max(
            current.num_ands, 1
        )
        policy.update(name, phi, reward)
        history.append(name)
        nxt_qor = _qor(nxt)
        if nxt_qor < qor:
            current, qor = nxt, nxt_qor
            tried = set()
        else:
            tried.add(name)
    return current, history
