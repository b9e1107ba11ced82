"""Shared plumbing for the team flows.

The pieces every flow funnels through: the per-flow deterministic RNG
stream (:func:`flow_rng` — named sub-streams of
:func:`repro.utils.rng.rng_for`, so two flows on the same problem
never share randomness), the legality funnel (:func:`finalize_aig` —
cone-extract, optimize, approximate under the contest node cap) and
candidate selection (:func:`pick_best` — accuracy first, used-node
count as tie-break, over-cap candidates only as a last resort).

Determinism contract: everything here is a pure function of its
arguments plus the passed-in RNG stream; given the same ``(flow,
problem, master_seed)`` the same bytes come out.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.aig.aig import AIG, CONST0, CONST1
from repro.aig.approx import approximate_to_size
from repro.aig.opt.passes import balance, compress, compress_deep
from repro.contest.problem import MAX_AND_NODES, LearningProblem, Solution
from repro.ml.dataset import Dataset
from repro.ml.metrics import accuracy
from repro.sim.batch import output_predictions
from repro.utils.rng import rng_for

#: Graphs larger than this are only balanced: the full optimization
#: scripts cost too much on them.
OPTIMIZE_LIMIT = 20000


def flow_rng(flow: str, problem: LearningProblem, master_seed: int,
             *extra) -> np.random.Generator:
    """Deterministic per-flow, per-benchmark RNG stream."""
    return rng_for("flow", flow, problem.name, master_seed, *extra)


def aig_accuracy(aig: AIG, data: Dataset) -> float:
    """Accuracy of a single-output AIG on a dataset."""
    return accuracy(data.y, aig.simulate(data.X)[:, 0])


def constant_solution(problem: LearningProblem, method: str) -> Solution:
    """Majority-constant fallback when nothing can be trained."""
    aig = AIG(problem.n_inputs)
    majority = problem.train.merge(problem.valid).onset_fraction() > 0.5
    aig.set_output(CONST1 if majority else CONST0)
    return Solution(aig=aig, method=f"{method}+const")


def finalize_aig(
    aig: AIG,
    rng: np.random.Generator,
    optimize: bool = True,
    deep: bool = False,
) -> AIG:
    """Post-process a candidate circuit the way the teams used ABC.

    Garbage-collects, optimizes (only balancing graphs over
    :data:`OPTIMIZE_LIMIT`), and applies Team 1-style approximation if
    the result still exceeds the contest's node cap.  ``deep``
    optimizes with ``compress_deep`` instead of ``compress``.
    """
    opt = compress_deep if deep else compress
    aig = aig.extract_cone()
    if optimize:
        if aig.num_ands <= OPTIMIZE_LIMIT:
            aig = opt(aig)
        else:
            aig = balance(aig)
    if aig.num_ands > MAX_AND_NODES:
        aig = approximate_to_size(aig, max_ands=MAX_AND_NODES, rng=rng)
        if aig.num_ands <= OPTIMIZE_LIMIT:
            aig = opt(aig)
    return aig


def pick_best(
    candidates: Iterable[tuple[str, AIG]],
    data: Dataset,
) -> tuple[str, AIG, float] | None:
    """Best legal candidate by accuracy on ``data`` (ties: smaller).

    Candidates over the node cap are only used if nothing legal exists;
    they obey the same ``(accuracy, size)`` ordering.  All candidates
    are scored in one batched pass (``data`` is bit-packed once).

    Size — both for the cap check and the tie-break — is the *used*
    node count, so a candidate that was never cone-extracted is not
    mis-ranked (or wrongly rejected as over-cap) because of dead logic
    the final circuit would not even ship.
    """
    candidates = list(candidates)
    if not candidates:
        return None
    preds = output_predictions([aig for _, aig in candidates], data.X)
    sizes = {id(aig): aig.count_used_ands() for _, aig in candidates}
    best: tuple[str, AIG, float] | None = None
    fallback: tuple[str, AIG, float] | None = None

    def better(entry, incumbent):
        if incumbent is None:
            return True
        acc, inc_acc = entry[2], incumbent[2]
        return acc > inc_acc or (
            acc == inc_acc and sizes[id(entry[1])] < sizes[id(incumbent[1])]
        )

    for (name, aig), pred in zip(candidates, preds, strict=True):
        entry = (name, aig, accuracy(data.y, pred))
        if sizes[id(aig)] <= MAX_AND_NODES:
            if better(entry, best):
                best = entry
        elif better(entry, fallback):
            fallback = entry
    return best if best is not None else fallback
