"""Levelized, vectorized AIG simulation.

The seed simulator walked the AND nodes one at a time in a Python
loop — fine for toy circuits, but the dominant cost when scoring
thousands of candidate circuits across the paper's 100-benchmark
suite.  This subsystem replaces that loop with a *compile once,
evaluate many* pipeline in two layers:

Engine (:class:`~repro.sim.engine.CompiledAIG`)
    One object per circuit.  Compiling levelizes the AIG
    (:meth:`AIG.levels` semantics, computed with a vectorized Jacobi
    sweep with an adaptive scalar cutover for chain-like graphs) and
    renumbers its variables into a *slot* layout where every logic
    level occupies a contiguous row range; each level is stored as a
    fused fanin gather vector with complemented fanins grouped into
    contiguous runs.  Evaluation runs per-level whole-array ops on a
    preallocated slot arena that is reused across calls, so a warm
    run allocates nothing.  ``run_packed_all``/``run_packed``/``run``
    are bit-exact with the seed loop, preserved as
    :func:`~repro.sim.engine.reference_simulate_packed_all`, the
    oracle for property tests and benchmarks.  The ``AIG`` caches its
    engine keyed on its structure (see :meth:`AIG.compiled`), and the
    serving store (:mod:`repro.serve`) holds the same object per
    model, so a contest score and a ``/predict`` answer run the same
    code.

Batch (:mod:`repro.sim.batch`)
    Two fan-out patterns the contest harness and the server need:
    *one circuit, many row blocks* (:func:`simulate_rows_grouped`
    stacks the blocks, packs them once and splits the result — the
    coalescing primitive behind the serving microbatcher, and equally
    train/valid/test scoring in one pass) and *many circuits, one
    dataset* (:func:`simulate_circuits` / :func:`output_predictions`
    pack the dataset once and evaluate every compiled candidate
    against the shared packed words — e.g. ``pick_best`` over a
    candidate portfolio).

`AIG.simulate`, `AIG.simulate_packed_all` and `AIG.truth_tables` all
delegate here.
"""

from repro.sim.batch import (
    output_predictions,
    simulate_circuits,
    simulate_rows_grouped,
)
from repro.sim.engine import CompiledAIG, reference_simulate_packed_all

__all__ = [
    "CompiledAIG",
    "reference_simulate_packed_all",
    "simulate_circuits",
    "simulate_rows_grouped",
    "output_predictions",
]
