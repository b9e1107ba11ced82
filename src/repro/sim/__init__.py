"""Levelized, vectorized AIG simulation.

The seed simulator (`AIG.simulate_packed_all`) walks the AND nodes one
at a time in a Python loop — fine for toy circuits, but the dominant
cost when scoring thousands of candidate circuits across the paper's
100-benchmark suite.  This subsystem replaces that loop with a
*compile once, evaluate many* pipeline split into three layers:

Program IR (:class:`~repro.sim.program.SimProgram`)
    The AIG is levelized (:meth:`AIG.levels` semantics, computed with a
    vectorized Jacobi sweep with an adaptive scalar cutover for
    chain-like graphs) and its variables renumbered into a *slot*
    layout where every logic level occupies a contiguous row range.
    Each level is stored as a fused fanin gather vector with
    complemented fanins grouped into contiguous runs.  Programs are
    immutable and picklable, and cached on the ``AIG`` keyed by a
    structural version (see :meth:`AIG.compiled`).

Engine (:class:`~repro.sim.engine.CompiledAIG`)
    One executor: per-level whole-array ops on a preallocated slot
    arena that is reused across calls, so a warm run allocates
    nothing.  ``run_packed_all``/``run_packed``/``run`` keep the
    historical API and are bit-exact with the seed loop, preserved as
    :func:`reference_simulate_packed_all`, the oracle for property
    tests and benchmarks.

Batch (:mod:`repro.sim.batch`)
    Two fan-out patterns the contest harness needs constantly:
    *one circuit, many datasets* (:func:`simulate_datasets` packs the
    concatenated sample matrices once and splits the result — e.g.
    train/valid/test scoring in a single pass) and *many circuits, one
    dataset* (:func:`simulate_circuits` /
    :func:`output_predictions` pack the dataset once and evaluate every
    compiled candidate against the shared packed words — e.g.
    ``pick_best`` over a candidate portfolio).  A third pattern, *one
    compiled circuit, many tiny row blocks*
    (:func:`simulate_rows_grouped`), is the coalescing primitive the
    serving layer (:mod:`repro.serve`) builds its microbatcher on.

`AIG.simulate`, `AIG.simulate_packed`, `AIG.simulate_packed_all` and
`AIG.truth_tables` all delegate here; existing callers keep their
signatures and get the fast path for free.
"""

from repro.sim.batch import (
    output_predictions,
    simulate_circuits,
    simulate_datasets,
    simulate_rows_grouped,
)
from repro.sim.engine import (
    CompiledAIG,
    compile_aig,
    reference_simulate_packed_all,
)
from repro.sim.program import SimProgram

__all__ = [
    "CompiledAIG",
    "SimProgram",
    "compile_aig",
    "reference_simulate_packed_all",
    "simulate_datasets",
    "simulate_circuits",
    "simulate_rows_grouped",
    "output_predictions",
]
