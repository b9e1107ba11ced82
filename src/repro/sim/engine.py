"""The compiled simulation engine: a program IR plus a reused arena.

See :mod:`repro.sim` for the compile/evaluate lifecycle.

* :class:`~repro.sim.program.SimProgram` — the levelized program
  (gather vectors, complement runs, output spec).  Immutable,
  picklable, independent of the source :class:`AIG`.
* :class:`CompiledAIG` — one program plus the slot arena it evaluates
  into.  This is the object consumers hold (the AIG-side cache
  :meth:`repro.aig.aig.AIG.compiled` keeps one per structural
  version); it keeps the historical ``run*`` API bit-for-bit.
* :func:`reference_simulate_packed_all` — the seed per-node loop,
  kept as the oracle every test and benchmark checks the engine
  against.
"""

from __future__ import annotations

import numpy as np

from repro.sim.program import ALL_ONES, SimProgram, validate_packed
from repro.utils.bitops import pack_bits, unpack_bits


def _run_levels(
    program: SimProgram,
    values: np.ndarray,
    scratch: np.ndarray,
    packed_inputs: np.ndarray,
) -> np.ndarray:
    """The per-level schedule.

    Every slot row is written (const row, input rows, then node
    ranges level by level), so the arena needs no zero-fill.  Each
    level is a handful of whole-array ops: a fused ``np.take`` of
    both fanin row sets, scalar XORs over the contiguous complement
    runs set up by the compiler, and an AND written straight into the
    level's contiguous slot range.
    """
    values[0] = 0
    values[1 : 1 + program.n_inputs] = packed_inputs
    for lo, hi, idx01, c0_start, c1_lo, c1_hi in program.level_ops:
        k = hi - lo
        buf = scratch[: 2 * k]
        np.take(values, idx01, axis=0, out=buf)
        if c0_start < k:
            part = buf[c0_start:k]
            np.bitwise_xor(part, ALL_ONES, out=part)
        if c1_lo < c1_hi:
            part = buf[k + c1_lo : k + c1_hi]
            np.bitwise_xor(part, ALL_ONES, out=part)
        np.bitwise_and(buf[:k], buf[k:], out=values[lo:hi])
    return values


class CompiledAIG:
    """A :class:`SimProgram` evaluated on a preallocated, reused arena.

    ``source`` is an :class:`~repro.aig.aig.AIG` (compiled here) or an
    already-built :class:`SimProgram` (shared, no recompile).  The slot
    arena and the gather scratch are allocated once per word count and
    every level runs as in-place ops on them, so a warm run allocates
    nothing.  One instance serves one caller at a time (the arena is
    reused across calls); every public ``run*`` method copies out.
    """

    def __init__(self, source: SimProgram | object):
        if isinstance(source, SimProgram):
            self.program = source
        else:
            self.program = SimProgram(source)
        self._values: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    # -- program delegation (the historical public attributes) ---------
    @property
    def n_inputs(self) -> int:
        return self.program.n_inputs

    @property
    def num_vars(self) -> int:
        return self.program.num_vars

    @property
    def num_outputs(self) -> int:
        return self.program.num_outputs

    @property
    def var_levels(self) -> np.ndarray:
        return self.program.var_levels

    @property
    def depth(self) -> int:
        return self.program.depth

    @property
    def level_widths(self) -> list[int]:
        """Number of AND nodes on each logic level ``>= 1``."""
        return self.program.level_widths

    @property
    def level_ops(self):
        return self.program.level_ops

    @property
    def out_var(self) -> np.ndarray:
        return self.program.out_var

    @property
    def out_mask(self) -> np.ndarray:
        return self.program.out_mask

    # ------------------------------------------------------------------
    # Packed evaluation
    # ------------------------------------------------------------------
    def _arena(self, n_words: int) -> tuple[np.ndarray, np.ndarray]:
        """The slot arena and gather scratch, rebuilt when n_words changes."""
        values, scratch = self._values, self._scratch
        if values is None or scratch is None or values.shape[1] != n_words:
            values = np.empty(
                (self.program.num_vars, n_words), dtype=np.uint64
            )
            scratch = np.empty(
                (2 * self.program.max_width, n_words), dtype=np.uint64
            )
            self._values, self._scratch = values, scratch
        return values, scratch

    def _run_slots(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Evaluate into the slot layout (borrowed buffer — copy out)."""
        packed = validate_packed(packed_inputs, self.program.n_inputs)
        values, scratch = self._arena(packed.shape[1])
        return _run_levels(self.program, values, scratch, packed)

    def run_packed_all(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Values of *every* variable, shape ``(num_vars, n_words)``.

        Bit-exact drop-in for the seed ``AIG.simulate_packed_all``.
        """
        values = self._run_slots(packed_inputs)
        # Permute back from slot layout to variable order (also copies
        # out of the reused arena).
        return values.take(self.program.slot, axis=0)

    def run_packed(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Packed output values, shape ``(num_outputs, n_words)``."""
        values = self._run_slots(packed_inputs)
        if not self.num_outputs:
            return np.zeros((0, values.shape[1]), dtype=np.uint64)
        out = values.take(self.program.out_slot, axis=0)
        np.bitwise_xor(out, self.program.out_mask[:, None], out=out)
        return out

    # ------------------------------------------------------------------
    # Sample-matrix convenience
    # ------------------------------------------------------------------
    def run(self, samples: np.ndarray) -> np.ndarray:
        """Evaluate a ``(n_samples, n_inputs)`` 0/1 matrix.

        Returns ``(n_samples, n_outputs)`` uint8, like ``AIG.simulate``.
        """
        samples = np.asarray(samples, dtype=np.uint8)
        if samples.ndim == 1:
            samples = samples[None, :]
        out = self.run_packed(pack_bits(samples))
        return unpack_bits(out, samples.shape[0])


def compile_aig(aig) -> CompiledAIG:
    """Compile ``aig`` into its levelized form."""
    return CompiledAIG(aig)


def reference_simulate_packed_all(aig, packed_inputs: np.ndarray) -> np.ndarray:
    """The seed per-node simulation loop, kept as the oracle.

    Property tests and ``benchmarks/bench_sim_engine.py`` compare the
    levelized engine against this implementation bit for bit.  Inputs
    are normalized like :meth:`CompiledAIG.run_packed_all` (a 1-D
    ``(n_inputs,)`` vector is one word per input).
    """
    packed_inputs = validate_packed(packed_inputs, aig.n_inputs)
    n_words = packed_inputs.shape[1]
    values = np.zeros((aig.num_vars, n_words), dtype=np.uint64)
    values[1 : 1 + aig.n_inputs] = packed_inputs
    f0 = aig._fanin0
    f1 = aig._fanin1
    base = aig.n_inputs + 1
    for j in range(aig.num_ands):
        a, b = f0[j], f1[j]
        va = values[a >> 1]
        if a & 1:
            va = va ^ ALL_ONES
        vb = values[b >> 1]
        if b & 1:
            vb = vb ^ ALL_ONES
        values[base + j] = va & vb
    return values
