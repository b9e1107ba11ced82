"""The compiled simulation engine.

See :mod:`repro.sim` for the compile/evaluate lifecycle.

* :class:`CompiledAIG` — an AIG lowered into levelized gather arrays
  plus the slot arena it evaluates into.  This is the object consumers
  hold (:meth:`repro.aig.aig.AIG.compiled` caches one per structure,
  and the serving store keeps one per model).
* :func:`reference_simulate_packed_all` — the seed per-node loop,
  kept as the oracle every test and benchmark checks the engine
  against.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.bitops import pack_bits, unpack_bits

ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def validate_packed(packed_inputs: np.ndarray, n_inputs: int) -> np.ndarray:
    """Normalize a packed input matrix to ``(n_inputs, n_words)``.

    A 1-D ``(n_inputs,)`` vector is one word per input.
    """
    packed_inputs = np.asarray(packed_inputs, dtype=np.uint64)
    if packed_inputs.ndim == 1:
        packed_inputs = packed_inputs[:, None]
    if packed_inputs.shape[0] != n_inputs:
        raise ValueError(
            f"expected {n_inputs} input rows, got {packed_inputs.shape[0]}"
        )
    return packed_inputs


def _levelize(
    n_inputs: int,
    v0: np.ndarray,
    v1: np.ndarray,
    _stats: dict | None = None,
) -> np.ndarray:
    """Level of every variable, computed one *level* at a time.

    ``v0``/``v1`` are the fanin variable indices of the AND nodes.
    Instead of the seed's per-node loop this runs a Jacobi relaxation:
    each whole-array round propagates levels one step deeper, so the
    Python loop runs ``depth + 1`` times, not ``num_ands`` times.

    Jacobi is a bad fit for chain-like graphs, where ``O(depth * n)``
    vector rounds lose to the ``O(n)`` scalar sweep.  Rather than a
    hard-coded round cap (which used to kick depth-65 circuits off the
    fast path one round early), the cutover is derived from measured
    progress.  Round ``r`` settles the ``s`` nodes of level ``r - 1``
    while ``c`` still churn; with ``g`` the ratio of ``s`` to the
    width of the level below, a forecast of the rounds left is the
    ``r`` with ``s * (g + g**2 + ... + g**r) = c`` when levels widen
    (``g > 1``), and ``c / s`` when they do not.  Once that forecast
    exceeds the vector/scalar break-even (~64 rounds) the remaining
    work is done scalar.  Balanced circuits settle whole levels per
    round, and circuits whose levels widen geometrically (a learned
    MLP's cone) are forecast to finish in a few rounds, so neither
    trips it; a chain settles one node per round and bails
    immediately.

    ``_stats``, when given a dict, records ``{"rounds", "fallback"}``
    for the cutover regression tests.
    """
    num_ands = v0.shape[0]
    num_vars = 1 + n_inputs + num_ands
    lv = np.zeros(num_vars, dtype=np.int32)
    if not num_ands:
        if _stats is not None:
            _stats.update(rounds=0, fallback=False)
        return lv
    base = 1 + n_inputs
    # The first round moves every node off level 0, so it carries no
    # progress signal; the forecast starts once two rounds can be
    # compared.  Level 0 holds the constant and the inputs.
    prev_changed: int | None = None
    prev_settled = base
    rounds = 0
    fallback = True
    while True:
        nxt = np.maximum(lv[v0], lv[v1])
        nxt += 1
        changed = int(np.count_nonzero(nxt != lv[base:]))
        if changed == 0:
            fallback = False
            break
        lv[base:] = nxt
        rounds += 1
        if prev_changed is not None:
            settled = max(prev_changed - changed, 1)
            if settled > prev_settled:
                g = settled / prev_settled
                rounds_left = math.log1p(
                    changed * (g - 1) / (settled * g)) / math.log(g)
                if rounds_left > 64:
                    break
            elif changed > 64 * settled:
                break
            prev_settled = settled
        prev_changed = changed
    if _stats is not None:
        _stats.update(rounds=rounds, fallback=fallback)
    if not fallback:
        return lv
    levels = lv.tolist()
    for j, (a, b) in enumerate(zip(v0.tolist(), v1.tolist(), strict=True)):
        la, lb = levels[a], levels[b]
        levels[base + j] = (la if la > lb else lb) + 1
    return np.asarray(levels, dtype=np.int32)


class CompiledAIG:
    """An AIG flattened into levelized arrays, run on a reused arena.

    Compiling levelizes the graph and renumbers its variables into a
    *slot* layout where every logic level occupies a contiguous row
    range, which turns the per-level scatter into a slice store fused
    with the AND.  Each level becomes one
    ``(lo, hi, idx01, c0_start, c1_lo, c1_hi)`` tuple in
    ``level_ops``: the slot range it writes, the fused fanin gather
    vector (all fanin-0 slots, then all fanin-1 slots) and the bounds
    of its complemented runs.  Evaluation runs in slot space and
    permutes back to variable order on the way out.

    The instance holds no reference to the source graph.  The slot
    arena and the gather scratch are allocated once per word count and
    every level runs as in-place ops on them, so a warm run allocates
    nothing.  One instance serves one caller at a time (the arena is
    reused across calls); every public ``run*`` method copies out.

    Attributes
    ----------
    n_inputs, num_vars, num_outputs:
        Interface of the source graph.
    var_levels, depth:
        Logic level of every variable (constant and inputs are 0) and
        the maximum level; they answer ``AIG.levels()``/``depth()``.
    level_ops, max_width:
        The per-level ops and the widest level's node count (sizes the
        gather scratch).
    slot, out_slot, out_mask:
        Variable-to-slot permutation, output slot gather vector and
        output complement mask.
    """

    def __init__(self, aig):
        self.n_inputs = aig.n_inputs
        self.num_vars = aig.num_vars
        self.num_outputs = aig.num_outputs
        f0 = np.asarray(aig._fanin0, dtype=np.int64)
        f1 = np.asarray(aig._fanin1, dtype=np.int64)
        v0, v1 = f0 >> 1, f1 >> 1
        c0, c1 = (f0 & 1).astype(bool), (f1 & 1).astype(bool)
        lv = _levelize(self.n_inputs, v0, v1)
        self.var_levels = lv
        self.depth = int(lv.max()) if lv.size else 0
        node_lv = lv[1 + self.n_inputs :]
        # Within each level, order nodes by complement pattern
        # (c0, c1) as 00, 01, 11, 10.  That makes both complemented
        # runs contiguous — fanin-1 complements occupy [c1_lo, c1_hi)
        # and fanin-0 complements the tail [c0_start, k) — so
        # evaluation applies them with cheap scalar-XOR slice ops
        # instead of a per-node broadcast mask.
        group_rank = np.array([0, 3, 1, 2], dtype=np.int8)  # index c0+2*c1
        rank = group_rank[(c0 + 2 * c1).astype(np.int8)]
        order = np.argsort(node_lv * 4 + rank, kind="stable")
        bounds = np.searchsorted(node_lv[order], np.arange(1, self.depth + 2))
        base = 1 + self.n_inputs
        num_ands = v0.shape[0]
        # Slot layout: constant and inputs keep their indices, AND node
        # at global level-order position p lands in slot base + p.
        self.slot = np.arange(self.num_vars, dtype=np.int64)
        self.slot[base + order] = base + np.arange(num_ands, dtype=np.int64)
        v0s, v1s = self.slot[v0], self.slot[v1]
        self.level_ops: list[tuple[int, int, np.ndarray, int, int, int]] = []
        self.max_width = 0
        start = 0
        for stop in bounds:
            sel = order[start:stop]
            if sel.size:
                k = sel.size
                idx01 = np.concatenate((v0s[sel], v1s[sel]))
                counts = np.bincount(rank[sel], minlength=4)
                c1_lo = int(counts[0])
                c1_hi = int(counts[0] + counts[1] + counts[2])
                c0_start = int(counts[0] + counts[1])
                self.level_ops.append(
                    (base + start, base + stop, idx01, c0_start, c1_lo, c1_hi)
                )
                self.max_width = max(self.max_width, k)
            start = stop
        outs = np.asarray(aig.outputs, dtype=np.int64)
        self.out_slot = self.slot[outs >> 1]
        zero = np.uint64(0)
        self.out_mask = np.where(outs & 1, ALL_ONES, zero).astype(np.uint64)
        self._values: np.ndarray | None = None
        self._scratch: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Packed evaluation
    # ------------------------------------------------------------------
    def _arena(self, n_words: int) -> tuple[np.ndarray, np.ndarray]:
        """The slot arena and gather scratch, rebuilt when n_words changes."""
        values, scratch = self._values, self._scratch
        if values is None or scratch is None or values.shape[1] != n_words:
            values = np.empty((self.num_vars, n_words), dtype=np.uint64)
            scratch = np.empty((2 * self.max_width, n_words), dtype=np.uint64)
            self._values, self._scratch = values, scratch
        return values, scratch

    def _run_slots(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Evaluate into the slot layout (borrowed buffer — copy out).

        Every slot row is written (const row, input rows, then node
        ranges level by level), so the arena needs no zero-fill.  Each
        level is a handful of whole-array ops: a fused ``np.take`` of
        both fanin row sets, scalar XORs over the contiguous complement
        runs, and an AND written straight into the level's contiguous
        slot range.
        """
        packed = validate_packed(packed_inputs, self.n_inputs)
        values, scratch = self._arena(packed.shape[1])
        values[0] = 0
        values[1 : 1 + self.n_inputs] = packed
        for lo, hi, idx01, c0_start, c1_lo, c1_hi in self.level_ops:
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

    def run_packed_all(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Values of *every* variable, shape ``(num_vars, n_words)``.

        Bit-exact drop-in for the seed ``AIG.simulate_packed_all``.
        """
        values = self._run_slots(packed_inputs)
        # Permute back from slot layout to variable order (also copies
        # out of the reused arena).
        return values.take(self.slot, axis=0)

    def count_ones(self, packed_inputs: np.ndarray, n_samples: int) -> np.ndarray:
        """Ones of every variable over the first ``n_samples`` packed
        samples, in variable order: the popcounts of
        :meth:`run_packed_all`, counted in the slot layout so that only
        the counts are permuted back."""
        values = self._run_slots(packed_inputs)
        pad = n_samples % 64
        if pad:  # the arena is scratch: every run rewrites each row
            values[:, -1] &= np.uint64((1 << pad) - 1)
        ones = np.bitwise_count(values).sum(axis=1, dtype=np.int64)
        return ones.take(self.slot)

    def run_packed(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Packed output values, shape ``(num_outputs, n_words)``."""
        values = self._run_slots(packed_inputs)
        if not self.num_outputs:
            return np.zeros((0, values.shape[1]), dtype=np.uint64)
        out = values.take(self.out_slot, axis=0)
        np.bitwise_xor(out, self.out_mask[:, None], out=out)
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
