"""Simulation program IR.

A :class:`SimProgram` is an AIG lowered into flat levelized arrays:
one ``(lo, hi, idx01, c0_start, c1_lo, c1_hi)`` tuple per logic level
(``level_ops``) giving the contiguous *slot* range updated on that
level, the fused fanin gather vector (all fanin-0 slots then all
fanin-1 slots) and the boundaries of the complemented runs.
:class:`repro.sim.engine.CompiledAIG` executes it level by level.

Programs are immutable once built, independent of the source
:class:`~repro.aig.aig.AIG`, and picklable.
"""

from __future__ import annotations

import numpy as np

ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Bump when the compiled layout changes incompatibly (pickled programs
#: must never be interpreted by a mismatched engine).
PROGRAM_SCHEMA = 2


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
    progress: a round that settles ``s`` nodes while ``c`` still churn
    predicts ``c / s`` more rounds, and once that forecast exceeds the
    vector/scalar break-even (~64 rounds) the remaining work is done
    scalar.  Balanced circuits settle whole levels per round and never
    trip it; a chain settles one node per round and bails immediately.

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
    # compared.
    prev_changed: int | None = None
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
            if changed > 64 * settled:
                break
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


class SimProgram:
    """An AIG flattened into executable gather/mask arrays.

    Attributes
    ----------
    n_inputs, num_vars, num_outputs:
        Interface of the source graph.
    var_levels, depth:
        Logic level of every variable (constant and inputs are 0) and
        the maximum level; kept so cached engines also answer
        ``AIG.levels()``/``depth()`` for free.
    level_ops, max_width:
        The per-level ops (see module docstring) and the widest
        level's node count (sizes the engine's scratch buffer).
    slot, out_slot, out_mask:
        Variable-to-slot permutation, output slot gather vector and
        output complement mask.

    Internally values live in a *slot* layout — variables renumbered
    so every level occupies a contiguous row range — which turns the
    per-level scatter into a slice store fused with the AND.
    The engine evaluates in slot space and permutes back to variable
    order on the way out.
    """

    schema: int
    n_inputs: int
    num_vars: int
    num_outputs: int
    var_levels: np.ndarray
    depth: int
    slot: np.ndarray
    max_width: int
    out_var: np.ndarray
    out_slot: np.ndarray
    out_mask: np.ndarray

    def __init__(self, aig):
        self.schema = PROGRAM_SCHEMA
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
        self.out_var = outs >> 1
        self.out_slot = self.slot[self.out_var]
        zero = np.uint64(0)
        self.out_mask = np.where(outs & 1, ALL_ONES, zero).astype(np.uint64)

    @property
    def num_ands(self) -> int:
        return self.num_vars - 1 - self.n_inputs

    @property
    def level_widths(self) -> list[int]:
        """Number of AND nodes on each logic level ``>= 1``."""
        return [hi - lo for lo, hi, *_ in self.level_ops]
