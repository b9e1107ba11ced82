"""Core And-Inverter Graph data structure.

Literals follow the AIGER convention: variable 0 is the constant false,
variables ``1 .. n_inputs`` are the primary inputs, and AND nodes take
the following variable indices.  The literal of variable ``v`` is
``2 * v``; ``2 * v + 1`` is its complement.  Fanin variable indices are
always smaller than the node's own index, so the node list is already a
topological order.

The graph is structurally hashed: :meth:`AIG.add_and` folds constants,
normalizes fanin order and reuses an existing node when one computes
the same function of the same fanins.  Nodes are only ever appended,
so the node count and the outputs identify a graph's structure.  The
engine's passes price a candidate without touching the graph
(:mod:`repro.aig.opt.counting`) and build only the winner.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from repro.utils.bitops import bits_to_int

if TYPE_CHECKING:
    from repro.sim.engine import CompiledAIG

CONST0 = 0
CONST1 = 1


def lit_var(lit: int) -> int:
    """Variable index of a literal."""
    return lit >> 1


def lit_not(lit: int) -> int:
    """Complement of a literal."""
    return lit ^ 1


def lit_make(var: int) -> int:
    """Positive literal for variable ``var``."""
    return var << 1


class GateOps:
    """Derived gates expressed through ``add_and``.

    Mixed into :class:`AIG`; any other class with the same ``add_and``
    contract gets the same gate decompositions by mixing it in too.
    """

    def add_and(self, a: int, b: int) -> int:  # pragma: no cover
        raise NotImplementedError

    def add_or(self, a: int, b: int) -> int:
        """OR via De Morgan."""
        return lit_not(self.add_and(lit_not(a), lit_not(b)))

    def add_xor(self, a: int, b: int) -> int:
        """XOR as two ANDs plus an OR (3 AND nodes)."""
        return self.add_or(
            self.add_and(a, lit_not(b)), self.add_and(lit_not(a), b)
        )

    def add_mux(self, sel: int, t: int, e: int) -> int:
        """``sel ? t : e``."""
        return self.add_or(self.add_and(sel, t), self.add_and(lit_not(sel), e))

    def add_maj3(self, a: int, b: int, c: int) -> int:
        """Majority of three literals."""
        return self.add_or(
            self.add_and(a, b), self.add_or(self.add_and(a, c), self.add_and(b, c))
        )

    def add_and_multi(self, lits: Sequence[int]) -> int:
        """Balanced conjunction of many literals."""
        return self._reduce_balanced(list(lits), self.add_and, CONST1)

    def add_or_multi(self, lits: Sequence[int]) -> int:
        """Balanced disjunction of many literals."""
        return self._reduce_balanced(list(lits), self.add_or, CONST0)

    def add_xor_multi(self, lits: Sequence[int]) -> int:
        """Balanced parity of many literals."""
        return self._reduce_balanced(list(lits), self.add_xor, CONST0)

    @staticmethod
    def _reduce_balanced(lits, op, identity):
        if not lits:
            return identity
        while len(lits) > 1:
            nxt = []
            for i in range(0, len(lits) - 1, 2):
                nxt.append(op(lits[i], lits[i + 1]))
            if len(lits) % 2:
                nxt.append(lits[-1])
            lits = nxt
        return lits[0]


class AIG(GateOps):
    """A structurally hashed And-Inverter Graph.

    Parameters
    ----------
    n_inputs:
        Number of primary inputs.  Input ``i`` (0-based) has literal
        :meth:`input_lit`\\ ``(i)``.
    """

    def __init__(self, n_inputs: int):
        if n_inputs < 0:
            raise ValueError("n_inputs must be non-negative")
        self.n_inputs = n_inputs
        # Fanins of AND nodes; AND node j has variable index
        # n_inputs + 1 + j.
        self._fanin0: list[int] = []
        self._fanin1: list[int] = []
        self.outputs: list[int] = []
        # ``(num_ands, outputs, engine)``: see :meth:`compiled`.
        self._compiled: tuple[int, tuple[int, ...], CompiledAIG] | None = None

    @functools.cached_property
    def _strash(self) -> dict[tuple[int, int], int]:
        """``(fanin0, fanin1) -> literal`` of every AND node.

        Derived from the fanin lists on first use, then kept in step by
        :meth:`add_and`, the only way a node enters the graph; a graph
        that is only simulated or renumbered never builds it.
        """
        base = self.n_inputs + 1
        return dict(zip(
            zip(self._fanin0, self._fanin1, strict=True),
            range(2 * base, 2 * (base + self.num_ands), 2),
            strict=True,
        ))

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    @property
    def num_ands(self) -> int:
        """Number of AND nodes."""
        return len(self._fanin0)

    @property
    def num_vars(self) -> int:
        """Total variable count: constant + inputs + AND nodes."""
        return 1 + self.n_inputs + self.num_ands

    @property
    def num_outputs(self) -> int:
        return len(self.outputs)

    def input_lit(self, i: int) -> int:
        """Literal of primary input ``i`` (0-based)."""
        if not 0 <= i < self.n_inputs:
            raise IndexError(f"input index {i} out of range")
        return lit_make(1 + i)

    def input_lits(self) -> list[int]:
        """Literals of all primary inputs, in order."""
        return [lit_make(1 + i) for i in range(self.n_inputs)]

    def is_const_var(self, var: int) -> bool:
        return var == 0

    def is_input_var(self, var: int) -> bool:
        return 1 <= var <= self.n_inputs

    def is_and_var(self, var: int) -> bool:
        return var > self.n_inputs

    def fanins(self, var: int) -> tuple[int, int]:
        """Fanin literals of AND node variable ``var``."""
        idx = var - self.n_inputs - 1
        if idx < 0:
            raise ValueError(f"variable {var} is not an AND node")
        return self._fanin0[idx], self._fanin1[idx]

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_and(self, a: int, b: int) -> int:
        """AND of two literals with constant folding and strashing."""
        if a > b:
            a, b = b, a
        # Constant and trivial cases.
        if a == CONST0:
            return CONST0
        if a == CONST1:
            return b
        if a == b:
            return a
        if a == lit_not(b):
            return CONST0
        key = (a, b)
        found = self._strash.get(key)
        if found is not None:
            return found
        fanin0 = self._fanin0
        lit = (self.n_inputs + 1 + len(fanin0)) << 1
        fanin0.append(a)
        self._fanin1.append(b)
        self._strash[key] = lit
        return lit

    def set_output(self, lit: int) -> int:
        """Append an output literal; returns its output index."""
        self.outputs.append(lit)
        return len(self.outputs) - 1

    # ------------------------------------------------------------------
    # Structural analysis
    # ------------------------------------------------------------------
    def levels(self) -> np.ndarray:
        """Level of every variable (constant and inputs are level 0)."""
        return self.compiled().var_levels.copy()

    def depth(self) -> int:
        """Number of logic levels on the longest output path."""
        if not self.outputs:
            return 0
        lv = self.compiled().var_levels
        return int(max(lv[lit_var(o)] for o in self.outputs))

    def fanout_counts(self) -> np.ndarray:
        """Number of fanout references per variable (incl. outputs)."""
        refs = np.fromiter(
            chain(self._fanin0, self._fanin1, self.outputs), dtype=np.int64,
            count=2 * self.num_ands + len(self.outputs),
        )
        return np.bincount(refs >> 1, minlength=self.num_vars)

    def reachable_vars(self, lits: Iterable[int] | None = None) -> np.ndarray:
        """Boolean mask of variables in the transitive fanin of ``lits``.

        Defaults to the registered outputs.
        """
        if lits is None:
            lits = self.outputs
        return _reachable(self.n_inputs, self._fanin0, self._fanin1, lits)

    def count_used_ands(self, lits: Iterable[int] | None = None) -> int:
        """AND nodes in the transitive fanin of ``lits`` (default outputs)."""
        mask = self.reachable_vars(lits)
        return int(mask[self.n_inputs + 1 :].sum())

    def extract_cone(self, lits: Sequence[int] | None = None) -> "AIG":
        """Compact copy containing only logic reachable from ``lits``.

        Primary inputs are all preserved (same indices) so the new graph
        computes the same function of the same input vector.  ``lits``
        defaults to the registered outputs.
        """
        if lits is None:
            lits = self.outputs
        lits = [int(lit) for lit in lits]
        return AIG._renumbered(
            self.n_inputs,
            np.asarray(self._fanin0, dtype=np.int64),
            np.asarray(self._fanin1, dtype=np.int64),
            _reachable(self.n_inputs, self._fanin0, self._fanin1, lits),
            lits,
        )

    @classmethod
    def _renumbered(
        cls, n_inputs: int, fanin0: np.ndarray, fanin1: np.ndarray,
        keep: np.ndarray, outputs: list[int],
    ) -> "AIG":
        """The graph of the AND nodes marked in ``keep``, renumbered in order.

        Every node enters an :class:`AIG` through :meth:`add_and`, so a
        graph is always strashed: fanins are sorted, never constant, and
        no two nodes share a key.  Kept nodes must reference only kept
        nodes and inputs, and together satisfy the same three
        properties.  An injective, order-preserving renumbering keeps
        all three, so kept nodes are copied as they are, without strash
        lookups: the graph :meth:`add_and` would rebuild.  Its strash
        table is derived when first needed.

        ``keep`` masks the variables to keep (the constant and inputs
        always are; the mask is updated in place); ``outputs`` are
        literals of kept variables.
        """
        base = n_inputs + 1
        keep[:base] = True
        new_var = np.cumsum(keep) - 1
        kept = np.flatnonzero(keep[base:])
        f0, f1 = fanin0[kept], fanin1[kept]
        new = cls(n_inputs)
        new._fanin0 = ((new_var[f0 >> 1] << 1) | (f0 & 1)).tolist()
        new._fanin1 = ((new_var[f1 >> 1] << 1) | (f1 & 1)).tolist()
        new.outputs = [(int(new_var[lit >> 1]) << 1) | (lit & 1) for lit in outputs]
        return new

    def copy(self) -> "AIG":
        """Deep copy."""
        new = AIG(self.n_inputs)
        new._fanin0 = list(self._fanin0)
        new._fanin1 = list(self._fanin1)
        new.outputs = list(self.outputs)
        return new

    # ------------------------------------------------------------------
    # Simulation (delegates to the levelized engine in repro.sim)
    # ------------------------------------------------------------------
    def compiled(self) -> CompiledAIG:
        """The levelized simulation engine for the current structure.

        Compiled lazily and cached, so repeated simulations of the same
        graph — the common case when scoring one candidate on several
        sample sets — pay the compile cost once.  Nodes are only
        appended, so the node count and the outputs identify the
        structure: the cache entry ``(num_ands, outputs, engine)`` is
        stale once a node is appended or an output is added or rewired
        in place (``outputs`` is a public list).
        """
        from repro.sim.engine import CompiledAIG

        n_ands, outs = self.num_ands, tuple(self.outputs)
        if self._compiled is None or self._compiled[:2] != (n_ands, outs):
            self._compiled = (n_ands, outs, CompiledAIG(self))
        return self._compiled[2]

    def simulate_packed_all(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Bit-parallel simulation returning values of *every* variable.

        ``packed_inputs`` has shape ``(n_inputs, n_words)`` with 64
        samples per uint64 word (see :func:`repro.utils.pack_bits`).
        Returns the full value matrix, shape ``(num_vars, n_words)``,
        in positive polarity (row of variable ``v`` is ``v``'s value).
        """
        return self.compiled().run_packed_all(packed_inputs)

    def simulate(self, samples: np.ndarray) -> np.ndarray:
        """Evaluate on a ``(n_samples, n_inputs)`` 0/1 matrix.

        Returns a ``(n_samples, n_outputs)`` uint8 matrix.
        """
        return self.compiled().run(samples)

    def truth_tables(self) -> list[int]:
        """Exhaustive truth table of each output as a Python int.

        Bit ``m`` of the result is the output value on the input
        assignment whose bits are the binary digits of ``m`` (input 0 is
        the least significant digit).  Only sensible for small input
        counts (``n_inputs <= 20``).
        """
        n = self.n_inputs
        if n > 20:
            raise ValueError("truth tables limited to 20 inputs")
        n_rows = 1 << n
        grid = np.zeros((n_rows, n), dtype=np.uint8)
        for i in range(n):
            period = 1 << (i + 1)
            pattern = np.zeros(period, dtype=np.uint8)
            pattern[1 << i :] = 1
            grid[:, i] = np.tile(pattern, n_rows // period)
        values = self.simulate(grid)
        return [bits_to_int(values[:, k]) for k in range(self.num_outputs)]

    def __repr__(self) -> str:
        return (
            f"AIG(inputs={self.n_inputs}, ands={self.num_ands}, "
            f"outputs={self.num_outputs})"
        )


def _reachable(
    n_inputs: int, fanin0: list[int], fanin1: list[int], lits: Iterable[int]
) -> np.ndarray:
    """Mask of the variables in the transitive fanin of ``lits``.

    One reverse sweep: a node's fanins precede it, so by the time the
    sweep reaches a variable every fanout that marks it has been seen.
    """
    n_vars = n_inputs + 1 + len(fanin0)
    mark = bytearray(n_vars)
    for lit in lits:
        if not 0 <= lit < 2 * n_vars:
            raise ValueError(f"literal {lit} is not a literal of this graph")
        mark[lit >> 1] = 1
    nodes = zip(
        range(n_vars - 1, n_inputs, -1), reversed(fanin0), reversed(fanin1),
        strict=True,
    )
    for var, f0, f1 in nodes:
        if mark[var]:
            mark[f0 >> 1] = 1
            mark[f1 >> 1] = 1
    return np.frombuffer(mark, dtype=np.bool_)
