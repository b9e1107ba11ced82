"""CGP genome: a single row of two-input function nodes.

Each node ``i`` is a 3-tuple ``(func, in0, in1)`` where the inputs may
reference any primary input or any earlier node (feed-forward,
single-line layout as in Team 9's write-up).  One extra output gene
selects which node (or input) drives the primary output.

Two function sets mirror Team 9's AIG / XAIG choice: the AIG set is
ANDs with all fanin-inversion combinations plus OR/NAND/NOT; XAIG adds
XOR and XNOR.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence

import numpy as np

from repro.aig.aig import AIG, lit_not

_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def _f_and(a, b):
    return a & b


def _f_and_na(a, b):
    return (a ^ _ONES) & b


def _f_and_nb(a, b):
    return a & (b ^ _ONES)


def _f_nor(a, b):
    return (a ^ _ONES) & (b ^ _ONES)


def _f_or(a, b):
    return a | b


def _f_nand(a, b):
    return (a & b) ^ _ONES


def _f_not(a, b):
    del b
    return a ^ _ONES


def _f_buf(a, b):
    del b
    return a


def _f_xor(a, b):
    return a ^ b


def _f_xnor(a, b):
    return (a ^ b) ^ _ONES


AIG_FUNCTIONS: tuple[str, ...] = (
    "and", "and_na", "and_nb", "nor", "or", "nand", "not", "buf",
)
XAIG_FUNCTIONS: tuple[str, ...] = AIG_FUNCTIONS + ("xor", "xnor")

_IMPL: dict[str, Callable] = {
    "and": _f_and,
    "and_na": _f_and_na,
    "and_nb": _f_and_nb,
    "nor": _f_nor,
    "or": _f_or,
    "nand": _f_nand,
    "not": _f_not,
    "buf": _f_buf,
    "xor": _f_xor,
    "xnor": _f_xnor,
}


class CGPGenome:
    """Integer-encoded single-row CGP individual."""

    def __init__(
        self,
        n_inputs: int,
        n_nodes: int,
        function_set: Sequence[str] = AIG_FUNCTIONS,
        funcs: np.ndarray | None = None,
        in0: np.ndarray | None = None,
        in1: np.ndarray | None = None,
        output: int = 0,
    ):
        self.n_inputs = n_inputs
        self.n_nodes = n_nodes
        self.function_set = tuple(function_set)
        self.funcs = funcs if funcs is not None else np.zeros(n_nodes, np.int64)
        self.in0 = in0 if in0 is not None else np.zeros(n_nodes, np.int64)
        self.in1 = in1 if in1 is not None else np.zeros(n_nodes, np.int64)
        self.output = output

    # ------------------------------------------------------------------
    @staticmethod
    def random(
        n_inputs: int,
        n_nodes: int,
        rng: np.random.Generator,
        function_set: Sequence[str] = AIG_FUNCTIONS,
    ) -> "CGPGenome":
        g = CGPGenome(n_inputs, n_nodes, function_set)
        g.funcs = rng.integers(0, len(function_set), size=n_nodes)
        limits = n_inputs + np.arange(n_nodes)
        g.in0 = rng.integers(0, limits)
        g.in1 = rng.integers(0, limits)
        g.output = int(rng.integers(0, n_inputs + n_nodes))
        return g

    def copy(self) -> "CGPGenome":
        return CGPGenome(
            self.n_inputs,
            self.n_nodes,
            self.function_set,
            self.funcs.copy(),
            self.in0.copy(),
            self.in1.copy(),
            self.output,
        )

    # ------------------------------------------------------------------
    def active_nodes(self) -> list[int]:
        """Node indices in the phenotype, in evaluation order."""
        n_inputs = self.n_inputs
        in0, in1 = self.in0.tolist(), self.in1.tolist()
        active = set()
        stack = [self.output - n_inputs]
        while stack:
            node = stack.pop()
            if node < 0 or node in active:
                continue
            active.add(node)
            stack.append(in0[node] - n_inputs)
            stack.append(in1[node] - n_inputs)
        return sorted(active)

    def evaluate_packed(self, packed_inputs: np.ndarray) -> np.ndarray:
        """Bit-parallel evaluation; returns packed output row."""
        return self._evaluate_active(packed_inputs, self.active_nodes())

    def _evaluate_active(self, packed_inputs: np.ndarray,
                         active: list[int]) -> np.ndarray:
        """:meth:`evaluate_packed` over an already computed
        :meth:`active_nodes` list."""
        n_inputs = self.n_inputs
        impls = [_IMPL[name] for name in self.function_set]
        funcs = self.funcs.tolist()
        in0, in1 = self.in0.tolist(), self.in1.tolist()
        # Data index i is input row i below n_inputs, else the value of
        # node i - n_inputs; an active node's fanins are inputs or
        # earlier active nodes, and so is the output.
        values: list = [None] * (n_inputs + self.n_nodes)
        for node in active:
            a, b = in0[node], in1[node]
            values[n_inputs + node] = impls[funcs[node]](
                packed_inputs[a] if a < n_inputs else values[a],
                packed_inputs[b] if b < n_inputs else values[b],
            )
        out = self.output
        return packed_inputs[out] if out < n_inputs else values[out]

    def evaluate(self, X: np.ndarray) -> np.ndarray:
        from repro.utils.bitops import pack_bits, unpack_bits

        X = np.asarray(X, dtype=np.uint8)
        packed = pack_bits(X)
        out = self.evaluate_packed(packed)
        return unpack_bits(out[None, :], X.shape[0])[:, 0]

    # ------------------------------------------------------------------
    def mutate(
        self, rate: float, rng: np.random.Generator
    ) -> tuple["CGPGenome", np.ndarray]:
        """Point mutation: every gene flips with probability ``rate``.

        At least one gene always flips (standard CGP practice — a
        zero-change offspring wastes an evaluation), except at rate 0,
        which is an explicit identity for tests.

        Returns the child and the genes it redrew: one flag per node
        (any of its three genes), then one for the output gene.  A
        redrawn gene may keep its value, so the flags cover every
        change and may flag more.
        """
        child = self.copy()
        n = self.n_nodes
        n_funcs = len(self.function_set)
        redrawn = np.zeros(n + 1, dtype=bool)
        # Genes are redrawn in index order; a draw of no values takes
        # nothing from the generator, so an empty one is skipped.
        flip = np.flatnonzero(rng.random(n) < rate)
        if flip.size:
            child.funcs[flip] = rng.integers(0, n_funcs, size=flip.size)
            redrawn[flip] = True
        for genes in (child.in0, child.in1):
            flip = np.flatnonzero(rng.random(n) < rate)
            if flip.size:
                # Node i may read data indices below n_inputs + i.
                genes[flip] = rng.integers(0, self.n_inputs + flip)
                redrawn[flip] = True
        nothing_flipped = not redrawn.any()
        if rng.random() < rate:
            child.output = int(rng.integers(0, self.n_inputs + n))
            redrawn[n] = True
        if rate > 0 and nothing_flipped:
            node = int(rng.integers(0, n))
            which = rng.integers(0, 3)
            if which == 0:
                child.funcs[node] = rng.integers(0, n_funcs)
            elif which == 1:
                child.in0[node] = rng.integers(0, self.n_inputs + node)
            else:
                child.in1[node] = rng.integers(0, self.n_inputs + node)
            redrawn[node] = True
        return child, redrawn

    # ------------------------------------------------------------------
    def to_aig(self) -> AIG:
        """Compile the phenotype into an AIG."""
        aig = AIG(self.n_inputs)
        lits: dict[int, int] = {
            i: aig.input_lit(i) for i in range(self.n_inputs)
        }
        for node in self.active_nodes():
            name = self.function_set[self.funcs[node]]
            a = lits[int(self.in0[node])]
            b = lits[int(self.in1[node])]
            if name == "and":
                lit = aig.add_and(a, b)
            elif name == "and_na":
                lit = aig.add_and(lit_not(a), b)
            elif name == "and_nb":
                lit = aig.add_and(a, lit_not(b))
            elif name == "nor":
                lit = aig.add_and(lit_not(a), lit_not(b))
            elif name == "or":
                lit = aig.add_or(a, b)
            elif name == "nand":
                lit = lit_not(aig.add_and(a, b))
            elif name == "not":
                lit = lit_not(a)
            elif name == "buf":
                lit = a
            elif name == "xor":
                lit = aig.add_xor(a, b)
            elif name == "xnor":
                lit = lit_not(aig.add_xor(a, b))
            else:
                raise ValueError(f"unknown function {name!r}")
            lits[self.n_inputs + node] = lit
        out = lits.get(self.output, 0)
        aig.set_output(out)
        return aig

    @staticmethod
    def from_aig(
        aig: AIG,
        rng: np.random.Generator | None = None,
        function_set: Sequence[str] = AIG_FUNCTIONS,
    ) -> "CGPGenome":
        """Bootstrap a genome from an AIG (Team 9's initialization).

        The AIG's used AND nodes occupy the genome prefix; the remaining
        node slots (twice the AIG size in all, per the write-up) are
        randomized and non-functional.
        """
        compact = aig.extract_cone([aig.outputs[0]])
        needed = compact.num_ands + 2  # room for output NOT / constants
        n_nodes = max(2 * compact.num_ands, needed, 8)
        if rng is None:
            rng = np.random.default_rng(0)
        g = CGPGenome.random(compact.n_inputs, n_nodes, rng, function_set)
        fs = list(function_set)
        base = compact.n_inputs + 1
        # AIG var -> CGP data index.
        index_of = {0: 0}  # constant: approximated below
        for i in range(compact.n_inputs):
            index_of[1 + i] = i
        for j in range(compact.num_ands):
            f0, f1 = compact.fanins(base + j)
            c0, c1 = f0 & 1, f1 & 1
            name = {
                (0, 0): "and", (1, 0): "and_na",
                (0, 1): "and_nb", (1, 1): "nor",
            }[(c0, c1)]
            g.funcs[j] = fs.index(name)
            g.in0[j] = index_of[f0 >> 1]
            g.in1[j] = index_of[f1 >> 1]
            index_of[base + j] = compact.n_inputs + j
        out_lit = compact.outputs[0]
        if out_lit >> 1 == 0:
            # Constant output: const-0 as (x & ~x), negated for const-1.
            slot = compact.num_ands
            g.funcs[slot] = fs.index("and_na")
            g.in0[slot] = 0
            g.in1[slot] = 0
            out_idx = compact.n_inputs + slot
            if out_lit & 1:
                g.funcs[slot + 1] = fs.index("not")
                g.in0[slot + 1] = out_idx
                g.in1[slot + 1] = 0
                out_idx = compact.n_inputs + slot + 1
            g.output = out_idx
            return g
        out_idx = index_of[out_lit >> 1]
        if out_lit & 1:
            slot = compact.num_ands
            g.funcs[slot] = fs.index("not")
            g.in0[slot] = out_idx
            g.in1[slot] = 0
            out_idx = compact.n_inputs + slot
        g.output = out_idx
        return g
