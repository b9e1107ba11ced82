"""Circuit builders: word-level arithmetic and structured functions.

These are used in three places: the pre-defined standard function
matchers (Teams 1 and 7) emit exact adder/comparator/parity/symmetric
AIGs; the benchmark suite uses small instances as ground truth in
tests; and the synthesis bridges build MUX trees, LUTs and voter
networks from learned models.

All word operands are little-endian literal lists (index 0 = LSB).
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import lru_cache

from repro.aig.aig import AIG, CONST0, CONST1, lit_not
from repro.aig.isop import isop
from repro.aig.opt.counting import Program, price, replay


def full_adder(aig: AIG, a: int, b: int, cin: int) -> tuple[int, int]:
    """One-bit full adder; returns ``(sum, carry)``."""
    s = aig.add_xor(aig.add_xor(a, b), cin)
    c = aig.add_maj3(a, b, cin)
    return s, c


def ripple_adder(
    aig: AIG, a: Sequence[int], b: Sequence[int], cin: int = CONST0
) -> list[int]:
    """Ripple-carry adder; returns ``width + 1`` sum bits (last = carry)."""
    if len(a) != len(b):
        raise ValueError("operand widths differ")
    out = []
    carry = cin
    for ai, bi in zip(a, b, strict=True):
        s, carry = full_adder(aig, ai, bi, carry)
        out.append(s)
    out.append(carry)
    return out


def ripple_subtractor(
    aig: AIG, a: Sequence[int], b: Sequence[int]
) -> tuple[list[int], int]:
    """``a - b`` via two's complement; returns ``(diff bits, borrow)``.

    ``borrow`` is 1 when ``a < b`` (unsigned).
    """
    b_inv = [lit_not(x) for x in b]
    s = ripple_adder(aig, list(a), b_inv, cin=CONST1)
    return s[:-1], lit_not(s[-1])


def comparator_greater(aig: AIG, a: Sequence[int], b: Sequence[int]) -> int:
    """``a > b`` (unsigned) literal."""
    diff, borrow = ripple_subtractor(aig, b, a)
    del diff
    return borrow  # b < a


def comparator_less(aig: AIG, a: Sequence[int], b: Sequence[int]) -> int:
    """``a < b`` (unsigned) literal."""
    return comparator_greater(aig, b, a)


def equality(aig: AIG, a: Sequence[int], b: Sequence[int]) -> int:
    """``a == b`` literal."""
    xors = [aig.add_xor(x, y) for x, y in zip(a, b, strict=True)]
    return lit_not(aig.add_or_multi(xors))


def multiplier(aig: AIG, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Array multiplier; returns ``len(a) + len(b)`` product bits."""
    width = len(a) + len(b)
    acc = [CONST0] * width
    for j, bj in enumerate(b):
        partial = [CONST0] * j + [aig.add_and(ai, bj) for ai in a]
        partial += [CONST0] * (width - len(partial))
        acc = ripple_adder(aig, acc, partial)[:width]
    return acc


def parity(aig: AIG, lits: Sequence[int]) -> int:
    """XOR of all literals."""
    return aig.add_xor_multi(list(lits))


def parity_chain(n_inputs: int = 4, n_nodes: int = 5000) -> AIG:
    """Standalone chain-shaped parity accumulator.

    Folds one rotating input at a time through :func:`parity`, so the
    graph is a deep XOR chain instead of the balanced tree
    :func:`parity` builds on its own — depth grows linearly with
    ``n_nodes``.  This is the worst-case shape for cone walks (its
    4-feasible cuts span the whole chain) and is shared by the
    chain-regression tests and ``benchmarks/bench_opt_engine.py``.
    """
    aig = AIG(n_inputs)
    xs = aig.input_lits()
    acc = xs[0]
    i = 0
    while aig.num_ands < n_nodes:
        acc = parity(aig, [acc, xs[i % n_inputs]])
        i += 1
    aig.set_output(acc)
    return aig


def ones_counter(aig: AIG, lits: Sequence[int]) -> list[int]:
    """Population count of the literals as a little-endian word.

    Built as a balanced adder tree over 1-bit words.
    """
    words: list[list[int]] = [[lit] for lit in lits]
    if not words:
        return [CONST0]
    while len(words) > 1:
        nxt = []
        for i in range(0, len(words) - 1, 2):
            a, b = words[i], words[i + 1]
            width = max(len(a), len(b))
            a = list(a) + [CONST0] * (width - len(a))
            b = list(b) + [CONST0] * (width - len(b))
            nxt.append(ripple_adder(aig, a, b))
        if len(words) % 2:
            nxt.append(words[-1])
        words = nxt
    return words[0]


def symmetric_function(aig: AIG, lits: Sequence[int], signature: str) -> int:
    """Symmetric function of ``n`` inputs from its value vector.

    ``signature`` has ``n + 1`` characters; character ``i`` is the
    output when exactly ``i`` inputs are 1 (as in ABC's ``symfun``).
    """
    n = len(lits)
    if len(signature) != n + 1:
        raise ValueError(
            f"signature length {len(signature)} != n+1 = {n + 1}"
        )
    count = ones_counter(aig, lits)
    terms = []
    for value, ch in enumerate(signature):
        if ch != "1":
            continue
        bits = [(value >> i) & 1 for i in range(len(count))]
        match = aig.add_and_multi(
            [c if bit else lit_not(c) for c, bit in zip(count, bits, strict=True)]
        )
        terms.append(match)
    return aig.add_or_multi(terms)


def majority_n(aig: AIG, lits: Sequence[int]) -> int:
    """Majority of an odd number of literals via a ones counter."""
    n = len(lits)
    if n % 2 == 0:
        raise ValueError("majority_n expects an odd number of inputs")
    count = ones_counter(aig, lits)
    threshold = n // 2 + 1
    # count >= threshold  <=>  count > threshold - 1.
    const_bits = [
        CONST1 if ((threshold - 1) >> i) & 1 else CONST0
        for i in range(len(count))
    ]
    return comparator_greater(aig, count, const_bits)


def maj5_tree(aig: AIG, lits: Sequence[int]) -> int:
    """Team 7's 3-layer network of 5-input majority gates.

    Approximates a wide majority vote (e.g. over 125 boosted-tree
    outputs) with a tree of MAJ-5 gates.  Input count must be 5, 25 or
    125; shorter lists are padded by repeating the last literal.
    """
    lits = list(lits)
    size = 5
    while size < len(lits):
        size *= 5
    if size > 125:
        raise ValueError("maj5_tree supports at most 125 inputs")
    lits += [lits[-1]] * (size - len(lits))
    while len(lits) > 1:
        lits = [
            majority_n(aig, lits[i : i + 5]) for i in range(0, len(lits), 5)
        ]
    return lits[0]


def compile_sop(cover, k: int) -> Program:
    """Compile an OR of cube-ANDs over ``k`` leaves into an AND program.

    The program (see :mod:`repro.aig.opt.counting`) makes exactly the
    ``add_and`` calls the decomposition makes over real leaf literals:
    a balanced AND per cube, then a balanced De Morgan OR of the
    cubes.  A repeated fanin pair is emitted once, as a real build
    would strash it onto its first occurrence.
    """
    nodes: list[tuple[int, int]] = []
    index: dict[tuple[int, int], int] = {}
    # First each cube's literals, then the complemented cube terms:
    # the OR is the complement of their AND, reduced the same way.
    groups = [[2 + 2 * var + (value ^ 1) for var, value in cube] for cube in cover]
    for _ in range(2):
        terms = []
        for lits in groups:
            if not lits:
                terms.append(CONST1)
                continue
            while len(lits) > 1:
                paired = []
                for i in range(0, len(lits) - 1, 2):
                    a, b = lits[i], lits[i + 1]
                    key = (a, b) if a < b else (b, a)
                    lit = index.get(key)
                    if lit is None:
                        nodes.append(key)
                        lit = index[key] = 2 * (k + len(nodes))
                    paired.append(lit)
                if len(lits) % 2:
                    paired.append(lits[-1])
                lits = paired
            terms.append(lits[0])
        groups = [[term ^ 1 for term in terms]]
    return tuple(nodes), terms[0] ^ 1


@lru_cache(maxsize=1 << 12)
def _lut_programs(table: int, k: int) -> tuple[Program, Program]:
    """Compiled irredundant SOPs of ``table`` and of its complement.

    The complement's program has its output negated, so both compute
    ``table``.
    """
    full = (1 << (1 << k)) - 1
    nodes, out = compile_sop(isop(~table & full, ~table & full, k)[0], k)
    return compile_sop(isop(table, table, k)[0], k), (nodes, out ^ 1)


def lut_choice(aig: AIG, table: int, leaves: Sequence[int],
               budget: int = None):
    """Price both SOP polarities of ``table`` against ``aig``.

    Returns ``(cost, program)`` for the cheaper polarity — where
    ``cost`` is the exact number of AND nodes replaying ``program``
    over ``[CONST0, *leaves]`` would add (the graph is not touched) —
    or None when a ``budget`` is given and both polarities exceed it.
    The positive polarity wins ties, matching the seed behavior.
    """
    k = len(leaves)
    table &= (1 << (1 << k)) - 1
    vals = [CONST0, *leaves]
    strash, next_var = aig._strash, aig.num_vars
    best = None
    for program in _lut_programs(table, k):
        cap = budget if best is None else best[0] - 1
        priced = price(*program, vals, strash, next_var, cap)
        if priced is not None and (best is None or priced[0] < best[0]):
            best = (priced[0], program)
    return best


def lut(aig: AIG, table: int, leaves: Sequence[int]) -> int:
    """Realize a k-input truth table over the given leaf literals.

    Uses the irredundant SOP of whichever polarity is cheaper.  Both
    polarities are *priced* without touching the graph (strash-aware
    counting) and only the winner is built, exactly once: nodes are
    only appended, so a node built for the losing polarity would stay.
    """
    _, program = lut_choice(aig, table, leaves)
    return replay(aig, *program, [CONST0, *leaves])


def sop_over_leaves(aig, cover, leaves: Sequence[int]) -> int:
    """Build an OR of cube-ANDs over leaf literals.

    ``aig`` is anything with the ``add_and`` contract of :class:`AIG`.
    """
    return replay(aig, *compile_sop(cover, len(leaves)), [CONST0, *leaves])


def mux_tree_from_table(
    aig: AIG, table: int, leaves: Sequence[int]
) -> int:
    """Shannon-expansion MUX tree for a truth table over leaves.

    Memoizes on subtable values (a BDD in disguise), which scales far
    better than ISOP for wide tables; structural hashing shares
    isomorphic subtrees.
    """
    k = len(leaves)
    memo = {}

    def rec(sub: int, level: int) -> int:
        if level == 0:
            return CONST1 if sub & 1 else CONST0
        key = (sub, level)
        found = memo.get(key)
        if found is not None:
            return found
        half = 1 << (level - 1)
        lo_mask = (1 << half) - 1
        lo = sub & lo_mask
        hi = (sub >> half) & lo_mask
        if lo == hi:
            lit = rec(lo, level - 1)
        else:
            lit = aig.add_mux(
                leaves[level - 1], rec(hi, level - 1), rec(lo, level - 1)
            )
        memo[key] = lit
        return lit

    full = (1 << (1 << k)) - 1
    return rec(table & full, k)


def from_truth_table(table: int, n_inputs: int, method: str = "auto") -> AIG:
    """Standalone AIG computing the given truth table.

    ``method``: ``"sop"`` (ISOP two-level), ``"mux"`` (Shannon MUX
    tree), or ``"auto"`` (SOP for narrow functions, MUX otherwise).
    """
    if method == "auto":
        method = "sop" if n_inputs <= 10 else "mux"
    aig = AIG(n_inputs)
    if method == "sop":
        out = lut(aig, table, aig.input_lits())
    elif method == "mux":
        out = mux_tree_from_table(aig, table, aig.input_lits())
    else:
        raise ValueError(f"unknown method {method!r}")
    aig.set_output(out)
    return aig
