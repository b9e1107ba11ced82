"""Iterative (stack-based) cone walks shared by all optimization passes.

The seed implementations of cut-function evaluation and MFFC sizing
were recursive, and their recursion depth is bounded only by the cone
depth — on chain-shaped graphs (deep ripple/parity chains, exactly
what the circuit builders emit for learned arithmetic) they blew the
Python recursion limit.  Every walk here uses an explicit stack, so
graph depth is never a correctness concern again; the pass layer,
:mod:`repro.aig.cuts` and the fraig-lite prover all route through
these helpers.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from repro.aig.aig import AIG
from repro.aig.isop import full_mask, var_mask

Cut = tuple[int, ...]
#: ``(nodes, start, end)``: the AND nodes ``nodes[start:end]``.
MemberSpan = tuple[list[int], int, int]


def cut_truth(aig: AIG, root: int, leaves: Sequence[int]) -> int:
    """Truth table of variable ``root`` in terms of ``leaves``.

    ``leaves`` must be a cut of ``root``; reaching a primary input
    outside the cut raises ``ValueError``.  Iterative post-order
    evaluation — safe on cones of any depth.
    """
    k = len(leaves)
    fm = full_mask(k)
    values = {0: 0}
    for pos, leaf in enumerate(leaves):
        values[leaf] = var_mask(k, pos)
    if root in values:
        return values[root]
    stack = [root]
    while stack:
        var = stack[-1]
        if var in values:
            stack.pop()
            continue
        if not aig.is_and_var(var):
            raise ValueError(
                f"variable {var} reached outside the cut {tuple(leaves)}"
            )
        f0, f1 = aig.fanins(var)
        v0, v1 = f0 >> 1, f1 >> 1
        t0 = values.get(v0)
        t1 = values.get(v1)
        if t0 is None or t1 is None:
            if t0 is None:
                stack.append(v0)
            if t1 is None:
                stack.append(v1)
            continue
        stack.pop()
        a = ~t0 & fm if f0 & 1 else t0
        b = ~t1 & fm if f1 & 1 else t1
        values[var] = a & b
    return values[root]


def mffc_size(aig: AIG, var: int, fanout: Sequence[int]) -> int:
    """Size of the maximum fanout-free cone rooted at ``var``.

    ``fanout`` is the fanout count array of the graph.  The MFFC is
    the set of AND nodes that would become dead if ``var`` were
    removed.
    """
    if not aig.is_and_var(var):
        return 0
    counted = set()
    stack = [(var, True)]
    while stack:
        v, is_root = stack.pop()
        if v in counted or not aig.is_and_var(v):
            continue
        if not is_root and fanout[v] > 1:
            continue
        counted.add(v)
        f0, f1 = aig.fanins(v)
        stack.append((f0 >> 1, False))
        stack.append((f1 >> 1, False))
    return len(counted)


def ffc_leaves(
    aig: AIG, var: int, fanout: Sequence[int], max_leaves: int
) -> Cut | None:
    """Leaf variables of the fanout-free cone of ``var`` (or None).

    Expands single-fanout AND fanins; everything else is a leaf.
    Returns None when the cone has fewer than 2 or more than
    ``max_leaves`` leaves.
    """
    leaves = set()
    stack = [lit >> 1 for lit in aig.fanins(var)]
    while stack:
        v = stack.pop()
        if aig.is_and_var(v) and fanout[v] == 1:
            stack.extend(lit >> 1 for lit in aig.fanins(v))
        elif not aig.is_const_var(v):
            leaves.add(v)
        if len(leaves) > max_leaves:
            return None
    if len(leaves) < 2:
        return None
    return tuple(sorted(leaves))


def ffc_cones(
    aig: AIG, fanout: Sequence[int], max_leaves: int
) -> tuple[list[set[int] | None], list[int], list[MemberSpan | None]]:
    """Fanout-free-cone leaves, MFFC size and members of every AND node.

    One bottom-up sweep replaces a :func:`ffc_leaves` and a
    :func:`mffc_size` walk per node.  A node's leaf set is the union
    of its single-fanout AND fanins' leaf sets plus its other non-
    constant fanins; it is None ("too wide") when it has more than
    ``max_leaves`` leaves or any such fanin is too wide.  Its MFFC
    size is 1 plus its single-fanout AND fanins' sizes.  Its members
    — the AND nodes between the leaves and the node — are those
    fanins' members followed by the node itself, so every member
    comes after its fanins; they are given as a span ``(nodes, start,
    end)``, the members being ``nodes[start:end]``, and the span is
    None when the cone is too wide.  Entry ``j`` of each list is for
    AND node ``n_inputs + 1 + j``.  Unlike :func:`ffc_leaves`, a set
    of fewer than 2 leaves is kept.
    """
    base = aig.n_inputs + 1
    leaves: list[set[int] | None] = []
    sizes: list[int] = []
    members: list[MemberSpan | None] = []
    for var, f0, f1 in zip(
        range(base, aig.num_vars), aig._fanin0, aig._fanin1, strict=True
    ):
        cone = set()
        inner_spans = []
        size = 1
        for v in (f0 >> 1, f1 >> 1):
            if v >= base and fanout[v] == 1:
                inner = leaves[v - base]
                if inner is None:
                    cone = None
                elif cone is not None:
                    cone |= inner
                    inner_spans.append(members[v - base])
                size += sizes[v - base]
            elif v and cone is not None:
                cone.add(v)
        if cone is None or len(cone) > max_leaves:
            leaves.append(None)
            members.append(None)
        else:
            leaves.append(cone)
            members.append(_member_span(inner_spans, var))
        sizes.append(size)
    return leaves, sizes, members


def _member_span(inner_spans: list[MemberSpan], var: int) -> MemberSpan:
    """Span of ``var``'s members, given its single-fanout fanins' spans.

    A fanin's span ends its list, and only the fanin's one parent —
    ``var`` — ever extends that list.  So the longer span's list is
    extended in place with a copy of the other span and ``var``; a
    member is copied at most log2 of the cone size times, and all
    spans together stay linear in the graph on chain-shaped cones.
    """
    if not inner_spans:
        return [var], 0, 1
    inner_spans.sort(key=lambda span: span[2] - span[1])
    nodes, start, _ = inner_spans.pop()
    for other, other_start, other_end in inner_spans:
        nodes += other[other_start:other_end]
    nodes.append(var)
    return nodes, start, len(nodes)


def cone_truth(aig: AIG, leaves: Sequence[int], members: Iterable[int]) -> int:
    """Truth table of the last of ``members`` in terms of ``leaves``.

    ``members`` lists the AND nodes between ``leaves`` and the root
    (the root last), each after its fanins — the members of a
    :func:`ffc_cones` span.  Equal to :func:`cut_truth` over the same
    leaves, without its stack walk.
    """
    k = len(leaves)
    fm = full_mask(k)
    values = {0: 0}
    for pos, leaf in enumerate(leaves):
        values[leaf] = var_mask(k, pos)
    base = aig.n_inputs + 1
    fanin0, fanin1 = aig._fanin0, aig._fanin1
    table = 0
    for var in members:
        f0, f1 = fanin0[var - base], fanin1[var - base]
        a = values[f0 >> 1]
        b = values[f1 >> 1]
        table = (a ^ fm if f0 & 1 else a) & (b ^ fm if f1 & 1 else b)
        values[var] = table
    return table


def bounded_cut(
    aig: AIG,
    roots: Iterable[int],
    max_leaves: int = 12,
    max_visit: int = 48,
) -> Cut | None:
    """A common cut of ``roots`` found by bounded backward expansion.

    AND nodes are expanded until the visit budget runs out; the
    unexpanded frontier (primary inputs plus any AND nodes beyond the
    budget) is returned as the cut.  Any frontier of a backward walk
    is a valid cut, so :func:`cut_truth` over the result terminates
    for every root.  Returns None when the frontier exceeds
    ``max_leaves`` — callers treat that as "no bounded proof found".
    """
    expanded = set()
    leaves = set()
    stack = [r for r in roots]
    while stack:
        v = stack.pop()
        if v in expanded or v in leaves or aig.is_const_var(v):
            continue
        if aig.is_and_var(v) and len(expanded) < max_visit:
            expanded.add(v)
            f0, f1 = aig.fanins(v)
            stack.append(f0 >> 1)
            stack.append(f1 >> 1)
        else:
            leaves.add(v)
            if len(leaves) > max_leaves:
                return None
    return tuple(sorted(leaves))
