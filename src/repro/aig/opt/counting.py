"""Mutation-free pricing of compiled AND programs against a live AIG.

Every structure an optimization pass may build — an NPN library
recipe, an ISOP cover's sum of products — is compiled once into a
flat *AND program* over local literals: variable 0 is the constant,
``1 .. k`` are the leaves and node ``j`` is variable ``1 + k + j``;
``nodes[j]`` holds its two fanin literals (``2 * var + compl``) and
``out`` is the output literal.  A candidate is then a program plus
``vals``, the graph literal of each of its first ``1 + k`` variables.

:func:`price` counts the AND nodes building the program would append,
without touching the graph: it mirrors :meth:`repro.aig.aig.AIG.add_and`
node by node — identical constant folding, fanin order and structural
hashing against the graph's strash table, plus a local table for nodes
the candidate itself creates — and numbers the nodes that do not exist
yet from ``next_var``, exactly where a real build would place them.
So the count includes sharing with the graph and within the candidate,
and the returned literal is the one a real build returns.
:func:`replay` is that real build, for the winner only.
"""

from __future__ import annotations

from collections.abc import Sequence

#: ``(nodes, out)`` of an AND program.
Program = tuple[tuple[tuple[int, int], ...], int]


def price(
    nodes: Sequence[tuple[int, int]],
    out: int,
    vals: Sequence[int],
    strash: dict[tuple[int, int], int],
    next_var: int,
    budget: int | None = None,
) -> tuple[int, int] | None:
    """``(n_new, lit)`` of building the program into a graph.

    ``strash`` and ``next_var`` are the graph's strash table and
    ``num_vars``; neither is modified, nor is ``vals``.  With
    ``budget`` set, returns None at the first node that would make
    ``n_new`` exceed it, so a losing candidate stops at its first
    unshared node.
    """
    # Mirror of AIG.add_and, as is the strash walk in passes.rewrite;
    # keep the three in lockstep.
    vals = list(vals)
    local: dict[tuple[int, int], int] = {}
    n_new = 0
    for f0, f1 in nodes:
        a = vals[f0 >> 1] ^ (f0 & 1)
        b = vals[f1 >> 1] ^ (f1 & 1)
        if a > b:
            a, b = b, a
        if a < 2:  # CONST0 folds to itself, CONST1 to the other fanin
            lit = b if a else a
        elif a == b:
            lit = a
        elif a ^ b == 1:  # a and its complement
            lit = 0
        else:
            key = (a, b)
            # Node literals are never 0, so ``or`` only falls through
            # on a miss.
            lit = strash.get(key) or local.get(key)
            if lit is None:
                if budget is not None and n_new >= budget:
                    return None
                lit = 2 * (next_var + n_new)
                local[key] = lit
                n_new += 1
        vals.append(lit)
    return n_new, vals[out >> 1] ^ (out & 1)


def replay(sink, nodes: Sequence[tuple[int, int]], out: int,
           vals: Sequence[int]) -> int:
    """Build the program through ``sink.add_and``; returns its output.

    ``sink`` is anything with the ``add_and`` contract of
    :class:`~repro.aig.aig.AIG`.  Appends exactly the ``n_new`` nodes
    :func:`price` counts against the same graph.
    """
    vals = list(vals)
    add_and = sink.add_and
    for f0, f1 in nodes:
        vals.append(add_and(vals[f0 >> 1] ^ (f0 & 1), vals[f1 >> 1] ^ (f1 & 1)))
    return vals[out >> 1] ^ (out & 1)
