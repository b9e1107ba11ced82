"""BDD minimization with don't cares (Team 1's appendix methods).

Given an ON-set function ``f`` and a care set ``c`` (both BDDs in the
same manager), produce a small BDD ``g`` with ``g == f`` on ``c``:

* ``restrict`` — one-sided matching (Coudert-Madre): descend into the
  cared-for child when the other side's care set is empty.  The paper
  reports 98% test accuracy learning 2-word adder MSBs this way.
* ``minimize_dontcare`` — adds two-sided matching (merge children
  compatible on the common care set) and optionally complemented
  two-sided matching (replace the node by ``mk(var, g, !g)``), with a
  node-count bias that prefers straight matching when both apply,
  following the heuristics in the appendix.
"""

from __future__ import annotations

from repro.bdd.bdd import BDD, FALSE, TRUE


def restrict(bdd: BDD, f: int, c: int) -> int:
    """One-sided matching: Coudert-Madre restrict of ``f`` to care ``c``."""
    cache: dict[tuple[int, int], int] = {}

    def rec(f: int, c: int) -> int:
        if c == FALSE:
            return FALSE
        if f < 2 or c == TRUE:
            return f
        key = (f, c)
        found = cache.get(key)
        if found is not None:
            return found
        var = min(bdd.var_of(f), bdd.var_of(c))
        f0, f1 = bdd._cofactors(f, var)
        c0, c1 = bdd._cofactors(c, var)
        if c0 == FALSE:
            result = rec(f1, c1)
        elif c1 == FALSE:
            result = rec(f0, c0)
        else:
            result = bdd.mk(var, rec(f0, c0), rec(f1, c1))
        cache[key] = result
        return result

    return rec(f, c)


def minimize_dontcare(
    bdd: BDD,
    f: int,
    c: int,
    complemented: bool = False,
) -> int:
    """Two-sided (and optionally complemented) sibling matching.

    A complemented match is taken only when it saves more than 100
    nodes over the straight one."""
    cache: dict[tuple[int, int], int] = {}

    def rec(f: int, c: int) -> int:
        if c == FALSE:
            return FALSE
        if f < 2 or c == TRUE:
            return f
        key = (f, c)
        found = cache.get(key)
        if found is not None:
            return found
        var = min(bdd.var_of(f), bdd.var_of(c))
        f0, f1 = bdd._cofactors(f, var)
        c0, c1 = bdd._cofactors(c, var)
        if c0 == FALSE:
            result = rec(f1, c1)
        elif c1 == FALSE:
            result = rec(f0, c0)
        else:
            result = _merge_or_split(f0, f1, c0, c1, var)
        cache[key] = result
        return result

    def _merge_or_split(f0, f1, c0, c1, var) -> int:
        common = bdd.and_(c0, c1)
        straight_ok = bdd.and_(bdd.xor_(f0, f1), common) == FALSE
        comp_ok = complemented and (
            bdd.and_(bdd.xor_(f0, bdd.not_(f1)), common) == FALSE
        )
        straight = None
        comp = None
        if straight_ok:
            patched = bdd.or_(bdd.and_(f0, c0), bdd.and_(f1, c1))
            straight = rec(patched, bdd.or_(c0, c1))
        if comp_ok:
            patched = bdd.or_(bdd.and_(f0, c0), bdd.and_(bdd.not_(f1), c1))
            g = rec(patched, bdd.or_(c0, c1))
            comp = bdd.mk(var, g, bdd.not_(g))
        if straight is not None and comp is not None:
            if (
                bdd.count_nodes(comp) + 100
                < bdd.count_nodes(straight)
            ):
                return comp
            return straight
        if straight is not None:
            return straight
        if comp is not None:
            return comp
        return bdd.mk(var, rec(f0, c0), rec(f1, c1))

    return rec(f, c)
