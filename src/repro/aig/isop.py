"""Irredundant sum-of-products from truth tables (Minato–Morreale).

Truth tables over ``k`` variables are Python ints with ``2**k`` bits;
bit ``m`` is the function value on the assignment whose binary digits
are ``m`` (variable 0 = least significant digit).  The ISOP procedure
takes an interval ``[lower, upper]`` (onset must be covered, don't
cares = ``upper & ~lower``) and returns an irredundant cover.

Cubes are tuples of ``(var, value)`` pairs sorted by variable.
"""

from __future__ import annotations

from functools import lru_cache

Cube = tuple[tuple[int, int], ...]


@lru_cache(maxsize=None)
def full_mask(k: int) -> int:
    """All-ones truth table over k variables."""
    return (1 << (1 << k)) - 1


@lru_cache(maxsize=None)
def var_mask(k: int, i: int) -> int:
    """Truth table of variable ``i`` over ``k`` variables."""
    s = 1 << i
    block = ((1 << s) - 1) << s  # s zeros then s ones
    period = 2 * s
    reps = (1 << k) // period
    m = 0
    for r in range(reps):
        m |= block << (r * period)
    return m


def cofactor0(table: int, k: int, i: int) -> int:
    """Cofactor with variable ``i`` = 0, expanded back over k vars."""
    s = 1 << i
    half = table & ~var_mask(k, i)
    return half | (half << s)


def cofactor1(table: int, k: int, i: int) -> int:
    """Cofactor with variable ``i`` = 1, expanded back over k vars."""
    s = 1 << i
    half = table & var_mask(k, i)
    return half | (half >> s)


def support(table: int, k: int) -> list[int]:
    """Variables the function actually depends on."""
    return [
        i for i in range(k) if cofactor0(table, k, i) != cofactor1(table, k, i)
    ]


def cube_table(cube: Cube, k: int) -> int:
    """Truth table of a cube over k variables."""
    table = full_mask(k)
    for var, value in cube:
        m = var_mask(k, var)
        table &= m if value else ~m & full_mask(k)
    return table


def cover_table(cover: list[Cube], k: int) -> int:
    """Truth table of a cover (OR of cubes)."""
    table = 0
    for cube in cover:
        table |= cube_table(cube, k)
    return table


@lru_cache(maxsize=32)
def _split_masks(k: int) -> tuple[tuple[int, int, int], ...]:
    """Per variable ``i`` of ``k``: ``2**i`` and its 1- and 0-minterms."""
    fm = full_mask(k)
    return tuple(
        (1 << i, var_mask(k, i), ~var_mask(k, i) & fm) for i in range(k)
    )


def isop(lower: int, upper: int, k: int) -> tuple[list[Cube], int]:
    """Minato–Morreale irredundant SOP for the interval [lower, upper].

    Returns ``(cover, table)`` where ``lower <= table <= upper``
    (bitwise implication) and ``cover`` is an irredundant cube list
    realizing ``table``.
    """
    fm = full_mask(k)
    if lower & ~upper & fm:
        raise ValueError("infeasible interval: lower not contained in upper")
    return _isop(lower, upper, k, fm, _split_masks(k))


def _isop(lower: int, upper: int, top: int, fm: int, masks) -> tuple[list[Cube], int]:
    if lower == 0:
        return [], 0
    if upper == fm:
        return [()], fm
    # Split on the highest variable below ``top`` in the support of
    # either bound: ``t`` depends on ``var`` when shifting its
    # var=1 half down onto its var=0 half changes something.
    var = top - 1
    while var >= 0:
        shift, ones, zeros = masks[var]
        moved = ((lower >> shift) ^ lower) | ((upper >> shift) ^ upper)
        if moved & zeros:
            break
        var -= 1
    else:
        # Constant interval containing 1 (lower != 0 and no support
        # => lower == upper == full, already returned above).
        return [()], fm
    # Cofactors, expanded back over all k variables.
    l0 = lower & zeros
    l0 |= l0 << shift
    l1 = lower & ones
    l1 |= l1 >> shift
    u0 = upper & zeros
    u0 |= u0 << shift
    u1 = upper & ones
    u1 |= u1 >> shift
    # Cubes that must contain literal !var / var, then the remaining
    # minterms, coverable without the split variable.
    c0, f0 = _isop(l0 & ~u1, u0, var, fm, masks)
    c1, f1 = _isop(l1 & ~u0, u1, var, fm, masks)
    cr, fr = _isop((l0 & ~f0) | (l1 & ~f1), u0 & u1, var, fm, masks)
    # Sub-covers only split on variables below ``var``, so appending
    # its literal keeps every cube sorted.
    cover = [cube + ((var, 0),) for cube in c0]
    cover += [cube + ((var, 1),) for cube in c1]
    cover += cr
    return cover, (f0 & zeros) | (f1 & ones) | fr
