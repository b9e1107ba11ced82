"""Irredundant sum-of-products from truth tables (Minato–Morreale).

Truth tables over ``k`` variables are Python ints with ``2**k`` bits;
bit ``m`` is the function value on the assignment whose binary digits
are ``m`` (variable 0 = least significant digit).  The ISOP procedure
takes an interval ``[lower, upper]`` (onset must be covered, don't
cares = ``upper & ~lower``) and returns an irredundant cover.

Cubes are tuples of ``(var, value)`` pairs sorted by variable.
Sub-problems over at most :data:`MEMO_VARS` variables are memoized
across calls, so every caller and every ``k`` shares them.
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


@lru_cache(maxsize=32)
def _split_masks(k: int) -> tuple[tuple[int, int, int], ...]:
    """Per variable ``i`` of ``k``: ``2**i`` and its 1- and 0-minterms."""
    fm = full_mask(k)
    return tuple(
        (1 << i, var_mask(k, i), ~var_mask(k, i) & fm) for i in range(k)
    )


#: ISOP sub-problems over at most this many variables are memoized.
#: A recursive call with ``top = t`` has bounds that do not depend on
#: any variable ``>= t`` (each was split off above it or was never in
#: the support), so its cover is the cover of the bounds' low window,
#: and its table is that window's table repeated across the ``2**k``
#: bits.  Replayed over the 13,476 ISOP calls of a ``contest-grid``
#: pass, a 4-variable window ran them about 1.9x faster, a 3-variable
#: one 1.7x, and a 5-variable one no faster than 4 with twice the
#: entries.
MEMO_VARS = 4
#: The memo is cleared when it holds this many entries (about 280
#: bytes each, so at most about 2 MiB per process); unbounded, the
#: same replay grew it to 15,202 entries and 4.2 MiB.
MEMO_CAP = 1 << 13
_WINDOW = full_mask(MEMO_VARS)
_WINDOW_MASKS = _split_masks(MEMO_VARS)
# Process-wide, like an ``lru_cache``: an entry depends only on its
# key, so every caller and every ``k`` may share it.  Keyed on the
# bounds over MEMO_VARS variables, ``lower << 2**MEMO_VARS | upper``,
# with no ``top``: the split scan skips variables outside the support,
# so the cover is the same from any ``top`` above it.  Holds the cover
# as a tuple (so no caller can mutate it) and the window's table.
_memo: dict[int, tuple[tuple[Cube, ...], int]] = {}


def isop(lower: int, upper: int, k: int) -> tuple[list[Cube], int]:
    """Minato–Morreale irredundant SOP for the interval [lower, upper].

    Returns ``(cover, table)`` where ``lower <= table <= upper``
    (bitwise implication) and ``cover`` is an irredundant cube list
    realizing ``table``.  The cover is a fresh list on every call.
    """
    fm = full_mask(k)
    if lower & ~upper & fm:
        raise ValueError("infeasible interval: lower not contained in upper")
    cover, table = _isop(lower, upper, k, fm, _split_masks(k))
    return list(cover), table


def _isop(lower: int, upper: int, top: int, fm: int, masks):
    if lower == 0:
        return (), 0
    if upper == fm:
        return ((),), fm
    if top > MEMO_VARS:
        return _split(lower, upper, top, fm, masks)
    # Bring the bounds to the memo's window width: cut a wider table
    # down to its low window (it repeats with period ``2**top``), or
    # repeat a narrower one up to it.
    if fm > _WINDOW:
        lower &= _WINDOW
        upper &= _WINDOW
    elif fm < _WINDOW:
        lower *= _WINDOW // fm
        upper *= _WINDOW // fm
    key = lower << (1 << MEMO_VARS) | upper
    entry = _memo.get(key)
    if entry is None:
        cover, table = _split(lower, upper, top, _WINDOW, _WINDOW_MASKS)
        entry = (tuple(cover), table)
        # Checked after the split, whose sub-problems fill the memo too.
        if len(_memo) >= MEMO_CAP:
            _memo.clear()
        _memo[key] = entry
    cover, table = entry
    if fm > _WINDOW:
        return cover, table * (fm // _WINDOW)
    return cover, table & fm


def _split(lower: int, upper: int, top: int, fm: int, masks) -> tuple[list[Cube], int]:
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
    neg, pos = ((var, 0),), ((var, 1),)
    cover = [cube + neg for cube in c0]
    cover += [cube + pos for cube in c1]
    cover += cr
    return cover, (f0 & zeros) | (f1 & ones) | fr
