"""NPN canonicalization of small truth tables.

Two functions belong to the same NPN class when one can be obtained
from the other by Negating inputs, Permuting inputs and/or Negating
the output.  The 65536 functions of 4 variables collapse into 222 NPN
classes, which is what makes library-based rewriting practical: a
best-known implementation is synthesized once per *class* and every
cut function becomes a table lookup plus a leaf permutation.

The canonical representative of a class is the numerically smallest
table over all ``2 * 2**k * k!`` transforms.  :func:`npn_canon`
returns that table together with the transform that reaches it, in a
form :mod:`repro.aig.opt.library` can invert when instantiating the
canonical structure over concrete leaf literals.

Transform semantics (the one contract everything else relies on):

    ``npn_canon(f, k) == (c, perm, phase, out_neg)`` means

    ``f(x) == c(y) ^ out_neg``  where  ``y[perm[i]] = x[i] ^ phase_i``

so canonical input ``perm[i]`` is driven by original leaf ``i``,
complemented when bit ``i`` of ``phase`` is set.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import permutations

import numpy as np

MAX_NPN_VARS = 4

# (canonical table, perm, phase, out_neg) memoized per (k, table).
_canon_cache: dict[tuple[int, int], tuple[int, tuple[int, ...], int, bool]] = {}


@lru_cache(maxsize=None)
def _transform_tables(k: int):
    """Minterm source positions for every (perm, phase) input transform.

    Row ``t`` of the returned ``pos`` array maps minterm ``m`` of the
    transformed function ``g`` to the minterm of the original ``f``
    with ``g(y) = f(x)``, ``x_i = y[perm[i]] ^ phase_i``.  ``meta[t]``
    is the ``(perm, phase)`` pair of row ``t``.
    """
    n = 1 << k
    rows: list[list[int]] = []
    meta: list[tuple[tuple[int, ...], int]] = []
    for perm in permutations(range(k)):
        for phase in range(1 << k):
            row = []
            for m in range(n):
                src = 0
                for i in range(k):
                    if ((m >> perm[i]) & 1) ^ ((phase >> i) & 1):
                        src |= 1 << i
                row.append(src)
            rows.append(row)
            meta.append((perm, phase))
    weights = np.left_shift(np.int64(1), np.arange(n, dtype=np.int64))
    return np.asarray(rows, dtype=np.int64), meta, weights


def npn_canon(table: int, k: int) -> tuple[int, tuple[int, ...], int, bool]:
    """Canonical NPN representative of ``table`` plus the transform.

    See the module docstring for the exact transform semantics.  Only
    ``k <= 4`` is supported (768 transforms are enumerated per call;
    results are memoized process-wide, so repeated cut functions are
    dictionary hits).
    """
    if k > MAX_NPN_VARS:
        raise ValueError(f"NPN canonicalization limited to {MAX_NPN_VARS} vars")
    n = 1 << k
    table &= (1 << n) - 1
    key = (k, table)
    found = _canon_cache.get(key)
    if found is not None:
        return found
    pos, meta, weights = _transform_tables(k)
    bits = (table >> np.arange(n, dtype=np.int64)) & 1
    transformed = bits[pos] @ weights  # one table per (perm, phase)
    complemented = ((1 << n) - 1) ^ transformed
    t_best = int(np.argmin(transformed))
    c_best = int(np.argmin(complemented))
    # Prefer the non-complemented transform on ties so the canonical
    # choice is deterministic.
    if int(complemented[c_best]) < int(transformed[t_best]):
        perm, phase = meta[c_best]
        result = (int(complemented[c_best]), perm, phase, True)
    else:
        perm, phase = meta[t_best]
        result = (int(transformed[t_best]), perm, phase, False)
    _canon_cache[key] = result
    return result
