"""Espresso-style heuristic two-level minimization.

The contest setting is an *incompletely specified* function given by
explicit ON-set and OFF-set minterm lists (the training samples); every
other input pattern is a don't care.  This module implements the
classic espresso loop specialized to that setting:

``EXPAND``
    Each ON-cube is expanded literal by literal; a literal may be
    dropped as long as the enlarged cube still excludes every OFF-set
    minterm.  The result is a prime implicant relative to the OFF-set.
``IRREDUNDANT``
    Greedy removal of cubes whose covered ON-minterms are covered by
    the remaining cubes.
``REDUCE``
    Cube by cube, each is shrunk to the smallest cube containing the
    ON-minterms only it covers (counting the cubes already shrunk),
    enabling a different expansion next round.

Team 1 runs espresso "with an option to finish optimization after the
first irredundant operation"; pass ``first_irredundant=True`` for that
behaviour.

The kernels are vectorized over the OFF-set with numpy so the
contest-scale instances (6400 minterms over up to ~780 inputs) run in
seconds: for each cube we track, per OFF-row, the number of bound
positions where the row disagrees with the cube; a literal may be
expanded away iff no OFF-row's disagreements would drop to zero.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.twolevel.cover import Cover
from repro.twolevel.cube import Cube
from repro.utils.bitops import int_to_bits

MintermsOrMatrix = Sequence[int] | np.ndarray


def _as_matrix(minterms: MintermsOrMatrix, n_inputs: int) -> np.ndarray:
    if isinstance(minterms, np.ndarray) and minterms.ndim == 2:
        return np.asarray(minterms, dtype=np.uint8)
    rows = [int_to_bits(int(m), n_inputs) for m in minterms]
    if not rows:
        return np.zeros((0, n_inputs), dtype=np.uint8)
    return np.vstack(rows)


def _expand_all(
    cubes_mask: np.ndarray,
    cubes_val: np.ndarray,
    off: np.ndarray,
    on: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """EXPAND every cube against the OFF-set matrix.

    ``cubes_mask``/``cubes_val`` are (n_cubes, n_inputs) uint8 matrices;
    returns the expanded pair.  Literals are tried cheapest-first
    (fewest OFF-rows one disagreement away).

    When ``on`` is given (and row-aligned with the cubes, as in the
    first EXPAND where every cube is one ON-minterm), cubes whose
    minterm is already covered by an earlier expansion are skipped —
    the standard espresso coverage shortcut that keeps the pass close
    to linear in the number of primes rather than minterms.

    Sets of OFF-rows are Python ints, bit ``r`` for row ``r``, and each
    row's disagreement count is bit-sliced over them: ``planes[p]``
    holds the rows whose count has bit ``p`` set.  Testing a literal
    and dropping it are then a few int operations.
    """
    n_cubes, n_inputs = cubes_mask.shape
    out_mask = cubes_mask.copy()
    out_val = cubes_val.copy()
    aligned = on is not None and on.shape[0] == n_cubes
    covered = np.zeros(n_cubes, dtype=bool) if aligned else None
    kept_rows: list[int] = []
    # The OFF-rows with a 1 in each column, and every OFF-row.
    ones = _row_sets(off.T)
    everyone = (1 << off.shape[0]) - 1
    for ci in range(n_cubes):
        if aligned and covered[ci]:
            continue
        kept_rows.append(ci)
        val = out_val[ci]
        if off.shape[0] == 0:
            out_mask[ci] = 0
            out_val[ci] = 0
            if aligned:
                covered[:] = True
            continue
        # diffs[r, j]: OFF-row r disagrees with the cube at bound pos j.
        bound = np.nonzero(out_mask[ci])[0]
        diffs = off[:, bound] != val[bound]
        diff_count = diffs.sum(axis=1)
        # Literal order: fewest blocking rows (rows with exactly one
        # disagreement, at that literal) first.
        blocking = diffs[diff_count == 1].sum(axis=0)
        order = np.argsort(blocking, kind="stable")
        width = max(1, int(diff_count.max()).bit_length())
        planes = _row_sets(
            (diff_count >> np.arange(width)[:, None]) & 1
        )
        single = _count_one(planes)
        removed = np.zeros(len(bound), dtype=bool)
        columns, values = bound.tolist(), val[bound].tolist()
        for j in order.tolist():
            column = ones[columns[j]]
            disagree = everyone ^ column if values[j] else column
            if disagree & single:
                continue  # removal would admit an OFF-row
            removed[j] = True
            # Subtract one from the count of every disagreeing row.
            borrow = disagree
            for p, plane in enumerate(planes):
                planes[p] = plane ^ borrow
                borrow &= ~plane
                if not borrow:
                    break
            single = _count_one(planes)
        keep = bound[~removed]
        new_mask = np.zeros(n_inputs, dtype=np.uint8)
        new_mask[keep] = 1
        out_mask[ci] = new_mask
        out_val[ci] = val * new_mask
        if aligned:
            if keep.size:
                hits = (on[:, keep] == out_val[ci][keep]).all(axis=1)
            else:
                hits = np.ones(n_cubes, dtype=bool)
            covered |= hits
    if aligned:
        rows = np.array(kept_rows, dtype=np.int64)
        return out_mask[rows], out_val[rows]
    return out_mask, out_val


def _row_sets(bits: np.ndarray) -> list[int]:
    """Each row of a 0/1 matrix as a Python int, column ``r`` at bit ``r``."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), axis=1,
                         bitorder="little")
    data, width = packed.tobytes(), packed.shape[1]
    return [int.from_bytes(data[i * width:(i + 1) * width], "little")
            for i in range(packed.shape[0])]


def _count_one(planes: list[int]) -> int:
    """The rows whose bit-sliced count is exactly one."""
    high = 0
    for plane in planes[1:]:
        high |= plane
    return planes[0] & ~high


def _coverage(
    cubes_mask: np.ndarray, cubes_val: np.ndarray, on: np.ndarray
) -> np.ndarray:
    """Boolean (n_cubes, n_on): cube i covers ON-row r."""
    n_cubes = cubes_mask.shape[0]
    out = np.zeros((n_cubes, on.shape[0]), dtype=bool)
    for ci in range(n_cubes):
        bound = np.nonzero(cubes_mask[ci])[0]
        if bound.size == 0:
            out[ci] = True
            continue
        out[ci] = (on[:, bound] == cubes_val[ci][bound]).all(axis=1)
    return out


def _drop_contained(
    cubes_mask: np.ndarray, cubes_val: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Remove duplicate and single-cube-contained cubes."""
    n = cubes_mask.shape[0]
    order = np.argsort(cubes_mask.sum(axis=1), kind="stable")
    kept: list[int] = []
    for i in order:
        contained = False
        for j in kept:
            # cube j contains cube i iff j's bound cols are a subset of
            # i's and values agree there.
            mj = cubes_mask[j].astype(bool)
            if (cubes_mask[i][mj] == 1).all() and (
                cubes_val[i][mj] == cubes_val[j][mj]
            ).all():
                contained = True
                break
        if not contained:
            kept.append(i)
    kept_arr = np.array(sorted(kept), dtype=np.int64)
    del n
    return cubes_mask[kept_arr], cubes_val[kept_arr]


def _irredundant_idx(coverage: np.ndarray) -> np.ndarray:
    """Indices of a greedy irredundant subcover."""
    n_cubes = coverage.shape[0]
    alive = np.ones(n_cubes, dtype=bool)
    counts = coverage.sum(axis=0).astype(np.int64)
    order = np.argsort(coverage.sum(axis=1), kind="stable")
    for i in order:
        pts = coverage[i]
        removable = not pts.any() or (counts[pts] >= 2).all()
        if removable:
            alive[i] = False
            counts = counts - pts
    return np.nonzero(alive)[0]


def _reduce_all(
    cubes_mask: np.ndarray,
    cubes_val: np.ndarray,
    coverage: np.ndarray,
    on: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """REDUCE: shrink each cube onto the ON-rows only it covers."""
    counts = coverage.sum(axis=0)
    out_mask = cubes_mask.copy()
    out_val = cubes_val.copy()
    for ci in range(cubes_mask.shape[0]):
        essential = coverage[ci] & (counts == 1)
        if not essential.any():
            continue
        rows = on[essential]
        same = (rows == rows[0]).all(axis=0)
        out_mask[ci] = same.astype(np.uint8)
        out_val[ci] = rows[0] * same
        # A row this cube gave up may now rest on one later cube alone,
        # which must keep it: two cubes sharing a row may not both drop
        # it.
        bound = np.nonzero(same)[0]
        kept = (on[:, bound] == rows[0][bound]).all(axis=1)
        counts = counts - (coverage[ci] & ~kept)
    return out_mask, out_val


def _to_cover(cubes_mask, cubes_val, n_inputs) -> Cover:
    cubes = []
    for mask_row, val_row in zip(cubes_mask, cubes_val, strict=True):
        mask = 0
        value = 0
        for i in np.nonzero(mask_row)[0]:
            mask |= 1 << int(i)
            if val_row[i]:
                value |= 1 << int(i)
        cubes.append(Cube(mask, value))
    return Cover(n_inputs, cubes)


def espresso(
    onset: MintermsOrMatrix,
    offset: MintermsOrMatrix,
    n_inputs: int,
    first_irredundant: bool = False,
) -> Cover:
    """Minimize an incompletely specified single-output function.

    ``onset`` / ``offset`` are minterm lists (Python ints) or 0/1
    sample matrices; everything not listed is a don't care.  Returns a
    cover containing every ON-minterm and no OFF-minterm.  After the
    first irredundant cover, up to three reduce-expand-irredundant
    rounds run, keeping the best cover seen.
    """
    on = _as_matrix(onset, n_inputs)
    off = _as_matrix(offset, n_inputs)
    if on.shape[0] == 0:
        return Cover(n_inputs, [])
    # Deduplicate and sanity-check disjointness.
    on = np.unique(on, axis=0)
    off = np.unique(off, axis=0)
    if off.shape[0]:
        both = np.vstack([on, off])
        if np.unique(both, axis=0).shape[0] != both.shape[0]:
            raise ValueError(
                "onset and offset overlap; resolve duplicates first"
            )
    cubes_mask = np.ones_like(on)
    cubes_val = on.copy()
    cubes_mask, cubes_val = _expand_all(cubes_mask, cubes_val, off, on=on)
    cubes_mask, cubes_val = _drop_contained(cubes_mask, cubes_val)
    cov = _coverage(cubes_mask, cubes_val, on)
    keep = _irredundant_idx(cov)
    cubes_mask, cubes_val = cubes_mask[keep], cubes_val[keep]
    if first_irredundant:
        return _to_cover(cubes_mask, cubes_val, n_inputs)
    best = (cubes_mask, cubes_val)
    for _ in range(3):
        cov = _coverage(cubes_mask, cubes_val, on)
        cubes_mask, cubes_val = _reduce_all(cubes_mask, cubes_val, cov, on)
        cubes_mask, cubes_val = _expand_all(cubes_mask, cubes_val, off)
        cubes_mask, cubes_val = _drop_contained(cubes_mask, cubes_val)
        cov = _coverage(cubes_mask, cubes_val, on)
        keep = _irredundant_idx(cov)
        cubes_mask, cubes_val = cubes_mask[keep], cubes_val[keep]
        better = cubes_mask.shape[0] < best[0].shape[0] or (
            cubes_mask.shape[0] == best[0].shape[0]
            and cubes_mask.sum() < best[0].sum()
        )
        if better:
            best = (cubes_mask, cubes_val)
        else:
            break
    return _to_cover(best[0], best[1], n_inputs)


def espresso_from_samples(
    X: np.ndarray,
    y: np.ndarray,
    first_irredundant: bool = False,
) -> Cover:
    """Espresso over labelled samples (majority-resolves duplicates)."""
    from repro.twolevel.cover import cover_from_samples

    onset, offset, n_inputs = cover_from_samples(X, y)
    return espresso(
        onset, offset, n_inputs, first_irredundant=first_irredundant
    )
