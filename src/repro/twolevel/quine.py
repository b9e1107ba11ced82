"""Exact two-level minimization (Quine-McCluskey + exact covering).

Used as a reference implementation in tests and in the espresso
ablation bench: for small input counts it returns a minimum-cube cover,
which bounds how far the heuristic is from optimal.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.twolevel.cover import Cover
from repro.twolevel.cube import Cube


def prime_implicants(
    onset: Sequence[int], dcset: Sequence[int], n_inputs: int
) -> list[Cube]:
    """All prime implicants of ``onset`` given don't cares ``dcset``."""
    care = set(onset)
    terms = {Cube.from_minterm(m, n_inputs) for m in set(onset) | set(dcset)}
    primes: list[Cube] = []
    while terms:
        merged_away = set()
        next_terms = set()
        term_list = sorted(terms, key=lambda c: (c.mask, c.value))
        by_mask = {}
        for t in term_list:
            by_mask.setdefault(t.mask, []).append(t)
        for mask, group in by_mask.items():
            values = {t.value for t in group}
            for t in group:
                for var, _ in t.literals():
                    other_value = t.value ^ (1 << var)
                    if other_value in values:
                        merged = t.without_literal(var)
                        next_terms.add(merged)
                        merged_away.add(t)
                        merged_away.add(Cube(mask, other_value))
        for t in terms:
            if t not in merged_away:
                primes.append(t)
        terms = next_terms
    # Keep primes that cover at least one care minterm.
    return [
        p for p in primes if any(p.contains_minterm(m) for m in care)
    ]


def _greedy_cover(
    universe: frozenset[int], sets: list[frozenset[int]]
) -> list[int]:
    """Greedy set cover (used to seed and to cap the exact search)."""
    remaining = set(universe)
    chosen: list[int] = []
    while remaining:
        gain, pick = max(
            (
                (len(s & remaining), i)
                for i, s in enumerate(sets)
            ),
            default=(0, -1),
        )
        if gain == 0:
            break
        chosen.append(pick)
        remaining -= sets[pick]
    return chosen


def _min_cover(
    universe: frozenset[int],
    sets: list[frozenset[int]],
) -> list[int]:
    """Minimum set cover by branch and bound.

    The search is exact unless its 200,000-node budget is exhausted, in which case the best cover found so far (at worst the
    greedy one) is returned — keeping worst-case runtime bounded on
    adversarial instances while staying optimal on typical ones.
    """
    best: list[list[int]] = [_greedy_cover(universe, sets)]
    steps = [0]

    def search(remaining: frozenset[int], chosen: list[int]) -> None:
        if steps[0] > 200_000:
            return
        steps[0] += 1
        if len(chosen) + 1 >= len(best[0]) and remaining:
            return
        if not remaining:
            if len(chosen) < len(best[0]):
                best[0] = list(chosen)
            return
        # Branch on the hardest element (fewest covering sets).
        elem = min(
            remaining,
            key=lambda e: sum(1 for s in sets if e in s),
        )
        options = [i for i, s in enumerate(sets) if elem in s]
        options.sort(key=lambda i: -len(sets[i] & remaining))
        for i in options:
            search(remaining - sets[i], chosen + [i])

    search(universe, [])
    return best[0]


def quine_mccluskey(
    onset: Sequence[int],
    dcset: Sequence[int],
    n_inputs: int,
) -> Cover:
    """Exact minimum-cube SOP for a (possibly incompletely specified)
    single-output function given as minterm lists."""
    onset = sorted(set(onset))
    if not onset:
        return Cover(n_inputs, [])
    primes = prime_implicants(onset, dcset, n_inputs)
    universe = frozenset(range(len(onset)))
    covers = [
        frozenset(i for i, m in enumerate(onset) if p.contains_minterm(m))
        for p in primes
    ]
    chosen = _min_cover(universe, covers)
    return Cover(n_inputs, [primes[i] for i in chosen])
