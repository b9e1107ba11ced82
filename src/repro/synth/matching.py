"""Pre-defined standard function matching (Teams 1 and 7).

The contest's hardest benchmarks (wide adder/comparator bits, parity,
symmetric functions) are nearly impossible to *learn* but easy to
*recognize*: the input words are wired LSB-to-MSB, so hypothesizing a
known function and checking it against every training sample either
confirms it exactly or rejects it.  On a match the exact circuit is
constructed directly and generalizes perfectly.

Matchers provided (checked in this order):

* symmetric functions (including parity) — label depends only on the
  input popcount;
* k-bit adder output bits (``n = 2k`` inputs, two LSB-first words),
  any output bit, most usefully the MSB / 2nd MSB;
* unsigned comparators (``a > b``, ``a >= b``, ``a < b``, ``a <= b``,
  equality);
* k-bit multiplier output bits (checked for completeness; the paper
  notes the resulting AIGs are only feasible for small k);
* word-level XOR / AND / OR (bitwise reductions).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from repro.aig.aig import AIG, lit_not
from repro.aig.build import (
    comparator_greater,
    comparator_less,
    equality,
    multiplier,
    parity,
    ripple_adder,
    symmetric_function,
)
from repro.contest.problem import MAX_AND_NODES
from repro.utils.bitops import rows_to_ints


@dataclass
class Match:
    """A recognized standard function and its exact circuit."""

    name: str
    aig: AIG


def _words(X: np.ndarray) -> tuple[list[int], list[int]] | None:
    """Split even-width inputs into two LSB-first word value lists."""
    n = X.shape[1]
    if n % 2:
        return None
    k = n // 2
    a = rows_to_ints(X[:, :k])
    b = rows_to_ints(X[:, k:])
    return a, b


def match_symmetric(X: np.ndarray, y: np.ndarray) -> Match | None:
    """Label must be a function of the popcount, with every observed
    count consistent.  Unseen counts are filled with 0."""
    counts = X.sum(axis=1).astype(np.int64)
    n = X.shape[1]
    signature = ["-"] * (n + 1)
    for c, label in zip(counts, y, strict=True):
        current = signature[c]
        if current == "-":
            signature[c] = "1" if label else "0"
        elif current != ("1" if label else "0"):
            return None
    # Require enough coverage that the match is meaningful.
    if sum(1 for ch in signature if ch != "-") < min(n + 1, 3):
        return None
    sig = "".join(ch if ch != "-" else "0" for ch in signature)
    aig = AIG(n)
    aig.set_output(symmetric_function(aig, aig.input_lits(), sig))
    return Match(f"symmetric[{sig}]", aig)


def _check_predicate(
    values: np.ndarray, y: np.ndarray
) -> bool:
    return bool(np.array_equal(values.astype(np.uint8), y))


def match_adder_bit(X: np.ndarray, y: np.ndarray) -> Match | None:
    words = _words(X)
    if words is None:
        return None
    a, b = words
    k = X.shape[1] // 2
    sums = np.array([av + bv for av, bv in zip(a, b, strict=True)], dtype=object)
    for bit in range(k, -1, -1):
        predicted = np.array([(s >> bit) & 1 for s in sums], dtype=np.uint8)
        if _check_predicate(predicted, y):
            aig = AIG(2 * k)
            lits = aig.input_lits()
            s = ripple_adder(aig, lits[:k], lits[k:])
            aig.set_output(s[bit])
            return Match(f"adder[{k}]bit{bit}", aig)
    return None


def match_comparator(X: np.ndarray, y: np.ndarray) -> Match | None:
    words = _words(X)
    if words is None:
        return None
    a, b = words
    k = X.shape[1] // 2
    av = np.array(a, dtype=object)
    bv = np.array(b, dtype=object)
    predicates: list[tuple[str, np.ndarray]] = [
        ("gt", np.array([x > z for x, z in zip(a, b, strict=True)], dtype=np.uint8)),
        ("ge", np.array([x >= z for x, z in zip(a, b, strict=True)], dtype=np.uint8)),
        ("lt", np.array([x < z for x, z in zip(a, b, strict=True)], dtype=np.uint8)),
        ("le", np.array([x <= z for x, z in zip(a, b, strict=True)], dtype=np.uint8)),
        ("eq", np.array([x == z for x, z in zip(a, b, strict=True)], dtype=np.uint8)),
    ]
    del av, bv
    for name, predicted in predicates:
        if not _check_predicate(predicted, y):
            continue
        aig = AIG(2 * k)
        lits = aig.input_lits()
        wa, wb = lits[:k], lits[k:]
        if name == "gt":
            out = comparator_greater(aig, wa, wb)
        elif name == "ge":
            out = lit_not(comparator_less(aig, wa, wb))
        elif name == "lt":
            out = comparator_less(aig, wa, wb)
        elif name == "le":
            out = lit_not(comparator_greater(aig, wa, wb))
        else:
            out = equality(aig, wa, wb)
        aig.set_output(out)
        return Match(f"comparator[{k}]{name}", aig)
    return None


def match_multiplier_bit(X: np.ndarray, y: np.ndarray) -> Match | None:
    """Multiplier output bits; circuit only built for words of up to
    16 bits."""
    words = _words(X)
    if words is None:
        return None
    a, b = words
    k = X.shape[1] // 2
    if k > 16:
        return None
    products = [av * bv for av, bv in zip(a, b, strict=True)]
    for bit in range(2 * k - 1, -1, -1):
        predicted = np.array([(p >> bit) & 1 for p in products], dtype=np.uint8)
        if _check_predicate(predicted, y):
            aig = AIG(2 * k)
            lits = aig.input_lits()
            prod = multiplier(aig, lits[:k], lits[k:])
            aig.set_output(prod[bit])
            return Match(f"multiplier[{k}]bit{bit}", aig)
    return None


def match_wordwise(X: np.ndarray, y: np.ndarray) -> Match | None:
    """Bitwise-reduction patterns: XOR/OR/AND over all inputs of one of
    the two halves, or of the whole vector."""
    n = X.shape[1]
    candidates: list[tuple[str, np.ndarray, list[int]]] = []
    whole = list(range(n))
    candidates.append(("xor_all", X.sum(axis=1) % 2, whole))
    candidates.append(("or_all", (X.sum(axis=1) > 0).astype(np.uint8), whole))
    candidates.append(
        ("and_all", (X.sum(axis=1) == n).astype(np.uint8), whole)
    )
    for name, predicted, cols in candidates:
        if not _check_predicate(predicted.astype(np.uint8), y):
            continue
        aig = AIG(n)
        lits = [aig.input_lit(c) for c in cols]
        if name == "xor_all":
            out = parity(aig, lits)
        elif name == "or_all":
            out = aig.add_or_multi(lits)
        else:
            out = aig.add_and_multi(lits)
        aig.set_output(out)
        return Match(name, aig)
    return None


_MATCHERS: list[Callable[[np.ndarray, np.ndarray], Match | None]] = [
    match_wordwise,
    match_symmetric,
    match_adder_bit,
    match_comparator,
    match_multiplier_bit,
]


def match_standard_function(X: np.ndarray, y: np.ndarray) -> Match | None:
    """Try every matcher; return the first exact match whose circuit
    fits the contest's node cap."""
    X = np.asarray(X, dtype=np.uint8)
    y = np.asarray(y, dtype=np.uint8).ravel()
    if X.shape[0] == 0:
        return None
    for matcher in _MATCHERS:
        found = matcher(X, y)
        if found is not None and found.aig.num_ands <= MAX_AND_NODES:
            return found
    return None
