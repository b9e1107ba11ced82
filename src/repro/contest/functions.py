"""Ground-truth benchmark functions (arithmetic, symmetric, CORDIC).

Each function maps a ``(n_samples, n_inputs)`` 0/1 matrix to labels.
Word operands are wired LSB-first, with word A in the low columns and
word B in the high columns — the ordering the paper says let Team 1
reverse-engineer the arithmetic test cases.

All arithmetic is exact Python-integer arithmetic, so 256-bit dividers
and square-rooters are no problem.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import Any

import numpy as np

from repro.utils.bitops import rows_to_ints

LabelFn = Callable[[np.ndarray], np.ndarray]


def brand_label_fn(
    fn: Any, n_inputs: int, name: str, **extra: Any
) -> LabelFn:
    """Attach the introspection attributes every label function carries
    (``n_inputs``, a readable ``__name__``, optional extras like the
    frozen cone's ``aig``)."""
    fn.n_inputs = n_inputs
    fn.__name__ = name
    for key, value in extra.items():
        setattr(fn, key, value)
    return fn


def _split_words(X: np.ndarray) -> tuple:
    k = X.shape[1] // 2
    return rows_to_ints(X[:, :k]), rows_to_ints(X[:, k:])


def adder_bit(k: int, bit: int) -> LabelFn:
    """Output bit ``bit`` of the (k+1)-bit sum of two k-bit words."""

    def fn(X: np.ndarray) -> np.ndarray:
        a, b = _split_words(X)
        return np.array(
            [((x + y) >> bit) & 1 for x, y in zip(a, b, strict=True)], dtype=np.uint8
        )

    return brand_label_fn(fn, 2 * k, f"adder{k}_bit{bit}")


def divider_bit(k: int, part: str) -> LabelFn:
    """MSB of the quotient or remainder of ``a / b`` (k-bit words).

    Division by zero follows the usual hardware convention: quotient
    all-ones, remainder = dividend.
    """
    if part not in ("quotient", "remainder"):
        raise ValueError("part must be 'quotient' or 'remainder'")
    msb = k - 1

    def fn(X: np.ndarray) -> np.ndarray:
        a, b = _split_words(X)
        out = []
        for x, y in zip(a, b, strict=True):
            if y == 0:
                q, r = (1 << k) - 1, x
            else:
                q, r = divmod(x, y)
            value = q if part == "quotient" else r
            out.append((value >> msb) & 1)
        return np.array(out, dtype=np.uint8)

    return brand_label_fn(fn, 2 * k, f"divider{k}_{part}_msb")


def multiplier_bit(k: int, bit: int) -> LabelFn:
    """Output bit ``bit`` of the 2k-bit product of two k-bit words."""

    def fn(X: np.ndarray) -> np.ndarray:
        a, b = _split_words(X)
        return np.array(
            [((x * y) >> bit) & 1 for x, y in zip(a, b, strict=True)], dtype=np.uint8
        )

    return brand_label_fn(fn, 2 * k, f"multiplier{k}_bit{bit}")


def comparator(k: int) -> LabelFn:
    """``a > b`` over two k-bit words."""

    def fn(X: np.ndarray) -> np.ndarray:
        a, b = _split_words(X)
        return np.array([int(x > y) for x, y in zip(a, b, strict=True)], dtype=np.uint8)

    return brand_label_fn(fn, 2 * k, f"comparator{k}")


def sqrt_bit(k: int, which: str) -> LabelFn:
    """LSB or middle bit of the integer square root of a k-bit word."""
    root_bits = (k + 1) // 2
    bit = 0 if which == "lsb" else root_bits // 2

    def fn(X: np.ndarray) -> np.ndarray:
        values = rows_to_ints(X)
        return np.array(
            [(math.isqrt(v) >> bit) & 1 for v in values], dtype=np.uint8
        )

    return brand_label_fn(fn, k, f"sqrt{k}_{which}")


# The five 16-input symmetric signatures of ex75-ex79 (Table I text).
SYMMETRIC_SIGNATURES: list[str] = [
    "00000000111111111",
    "11111100000111111",
    "00011110001111000",
    "00001110101110000",
    "00000011111000000",
]


def symmetric16(signature: str) -> LabelFn:
    """16-input symmetric function from its 17-character signature."""
    if len(signature) != 17:
        raise ValueError("signature must have 17 characters")
    lut = np.array([1 if ch == "1" else 0 for ch in signature], dtype=np.uint8)

    def fn(X: np.ndarray) -> np.ndarray:
        return lut[X.sum(axis=1)]

    return brand_label_fn(fn, 16, f"symmetric16_{signature}")


def parity(n: int = 16) -> LabelFn:
    """XOR of all inputs (MCNC ``parity``, ex74)."""

    def fn(X: np.ndarray) -> np.ndarray:
        return (X.sum(axis=1) % 2).astype(np.uint8)

    return brand_label_fn(fn, n, f"parity{n}")


def t481_like() -> LabelFn:
    """Structured 16-input function standing in for MCNC ``t481``.

    t481 is the classic example of a function with a huge SOP but a
    tiny multi-level form built from XORs and ANDs; we use the same
    shape: XOR of four (xor AND xor) groups.
    """

    def fn(X: np.ndarray) -> np.ndarray:
        x = X.astype(np.uint8)
        groups = []
        for g in range(4):
            base = 4 * g
            left = x[:, base] ^ x[:, base + 1]
            right = x[:, base + 2] ^ x[:, base + 3]
            groups.append(left & right)
        out = groups[0]
        for g in groups[1:]:
            out = out ^ g
        return out.astype(np.uint8)

    return brand_label_fn(fn, 16, "t481_like")


def cordic_sign(output: str = "sin_ge") -> LabelFn:
    """CORDIC benchmark substitute (MCNC ``cordic``, ex70/ex71).

    Inputs are a 12-bit phase word and an 11-bit threshold.  A
    fixed-iteration integer CORDIC rotation computes sin/cos of the
    phase; the output compares it to the threshold:
    ``sin_ge`` -> sin(theta) >= v, ``cos_ge`` -> cos(theta) >= v
    (both in signed fixed point).
    """
    if output not in ("sin_ge", "cos_ge"):
        raise ValueError("output must be 'sin_ge' or 'cos_ge'")
    angle_bits, value_bits = 12, 11
    iterations = 14
    scale = 1 << 14
    # Pre-computed arctan table in turn units scaled by 2**angle_bits.
    atan_table = [
        math.atan(2.0**-i) / (2 * math.pi) for i in range(iterations)
    ]
    gain = 1.0
    for i in range(iterations):
        gain *= math.sqrt(1 + 2.0 ** (-2 * i))

    def cordic(theta_turns: float) -> tuple:
        # Rotate (1/gain, 0) by theta using doubling into [-1/4, 1/4].
        angle = theta_turns % 1.0
        x, y = 1.0 / gain, 0.0
        # Map to [-1/2, 1/2) then quadrant-fix.
        if angle >= 0.5:
            angle -= 1.0
        flip = False
        if angle > 0.25:
            angle -= 0.5
            flip = True
        elif angle < -0.25:
            angle += 0.5
            flip = True
        z = angle
        for i in range(iterations):
            d = 1.0 if z >= 0 else -1.0
            x, y = x - d * y * 2.0**-i, y + d * x * 2.0**-i
            z -= d * atan_table[i]
        if flip:
            x, y = -x, -y
        return x, y

    def fn(X: np.ndarray) -> np.ndarray:
        angles = rows_to_ints(X[:, :angle_bits])
        thresholds = rows_to_ints(X[:, angle_bits:])
        out = []
        for a, v in zip(angles, thresholds, strict=True):
            x, y = cordic(a / (1 << angle_bits))
            target = y if output == "sin_ge" else x
            fixed = int(round(target * scale))
            # Threshold is unsigned in [0, 2^value_bits); compare in
            # the shifted domain so both polarities matter.
            shifted = fixed + scale  # [0, 2*scale]
            level = v << (15 - value_bits)
            out.append(int(shifted >= level))
        return np.array(out, dtype=np.uint8)

    return brand_label_fn(fn, angle_bits + value_bits, f"cordic_{output}")


def wide_sop_like(
    n_inputs: int = 38, n_cubes: int = 40, literals: int = 7, seed: int = 0
) -> LabelFn:
    """Seeded wide two-level function (MCNC ``too_large`` substitute)."""
    rng = np.random.default_rng(seed)
    cubes = []
    for _ in range(n_cubes):
        cols = rng.choice(n_inputs, size=literals, replace=False)
        vals = rng.integers(0, 2, size=literals)
        cubes.append((cols, vals))

    def fn(X: np.ndarray) -> np.ndarray:
        out = np.zeros(X.shape[0], dtype=bool)
        for cols, vals in cubes:
            out |= (X[:, cols] == vals).all(axis=1)
        return out.astype(np.uint8)

    return brand_label_fn(fn, n_inputs, f"wide_sop_{seed}")
