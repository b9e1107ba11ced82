"""The 100-benchmark suite of Table I.

======  ==========================================================
ex      contents
======  ==========================================================
00-09   2 MSBs of k-bit adders, k in {16, 32, 64, 128, 256}
10-19   quotient/remainder MSBs of k-bit dividers, same k
20-29   MSB and middle bit of k-bit multipliers, k in {8..128}
30-39   k-bit comparators, k in {10, 20, ..., 100}
40-49   LSB and middle bit of k-bit square-rooters, k in {16..256}
50-59   PicoJava-like balanced random control cones, 16-200 inputs
60-69   i10-like balanced random mixed cones, 16-200 inputs
70-74   cordic (2 outputs), too_large-like, t481-like, 16-parity
75-79   16-input symmetric functions (signatures from the paper)
80-89   MNIST-like group comparisons (Table II)
90-99   CIFAR-like group comparisons (Table II)
======  ==========================================================

Benchmarks 50-99 use documented synthetic substitutions (DESIGN.md
section 3).  Sampling follows the contest: 6400 train + 6400
validation + 6400 test rows, drawn without replacement where the input
space allows.

The benchmarks themselves are the named specs ``ex00``..``ex99`` of
:data:`repro.contest.registry.DEFAULT_REGISTRY`; sample one with
``DEFAULT_REGISTRY.problem("ex30", n_train=...)`` or address it by
index with ``DEFAULT_REGISTRY.by_index(30)``.
"""

from __future__ import annotations


def default_small_indices() -> list[int]:
    """Two representative benchmarks per category (20 total).

    Used by the small-scale bench harness; pairs a small (learnable or
    matchable) instance with a wide (hard-tail) instance where the
    category has both, so reduced runs preserve the paper's difficulty
    spread.
    """
    return [0, 1, 10, 11, 20, 27, 30, 31, 40, 47,
            50, 59, 60, 69, 74, 75, 80, 81, 90, 91]
