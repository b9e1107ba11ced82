"""Cube algebra over binary input spaces.

A cube is a conjunction of literals.  It is stored as two integer
bitmasks: ``mask`` selects the bound input positions and ``value``
holds their required values (bits outside ``mask`` are zero).  A
minterm ``m`` (an integer whose bit ``i`` is input ``i``) is contained
in the cube iff ``(m & mask) == value``.  Python's arbitrary-precision
ints make this exact for any input count (the contest has up to ~784
inputs on the CIFAR benchmarks).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass


@dataclass(frozen=True)
class Cube:
    """An input cube (product term)."""

    mask: int
    value: int

    def __post_init__(self):
        if self.value & ~self.mask:
            raise ValueError("cube value has bits outside its mask")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def full() -> "Cube":
        """The universal cube (no literals)."""
        return Cube(0, 0)

    @staticmethod
    def from_minterm(minterm: int, n_inputs: int) -> "Cube":
        """Cube with every input bound, matching exactly one minterm."""
        mask = (1 << n_inputs) - 1
        return Cube(mask, minterm & mask)

    @staticmethod
    def from_string(text: str) -> "Cube":
        """Parse a PLA-style string of ``0``, ``1``, ``-`` (input 0 first)."""
        mask = 0
        value = 0
        for i, ch in enumerate(text.strip()):
            if ch == "0":
                mask |= 1 << i
            elif ch == "1":
                mask |= 1 << i
                value |= 1 << i
            elif ch not in "-~2":
                raise ValueError(f"bad cube character {ch!r}")
        return Cube(mask, value)

    @staticmethod
    def from_literals(literals) -> "Cube":
        """Build from ``(var, value)`` pairs."""
        mask = 0
        value = 0
        for var, val in literals:
            mask |= 1 << var
            if val:
                value |= 1 << var
        return Cube(mask, value)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def contains_minterm(self, minterm: int) -> bool:
        return (minterm & self.mask) == self.value

    def literals(self) -> Iterator[tuple[int, int]]:
        """Yield ``(var, value)`` pairs of the bound positions."""
        mask = self.mask
        while mask:
            low = mask & -mask
            var = low.bit_length() - 1
            yield var, (self.value >> var) & 1
            mask ^= low

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def without_literal(self, var: int) -> "Cube":
        """Copy with input ``var`` freed (expanded)."""
        bit = 1 << var
        return Cube(self.mask & ~bit, self.value & ~bit)

    def to_string(self, n_inputs: int) -> str:
        """PLA-style string representation."""
        chars = []
        for i in range(n_inputs):
            bit = 1 << i
            if not self.mask & bit:
                chars.append("-")
            elif self.value & bit:
                chars.append("1")
            else:
                chars.append("0")
        return "".join(chars)
