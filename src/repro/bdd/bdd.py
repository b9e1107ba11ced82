"""A small ROBDD manager.

Nodes are integers: 0 and 1 are the terminals; internal nodes live in
a unique table keyed by ``(var, low, high)``.  Variables are levels —
lower index is closer to the root — so callers choose an input order
by permuting columns before building.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

FALSE = 0
TRUE = 1


class BDD:
    """Manager owning the unique table and operation caches."""

    def __init__(self, n_vars: int):
        self.n_vars = n_vars
        # entries[i] = (var, low, high) for i >= 2.
        self._entries: list[tuple[int, int, int]] = []
        self._unique: dict[tuple[int, int, int], int] = {}
        self._apply_cache: dict[tuple[str, int, int], int] = {}
        self._not_cache: dict[int, int] = {}

    # ------------------------------------------------------------------
    def var_of(self, node: int) -> int:
        """Level of a node (terminals sit below every variable)."""
        if node < 2:
            return self.n_vars
        return self._entries[node - 2][0]

    def low(self, node: int) -> int:
        return self._entries[node - 2][1]

    def high(self, node: int) -> int:
        return self._entries[node - 2][2]

    def mk(self, var: int, low: int, high: int) -> int:
        """Get-or-create a node (with the reduction rule)."""
        if low == high:
            return low
        key = (var, low, high)
        found = self._unique.get(key)
        if found is not None:
            return found
        node = len(self._entries) + 2
        self._entries.append(key)
        self._unique[key] = node
        return node

    def var_node(self, var: int) -> int:
        """The function ``x_var``."""
        return self.mk(var, FALSE, TRUE)

    # ------------------------------------------------------------------
    def _cofactors(self, node: int, var: int) -> tuple[int, int]:
        if self.var_of(node) == var:
            return self.low(node), self.high(node)
        return node, node

    def apply(self, op: str, f: int, g: int) -> int:
        """Binary operation via the standard recursive apply."""
        if f > g:  # all supported ops are commutative
            f, g = g, f
        key = (op, f, g)
        found = self._apply_cache.get(key)
        if found is not None:
            return found
        result = self._apply_terminal(op, f, g)
        if result is None:
            var = min(self.var_of(f), self.var_of(g))
            f0, f1 = self._cofactors(f, var)
            g0, g1 = self._cofactors(g, var)
            result = self.mk(
                var, self.apply(op, f0, g0), self.apply(op, f1, g1)
            )
        self._apply_cache[key] = result
        return result

    @staticmethod
    def _apply_terminal(op: str, f: int, g: int) -> int | None:
        if op == "and":
            if f == FALSE or g == FALSE:
                return FALSE
            if f == TRUE:
                return g
            if g == TRUE:
                return f
            if f == g:
                return f
        elif op == "or":
            if f == TRUE or g == TRUE:
                return TRUE
            if f == FALSE:
                return g
            if g == FALSE:
                return f
            if f == g:
                return f
        elif op == "xor":
            if f == g:
                return FALSE
            if f == FALSE:
                return g
            if g == FALSE:
                return f
        else:
            raise ValueError(f"unknown op {op!r}")
        return None

    def and_(self, f: int, g: int) -> int:
        return self.apply("and", f, g)

    def or_(self, f: int, g: int) -> int:
        return self.apply("or", f, g)

    def xor_(self, f: int, g: int) -> int:
        return self.apply("xor", f, g)

    def not_(self, f: int) -> int:
        found = self._not_cache.get(f)
        if found is not None:
            return found
        if f < 2:
            result = 1 - f
        else:
            var, low, high = self._entries[f - 2]
            result = self.mk(var, self.not_(low), self.not_(high))
        self._not_cache[f] = result
        return result

    # ------------------------------------------------------------------
    def from_minterm(self, bits: Sequence[int]) -> int:
        """Cube of a full assignment (bit i = variable/level i)."""
        node = TRUE
        for var in reversed(range(self.n_vars)):
            if bits[var]:
                node = self.mk(var, FALSE, node)
            else:
                node = self.mk(var, node, FALSE)
        return node

    def from_samples(self, X: np.ndarray) -> int:
        """OR of the minterms of every row (balanced reduction)."""
        X = np.asarray(X, dtype=np.uint8)
        nodes = [self.from_minterm(row) for row in X]
        if not nodes:
            return FALSE
        while len(nodes) > 1:
            nxt = [
                self.or_(nodes[i], nodes[i + 1])
                for i in range(0, len(nodes) - 1, 2)
            ]
            if len(nodes) % 2:
                nxt.append(nodes[-1])
            nodes = nxt
        return nodes[0]

    # ------------------------------------------------------------------
    def evaluate_one(self, node: int, bits: Sequence[int]) -> int:
        while node >= 2:
            var, low, high = self._entries[node - 2]
            node = high if bits[var] else low
        return node

    def evaluate(self, node: int, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.uint8)
        return np.array(
            [self.evaluate_one(node, row) for row in X], dtype=np.uint8
        )

    def count_nodes(self, node: int) -> int:
        """Internal nodes reachable from ``node``."""
        seen = set()
        stack = [node]
        while stack:
            f = stack.pop()
            if f < 2 or f in seen:
                continue
            seen.add(f)
            stack.append(self.low(f))
            stack.append(self.high(f))
        return len(seen)

    def to_aig(self, node: int):
        """Compile to a MUX-tree AIG (one MUX per BDD node)."""
        from repro.aig.aig import AIG

        aig = AIG(self.n_vars)
        memo: dict[int, int] = {FALSE: 0, TRUE: 1}

        def rec(f: int) -> int:
            found = memo.get(f)
            if found is not None:
                return found
            var, low, high = self._entries[f - 2]
            lit = aig.add_mux(aig.input_lit(var), rec(high), rec(low))
            memo[f] = lit
            return lit

        aig.set_output(rec(node))
        return aig
