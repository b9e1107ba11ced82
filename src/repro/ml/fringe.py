"""Fringe feature extraction (Team 3's Fr-DT).

After training a decision tree, the variable pairs tested on the last
two levels above each leaf ("the fringe") are combined into composite
features — the 12 two-variable Boolean functions of Pagallo & Haussler
/ Oliveira & Sangiovanni-Vincentelli — which are added as new input
columns and the tree is retrained.  Iterating this lets a DT discover
XOR-like structure that single-variable splits cannot.

A :class:`FringeDT` carries its composite-feature definitions so it
can featurize raw inputs at prediction time and so the synthesis
bridge can realize each composite feature as two extra AIG nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.decision_tree import DecisionTree

# A composite feature: (var_a, var_b, op). Vars index the *augmented*
# feature list, op is one of the function names below.
FRINGE_OPS = (
    "and",     # a & b
    "and_na",  # ~a & b
    "and_nb",  # a & ~b
    "nor",     # ~a & ~b
    "or",      # a | b
    "or_na",   # ~a | b
    "or_nb",   # a | ~b
    "nand",    # ~a | ~b
    "xor",     # a ^ b
    "xnor",    # ~(a ^ b)
    "not_a",   # ~a (degenerate fringe patterns)
    "not_b",   # ~b
)


@dataclass(frozen=True)
class CompositeFeature:
    var_a: int
    var_b: int
    op: str

    def evaluate(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a = a.astype(bool)
        b = b.astype(bool)
        if self.op == "and":
            out = a & b
        elif self.op == "and_na":
            out = ~a & b
        elif self.op == "and_nb":
            out = a & ~b
        elif self.op == "nor":
            out = ~a & ~b
        elif self.op == "or":
            out = a | b
        elif self.op == "or_na":
            out = ~a | b
        elif self.op == "or_nb":
            out = a | ~b
        elif self.op == "nand":
            out = ~a | ~b
        elif self.op == "xor":
            out = a ^ b
        elif self.op == "xnor":
            out = ~(a ^ b)
        elif self.op == "not_a":
            out = ~a
        elif self.op == "not_b":
            out = ~b
        else:
            raise ValueError(f"unknown fringe op {self.op!r}")
        return out.astype(np.uint8)


#: Cap on the composite features one model extracts.
MAX_FEATURES = 64


class FringeDT:
    """Decision tree with iterated fringe feature extraction: at most
    :data:`MAX_FEATURES` composite features, each tree pruned at C4.5's
    0.25 confidence factor."""

    def __init__(
        self,
        max_iterations: int = 10,
        max_depth: int | None = None,
    ):
        self.max_iterations = max_iterations
        self.max_depth = max_depth
        self.features: list[CompositeFeature] = []
        self.tree: DecisionTree | None = None
        self.n_raw_inputs: int | None = None

    # ------------------------------------------------------------------
    def featurize(self, X: np.ndarray) -> np.ndarray:
        """Append composite feature columns to the raw inputs."""
        X = np.asarray(X, dtype=np.uint8)
        cols = [X]
        n = X.shape[1]
        values = list(X.T)
        for feat in self.features:
            col = feat.evaluate(values[feat.var_a], values[feat.var_b])
            values.append(col)
            cols.append(col[:, None])
        del n
        return np.hstack(cols)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "FringeDT":
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y, dtype=np.uint8).ravel()
        self.n_raw_inputs = X.shape[1]
        self.features = []
        seen: set[CompositeFeature] = set()
        for _ in range(self.max_iterations):
            Xa = self.featurize(X)
            tree = DecisionTree(max_depth=self.max_depth)
            tree.fit(Xa, y)
            tree.prune(0.25)
            self.tree = tree
            new = [
                f
                for f in self._fringe_candidates(tree)
                if f not in seen
            ]
            if not new or len(self.features) + len(new) > MAX_FEATURES:
                break
            for f in new:
                seen.add(f)
                self.features.append(f)
        return self

    def _fringe_candidates(self, tree: DecisionTree) -> list[CompositeFeature]:
        """Composite features from parent/leaf-child variable pairs.

        Two fringe shapes are recognized, covering the 12 two-variable
        patterns of the paper's Fig. 14:

        * a full fringe subtree — parent splits on ``a``, one branch is
          a leaf and the other splits on ``b`` into two leaves — fixes
          the complete two-variable truth table, mapped directly to
          its operation;
        * a half-space fringe — both parent branches are internal but
          one child's grandchildren are leaves — yields the AND-type
          pattern of the known half-space.
        """
        found: list[CompositeFeature] = []

        def leaf_value(node_id) -> int | None:
            node = tree.nodes[node_id]
            return node.value if node.is_leaf else None

        for node in tree.nodes:
            if node.is_leaf:
                continue
            for parent_side, child_id in ((0, node.left), (1, node.right)):
                child = tree.nodes[child_id]
                if child.is_leaf:
                    continue
                lv0 = leaf_value(child.left)
                lv1 = leaf_value(child.right)
                if lv0 is None or lv1 is None or lv0 == lv1:
                    continue
                a, b = node.feature, child.feature
                if a == b:
                    continue
                other_id = node.right if parent_side == 0 else node.left
                other_value = leaf_value(other_id)
                if other_value is not None:
                    # Full subtree known: derive the exact 2-var op.
                    op = _full_pattern_op(
                        parent_side, other_value, lv0, lv1
                    )
                else:
                    op = _pattern_op(parent_side, lv0, lv1)
                if op is None:
                    continue
                found.append(CompositeFeature(a, b, op))
        return found

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self.tree is None:
            raise RuntimeError("FringeDT is not fitted")
        return self.tree.predict(self.featurize(X))


# Two-variable truth tables (bit index = a + 2*b) -> fringe ops.
_TT_TO_OP = {
    0b1000: "and",
    0b0100: "and_na",
    0b0010: "and_nb",
    0b0001: "nor",
    0b1110: "or",
    0b1101: "or_na",
    0b1011: "or_nb",
    0b0111: "nand",
    0b0110: "xor",
    0b1001: "xnor",
    0b0101: "not_a",
    0b0011: "not_b",
}


def _full_pattern_op(
    parent_side: int, other_value: int, leaf0: int, leaf1: int
) -> str | None:
    """Op of a fully-known fringe subtree.

    The parent splits on ``a``; branch ``parent_side`` splits on ``b``
    with leaves ``leaf0``/``leaf1``; the other branch is the constant
    ``other_value``.  Constant and single-variable tables return None
    (no composite needed).
    """
    table = 0
    for a in (0, 1):
        for b in (0, 1):
            if a == parent_side:
                value = leaf1 if b else leaf0
            else:
                value = other_value
            if value:
                table |= 1 << (a + 2 * b)
    return _TT_TO_OP.get(table)


def _pattern_op(parent_side: int, leaf0: int, leaf1: int) -> str | None:
    """Boolean op of the fringe pattern (parent var a, child var b).

    ``parent_side`` tells which branch of the parent we descended
    (0 = a is false, 1 = a is true); the child splits on b, its 0/1
    leaves classify ``leaf0`` / ``leaf1``.  The subtree then computes
    a two-variable function of (a, b) on that half-space; we return
    the function extended most naturally to the full space, following
    the 12 fringe patterns.
    """
    if parent_side == 1:  # reached when a = 1
        if (leaf0, leaf1) == (0, 1):
            return "and"       # 1-region: a & b
        if (leaf0, leaf1) == (1, 0):
            return "and_nb"    # a & ~b
    else:  # reached when a = 0
        if (leaf0, leaf1) == (0, 1):
            return "and_na"    # ~a & b
        if (leaf0, leaf1) == (1, 0):
            return "nor"       # ~a & ~b
    return None
