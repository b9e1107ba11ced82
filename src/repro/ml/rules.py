"""PART-style rule-list learning (Team 2's second classifier).

PART [Frank & Witten 1998] combines decision-tree induction with
separate-and-conquer rule learning: repeatedly build a (partial) C4.5
tree on the remaining samples, turn the leaf that covers the most
samples into a rule, discard the covered samples and repeat.  The
resulting ordered rule list is evaluated first-match-wins, which the
synthesis bridge turns into the priority AND/OR network of the paper's
Fig. 10.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ml.decision_tree import DecisionTree


@dataclass
class Rule:
    """Conjunction of ``(feature, value)`` tests implying ``label``."""

    literals: tuple[tuple[int, int], ...]
    label: int

    def matches(self, X: np.ndarray) -> np.ndarray:
        out = np.ones(X.shape[0], dtype=bool)
        for feature, value in self.literals:
            out &= X[:, feature] == value
        return out


class RuleList:
    """Ordered rules with a default label; first match wins."""

    def __init__(self, rules: list[Rule], default: int, n_inputs: int):
        self.rules = rules
        self.default = default
        self.n_inputs = n_inputs

    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.uint8)
        if X.ndim == 1:
            X = X[None, :]
        out = np.full(X.shape[0], self.default, dtype=np.uint8)
        undecided = np.ones(X.shape[0], dtype=bool)
        for rule in self.rules:
            hit = rule.matches(X) & undecided
            out[hit] = rule.label
            undecided &= ~hit
        return out

    def __len__(self) -> int:
        return len(self.rules)


#: Cap on the rules one learner extracts.
MAX_RULES = 200


class PartRuleLearner:
    """Separate-and-conquer rule induction from partial C4.5 trees.

    Parameters mirror the J48 knobs Team 2 swept: ``confidence_factor``
    controls pruning of each partial tree, ``min_samples_leaf`` is
    WEKA's ``-M``.  At most :data:`MAX_RULES` rules are extracted.
    """

    def __init__(
        self,
        confidence_factor: float = 0.25,
        min_samples_leaf: int = 2,
    ):
        self.confidence_factor = confidence_factor
        self.min_samples_leaf = min_samples_leaf

    def fit(self, X: np.ndarray, y: np.ndarray) -> RuleList:
        X = np.asarray(X, dtype=np.uint8)
        y = np.asarray(y, dtype=np.uint8).ravel()
        remaining = np.arange(X.shape[0])
        rules: list[Rule] = []
        while remaining.size > 0 and len(rules) < MAX_RULES:
            ys = y[remaining]
            if ys.min() == ys.max():
                break  # remainder is pure: becomes the default label
            tree = DecisionTree(min_samples_leaf=self.min_samples_leaf)
            tree.fit(X[remaining], y[remaining])
            tree.prune(self.confidence_factor)
            rule = self._best_leaf_rule(tree)
            if rule is None:
                break
            hit = rule.matches(X[remaining])
            if not hit.any():
                break
            rules.append(rule)
            remaining = remaining[~hit]
        if remaining.size > 0:
            ys = y[remaining]
            default = 1 if 2 * int(ys.sum()) > ys.size else 0
        else:
            default = rules[-1].label ^ 1 if rules else 0
        return RuleList(rules, default, X.shape[1])

    @staticmethod
    def _best_leaf_rule(tree: DecisionTree) -> Rule | None:
        """Rule from the leaf covering the most training samples."""
        best = None
        best_count = -1

        def rec(node_id, path):
            nonlocal best, best_count
            node = tree.nodes[node_id]
            if node.is_leaf:
                if node.n_samples > best_count:
                    best_count = node.n_samples
                    best = Rule(tuple(path), node.value)
                return
            rec(node.left, path + [(node.feature, 0)])
            rec(node.right, path + [(node.feature, 1)])

        rec(0, [])
        if best is not None and len(best.literals) == 0:
            return None  # the tree is a single leaf: no usable rule
        return best
