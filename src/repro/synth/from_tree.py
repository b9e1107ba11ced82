"""Decision tree -> MUX-tree AIG (Teams 8 and 10's conversion).

Every internal node becomes a 2:1 multiplexer selected by its feature;
leaves become constants.  Shared subtrees are shared automatically by
structural hashing.
"""

from __future__ import annotations

from repro.aig.aig import AIG, CONST0, CONST1
from repro.ml.decision_tree import DecisionTree
from repro.ml.fringe import FringeDT


def _tree_lit(
    aig: AIG, tree: DecisionTree, node_id: int, feature_lits: list[int],
    memo: dict[int, int],
) -> int:
    found = memo.get(node_id)
    if found is not None:
        return found
    node = tree.nodes[node_id]
    if node.is_leaf:
        lit = CONST1 if node.value else CONST0
    else:
        t = _tree_lit(aig, tree, node.right, feature_lits, memo)
        e = _tree_lit(aig, tree, node.left, feature_lits, memo)
        lit = aig.add_mux(feature_lits[node.feature], t, e)
    memo[node_id] = lit
    return lit


def tree_to_aig(tree: DecisionTree) -> AIG:
    """Compile a fitted tree into a fresh AIG over its raw inputs
    (:func:`tree_output_lit` grafts one onto an existing graph)."""
    aig = AIG(tree.n_inputs)
    aig.set_output(tree_output_lit(tree, aig, aig.input_lits()))
    return aig


def tree_output_lit(
    tree: DecisionTree, aig: AIG, feature_lits: list[int]
) -> int:
    """Graft a tree onto ``aig``; returns its output literal."""
    return _tree_lit(aig, tree, 0, feature_lits, {})


def fringe_dt_to_aig(model: FringeDT) -> AIG:
    """Compile a fringe DT: composite features first, then the tree."""
    if model.tree is None or model.n_raw_inputs is None:
        raise RuntimeError("FringeDT is not fitted")
    aig = AIG(model.n_raw_inputs)
    feature_lits = list(aig.input_lits())
    for feat in model.features:
        a = feature_lits[feat.var_a]
        b = feature_lits[feat.var_b]
        feature_lits.append(_fringe_lit(aig, feat.op, a, b))
    lit = _tree_lit(aig, model.tree, 0, feature_lits, {})
    aig.set_output(lit)
    return aig


def _fringe_lit(aig: AIG, op: str, a: int, b: int) -> int:
    from repro.aig.aig import lit_not

    if op == "and":
        return aig.add_and(a, b)
    if op == "and_na":
        return aig.add_and(lit_not(a), b)
    if op == "and_nb":
        return aig.add_and(a, lit_not(b))
    if op == "nor":
        return aig.add_and(lit_not(a), lit_not(b))
    if op == "or":
        return aig.add_or(a, b)
    if op == "or_na":
        return aig.add_or(lit_not(a), b)
    if op == "or_nb":
        return aig.add_or(a, lit_not(b))
    if op == "nand":
        return lit_not(aig.add_and(a, b))
    if op == "xor":
        return aig.add_xor(a, b)
    if op == "xnor":
        return lit_not(aig.add_xor(a, b))
    if op == "not_a":
        return lit_not(a)
    if op == "not_b":
        return lit_not(b)
    raise ValueError(f"unknown fringe op {op!r}")
