"""Boosted trees -> quantized-vote AIG (Team 7's pipeline).

Each regression tree's leaves are quantized to one bit (weight > 0);
the ensemble output is the majority of these bits, realized with a
3-layer MAJ-5 tree when the ensemble has at most 125 trees (the
paper's Fig. 25 approximation) or an exact ones-counter majority
otherwise.
"""

from __future__ import annotations

from repro.aig.aig import AIG, CONST0, CONST1
from repro.aig.build import maj5_tree, majority_n
from repro.ml.boosting import GradientBoostedTrees, _RegressionTree


def _reg_tree_lit(aig: AIG, tree: _RegressionTree, inputs: list[int]) -> int:
    memo: dict[int, int] = {}

    def rec(node_id: int) -> int:
        found = memo.get(node_id)
        if found is not None:
            return found
        node = tree.nodes[node_id]
        if node.is_leaf:
            lit = CONST1 if node.weight > 0 else CONST0
        else:
            lit = aig.add_mux(
                inputs[node.feature], rec(node.right), rec(node.left)
            )
        memo[node_id] = lit
        return lit

    return rec(0)


def boosted_to_aig(model: GradientBoostedTrees) -> AIG:
    """Compile the quantized ensemble vote: an approximate MAJ-5 tree
    over at most 125 trees (Team 7's ensemble size), an exact
    ones-counter vote over more.
    """
    if model.n_inputs is None:
        raise RuntimeError("model is not fitted")
    aig = AIG(model.n_inputs)
    inputs = aig.input_lits()
    bits = [_reg_tree_lit(aig, tree, inputs) for tree in model.trees]
    if not bits:
        aig.set_output(CONST0)  # the 0.5 base score: margin 0
        return aig
    if len(bits) == 1:
        aig.set_output(bits[0])
        return aig
    if len(bits) % 2 == 0:
        bits.append(bits[-1])  # break ties toward the last tree
    if len(bits) > 125:
        out = majority_n(aig, bits)
    else:
        out = maj5_tree(aig, bits)
    aig.set_output(out)
    return aig
