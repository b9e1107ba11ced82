"""Pruned MLP -> LUT network -> AIG (Team 3's neuron-to-LUT step).

Each neuron of a connection-pruned MLP has a small surviving fanin
set; enumerating all fanin assignments and thresholding the activation
at 0.5 turns the neuron into a truth table (the paper's Fig. 15),
which is realized as a LUT over the literals of its fanin neurons.
"""

from __future__ import annotations

import numpy as np

from repro.aig.aig import AIG
from repro.aig.build import lut
from repro.ml.mlp import MLP, _act
from repro.utils.bitops import bits_to_int

MAX_FANIN_FOR_SYNTH = 16


def _neuron_table(weights: np.ndarray, bias: float, activation: str) -> int:
    """Truth table of one neuron over its fanin bits (threshold 0.5)."""
    k = weights.shape[0]
    if k > MAX_FANIN_FOR_SYNTH:
        raise ValueError(
            f"neuron fanin {k} too large to enumerate; prune the network "
            f"to <= {MAX_FANIN_FOR_SYNTH} first"
        )
    patterns = np.arange(1 << k)
    grid = ((patterns[:, None] >> np.arange(k)) & 1).astype(np.float64)
    # One dot product per pattern, as a neuron evaluates one input: a
    # single ``grid @ weights`` may round differently in the last bit.
    z = np.array([weights @ row for row in grid]) + bias
    return bits_to_int(_act(activation, z) >= 0.5)


def mlp_to_aig(model: MLP) -> AIG:
    """Compile a fitted (and pruned) MLP into an AIG."""
    if not model.layers or model.n_inputs is None:
        raise RuntimeError("MLP is not fitted")
    aig = AIG(model.n_inputs)
    prev_lits: list[int] = aig.input_lits()
    for layer in model.layers:
        masked = layer.W * layer.mask
        new_lits: list[int] = []
        for j in range(masked.shape[1]):
            alive = np.nonzero(layer.mask[:, j])[0]
            table = _neuron_table(
                masked[alive, j], float(layer.b[j]), layer.activation
            )
            leaves = [prev_lits[i] for i in alive]
            if not leaves:
                # Dead neuron: constant from the bias alone.
                value = _act(layer.activation, np.array(float(layer.b[j])))
                new_lits.append(1 if value >= 0.5 else 0)
                continue
            new_lits.append(lut(aig, table, leaves))
        prev_lits = new_lits
    aig.set_output(prev_lits[0])
    return aig
