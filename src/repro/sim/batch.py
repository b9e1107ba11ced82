"""Batched evaluation: one circuit x many row blocks, many circuits x one.

Both directions amortize the expensive part — bit-packing the sample
matrix and setting up the simulation — across everything that shares
it.  See :mod:`repro.sim` for the overall lifecycle.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.utils.bitops import pack_bits, unpack_bits


def simulate_rows_grouped(
    compiled, row_blocks: Sequence[np.ndarray]
) -> list[np.ndarray]:
    """One compiled circuit, many row blocks, one engine pass.

    This is the microbatching primitive behind :mod:`repro.serve`, and
    also how one circuit is scored on several datasets at once: the
    blocks (each ``(k_i, n_inputs)`` 0/1, or a single ``(n_inputs,)``
    row) are stacked, bit-packed *once* and pushed through
    :meth:`~repro.sim.engine.CompiledAIG.run` as a single batch, then
    split back so every caller gets exactly its own
    ``(k_i, n_outputs)`` uint8 slice.  Coalescing N single-row
    requests this way replaces N engine invocations (and N packing
    passes) with one.
    """
    blocks = []
    for block in row_blocks:
        mat = np.asarray(block, dtype=np.uint8)
        if mat.ndim == 1:
            mat = mat[None, :]
        blocks.append(mat)
    if not blocks:
        return []
    stacked = blocks[0] if len(blocks) == 1 else np.vstack(blocks)
    merged = compiled.run(stacked)
    out: list[np.ndarray] = []
    offset = 0
    for mat in blocks:
        out.append(merged[offset : offset + mat.shape[0]])
        offset += mat.shape[0]
    return out


def simulate_circuits(aigs: Sequence, samples: np.ndarray) -> list[np.ndarray]:
    """Simulate many circuits on one sample matrix, packing it once.

    All circuits must have the same input count as ``samples`` has
    columns.  Returns one ``(n_samples, n_outputs_i)`` uint8 matrix per
    circuit.
    """
    samples = np.asarray(samples, dtype=np.uint8)
    if samples.ndim == 1:
        samples = samples[None, :]
    aigs = list(aigs)
    if not aigs:
        return []
    packed = pack_bits(samples)
    n_samples = samples.shape[0]
    return [
        unpack_bits(aig.compiled().run_packed(packed), n_samples)
        for aig in aigs
    ]


def output_predictions(aigs: Sequence, samples: np.ndarray) -> list[np.ndarray]:
    """First-output predictions of many single-output candidates.

    Convenience wrapper for the contest setting (one output per
    circuit): returns one ``(n_samples,)`` uint8 vector per circuit.
    """
    return [out[:, 0] for out in simulate_circuits(aigs, samples)]
