"""Cheap structural features over AIGs for learned pass scheduling.

One fixed-length float vector per graph (:data:`FEATURE_NAMES` is the
schema), combining:

- size/shape statistics (node, level, input, output counts, width),
- fanout statistics (mean, max, spread, single-fanout fraction — the
  signal ``balance`` exploits),
- complemented-edge fraction,
- a cut-size histogram over the same 4-input cut enumeration
  ``rewrite`` prices (how much of the graph is coverable by library
  cuts),
- an NPN-class distribution summary: each node's widest cut function
  is NPN-canonicalized and bucketed by canonical minterm density, plus
  the entropy of that distribution,
- bit-parallel simulation signatures (node/output bias) through the
  levelized engine.

Everything is a pure function of the graph structure: the simulation
patterns are drawn from a :func:`repro.utils.rng.rng_for` stream named
by the graph's shape, so the vector is byte-deterministic across
processes and job counts.

Vectors are cached per AIG instance keyed on ``(structural version,
outputs)`` — the same keying the compile cache in
:meth:`repro.aig.aig.AIG.compiled` uses — so a scheduling loop that
probes features between passes never recomputes them for an unchanged
graph.
"""

from __future__ import annotations

import math

import numpy as np

from repro.aig.aig import AIG
from repro.aig.cuts import enumerate_cuts_with_truths
from repro.aig.opt.npn import npn_canon
from repro.utils.rng import rng_for

#: Density buckets for the NPN-class distribution: canonical minterm
#: fraction of each node's widest cut function, binned into fifths.
_NPN_BUCKETS = 5

#: 64-bit words of random stimulus per simulation signature.
_SIM_WORDS = 2

FEATURE_NAMES: tuple[str, ...] = (
    "log_ands",
    "log_depth",
    "log_inputs",
    "log_outputs",
    "width",                # ANDs per level
    "fanout_mean",
    "fanout_max_log",
    "fanout_sigma",
    "frac_single_fanout",
    "frac_compl_edges",
    "cut2_frac",
    "cut3_frac",
    "cut4_frac",
    *(f"npn_density_b{i}" for i in range(_NPN_BUCKETS)),
    "npn_entropy",
    "sim_bias_mean",
    "sim_bias_sigma",
    "out_bias",
)

#: Length of the vector :func:`extract_features` returns.
N_FEATURES = len(FEATURE_NAMES)


def _fanout_features(aig: AIG) -> tuple[float, float, float, float, float]:
    counts = aig.fanout_counts()[aig.n_inputs + 1 :]
    if counts.size == 0:
        return 0.0, 0.0, 0.0, 0.0, 0.0
    compl = 0
    for fanins in (aig._fanin0, aig._fanin1):
        arr = np.asarray(fanins, dtype=np.int64)
        compl += int((arr & 1).sum())
    total_edges = 2 * aig.num_ands
    return (
        float(counts.mean()),
        math.log1p(float(counts.max())),
        float(counts.std()),
        float((counts == 1).mean()),
        compl / total_edges if total_edges else 0.0,
    )


def _cut_features(aig: AIG) -> tuple[float, ...]:
    """Cut-size histogram + NPN density distribution + entropy."""
    if aig.num_ands == 0:
        return (0.0, 0.0, 0.0) + (0.0,) * _NPN_BUCKETS + (0.0,)
    node_cuts = enumerate_cuts_with_truths(aig, k=4, max_cuts=8)
    size_hist = np.zeros(3, dtype=np.float64)  # cut sizes 2, 3, 4
    buckets = np.zeros(_NPN_BUCKETS, dtype=np.float64)
    n_cuts = 0
    base = aig.n_inputs + 1
    for var in range(base, aig.num_vars):
        widest: tuple[tuple[int, ...], int] | None = None
        for cut, table in node_cuts.get(var, ()):
            if len(cut) < 2:
                continue
            size_hist[len(cut) - 2] += 1
            n_cuts += 1
            if widest is None or len(cut) > len(widest[0]):
                widest = (cut, table)
        if widest is None:
            continue
        cut, table = widest
        k = len(cut)
        canon = npn_canon(table, k)[0]
        density = bin(canon).count("1") / (1 << k)
        # density is in [0, 1]; the canonical rep of a class is the
        # numerically smallest table, biasing density below 1/2 —
        # which is exactly the class signal we want to expose.
        idx = min(int(density * _NPN_BUCKETS), _NPN_BUCKETS - 1)
        buckets[idx] += 1
    if n_cuts:
        size_hist /= n_cuts
    total = buckets.sum()
    if total:
        buckets /= total
        nz = buckets[buckets > 0]
        entropy = float(-(nz * np.log(nz)).sum())
    else:
        entropy = 0.0
    return (*size_hist.tolist(), *buckets.tolist(), entropy)


def _sim_features(aig: AIG) -> tuple[float, float, float]:
    """Random-stimulus bias signatures through the levelized engine."""
    if aig.n_inputs == 0 or aig.num_ands == 0:
        return 0.0, 0.0, 0.0
    rng = rng_for("sched-features", aig.n_inputs, aig.num_ands)
    packed = rng.integers(
        0, 1 << 64, size=(aig.n_inputs, _SIM_WORDS), dtype=np.uint64
    )
    values = aig.simulate_packed_all(packed)
    n_bits = 64 * _SIM_WORDS
    ones = np.unpackbits(
        np.ascontiguousarray(values).view(np.uint8), axis=1
    ).sum(axis=1)
    bias = ones.astype(np.float64) / n_bits
    and_bias = bias[aig.n_inputs + 1 :]
    out_bias = [
        1.0 - bias[o >> 1] if (o & 1) else bias[o >> 1]
        for o in aig.outputs
    ]
    return (
        float(and_bias.mean()),
        float(and_bias.std()),
        float(np.mean(out_bias)) if out_bias else 0.0,
    )


def extract_features(aig: AIG) -> np.ndarray:
    """The feature vector of ``aig`` (shape ``(N_FEATURES,)``, float64).

    Pure numpy + the levelized sim engine; deterministic for a given
    structure.  Cached on the instance
    under the same ``(version, outputs)`` key the compile cache uses,
    so repeated probes of an unchanged graph are dictionary hits.
    """
    key = (aig._version, tuple(aig.outputs))
    cached = getattr(aig, "_sched_features", None)
    if cached is not None and cached[0] == key:
        return cached[1]
    if aig.num_ands:
        depth = aig.depth()
    else:
        depth = 0
    vec = np.array(
        [
            math.log1p(aig.num_ands),
            math.log1p(depth),
            math.log1p(aig.n_inputs),
            math.log1p(aig.num_outputs),
            aig.num_ands / depth if depth else 0.0,
            *_fanout_features(aig),
            *_cut_features(aig),
            *_sim_features(aig),
        ],
        dtype=np.float64,
    )
    if vec.shape != (N_FEATURES,):  # pragma: no cover - schema guard
        raise AssertionError(
            f"feature vector has {vec.shape[0]} entries, schema names "
            f"{N_FEATURES}"
        )
    aig._sched_features = (key, vec)
    return vec
