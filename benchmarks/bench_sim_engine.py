"""The levelized simulation engine vs. the seed per-node loop.

Every flow, contest score and benchmark funnels through AIG
simulation; this bench races a cold compile and a warm packed run
against the seed loop on a contest-scale circuit, and confirms that
the engine and the batched row-block API are bit-exact against the seed
simulator (preserved as ``reference_simulate_packed_all``), both
directly and through ``cec.check_equivalence`` on randomized AIGs.

The headline assert: the engine stays >= 5x over the seed per-node
loop warm (and >= 1.5x cold, compile included), on any box.
"""

import random
import time

import numpy as np

from _report import echo
from repro.aig.aig import AIG
from repro.aig.cec import check_equivalence
from repro.sim import (
    CompiledAIG,
    reference_simulate_packed_all,
    simulate_rows_grouped,
)
from repro.utils.bitops import pack_bits
from repro.utils.rng import rng_for

N_ANDS = 2000
N_SAMPLES = 4096


def _random_aig(n_inputs, n_ands, seed, n_outputs=8):
    rnd = random.Random(seed)
    aig = AIG(n_inputs)
    pool = list(aig.input_lits())
    while aig.num_ands < n_ands:  # strashing dedupes, so loop to the count
        a = rnd.choice(pool) ^ rnd.randint(0, 1)
        b = rnd.choice(pool) ^ rnd.randint(0, 1)
        pool.append(aig.add_and(a, b))
    for _ in range(n_outputs):
        aig.set_output(rnd.choice(pool) ^ rnd.randint(0, 1))
    return aig


def _bench_inputs():
    aig = _random_aig(32, N_ANDS, seed=2026)
    rng = rng_for("sim-engine-bench")
    X = rng.integers(0, 2, size=(N_SAMPLES, 32)).astype(np.uint8)
    return aig, X, pack_bits(X)


def _best_of_interleaved(fns, repeats=10):
    """Best-of timing with the candidates interleaved per round.

    The bench box is shared and noisy; interleaving means a quiet
    window benefits every candidate equally, so the *ratio* between
    them is far more stable than timing each in its own block.
    """
    bests = [float("inf")] * len(fns)
    results = [None] * len(fns)
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            start = time.perf_counter()
            results[i] = fn()
            bests[i] = min(bests[i], time.perf_counter() - start)
    return bests, results


def test_engine_speedup_vs_seed_loop():
    aig, _, packed = _bench_inputs()

    compiled = CompiledAIG(aig)
    (seed_time, cold_time, warm_time), (seed_values, cold_values, warm_values) = (
        _best_of_interleaved(
            [
                lambda: reference_simulate_packed_all(aig, packed),
                # Cold: compile + evaluate, what a one-shot caller pays.
                lambda: CompiledAIG(aig).run_packed_all(packed),
                # Warm: the compiled engine reused across sample sets —
                # the path AIG.simulate* callers get via the cache.
                lambda: compiled.run_packed_all(packed),
            ]
        )
    )

    assert np.array_equal(seed_values, cold_values)
    assert np.array_equal(seed_values, warm_values)
    cold_speedup = seed_time / cold_time
    warm_speedup = seed_time / warm_time
    echo("\n=== Levelized simulation engine "
         f"({N_ANDS} ANDs x {N_SAMPLES} samples) ===")
    echo(f"  seed per-node loop:     {1e3 * seed_time:8.2f} ms")
    echo(f"  engine (compile+run):   {1e3 * cold_time:8.2f} ms "
         f"({cold_speedup:.1f}x)")
    echo(f"  engine (compiled once): {1e3 * warm_time:8.2f} ms "
         f"({warm_speedup:.1f}x)")
    echo(f"  levels: {compiled.depth}")
    assert warm_speedup >= 5.0
    assert cold_speedup >= 1.5  # even compile+run beats the seed loop


def test_cold_compile():
    """Program build + arena allocation + first run."""
    aig, _, packed = _bench_inputs()
    out = CompiledAIG(aig).run_packed_all(packed)
    assert np.array_equal(out, reference_simulate_packed_all(aig, packed))


def test_batched_datasets():
    """Several datasets through one packing and one engine pass."""
    aig, X, _ = _bench_inputs()
    mats = [X[:1024], X[1024:2048], X[2048:]]
    outs = simulate_rows_grouped(aig.compiled(), mats)
    for mat, out in zip(mats, outs, strict=True):
        assert np.array_equal(out, CompiledAIG(aig).run(mat))


def test_engine_bit_exact_via_cec():
    def run():
        checked = 0
        for seed in range(6):
            aig = _random_aig(
                6 + seed, 120 + 40 * seed, seed=seed, n_outputs=3
            )
            # extract_cone rebuilds the graph node by node; proving it
            # equivalent exercises engine simulation inside cec plus
            # the exact BDD back-end.
            ok, cex = check_equivalence(aig, aig.extract_cone())
            assert ok, f"engine mismatch on seed {seed}: {cex}"
            ref = reference_simulate_packed_all(
                aig, np.zeros((aig.n_inputs, 2), dtype=np.uint64)
            )
            assert np.array_equal(
                aig.simulate_packed_all(
                    np.zeros((aig.n_inputs, 2), dtype=np.uint64)
                ),
                ref,
            )
            checked += 1
        return checked

    checked = run()
    echo(f"  cec-confirmed engine on {checked} randomized AIGs")
    assert checked == 6
