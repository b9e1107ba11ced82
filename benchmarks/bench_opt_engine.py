"""NPN-library rewriting engine: speedup, parity, recursion safety.

``compress`` post-processes every candidate of every flow x benchmark
x seed, which made the seed's build-measure-rollback pass loop the
hottest remaining path.  This bench races the NPN-library engine
(:mod:`repro.aig.opt.passes`) against the pinned seed implementation
(the seed passes in :mod:`tests.oracles`) on contest-scale learned
circuits and asserts the engine contract:

- aggregate wall-clock speedup >= 3x (the acceptance bar; measured
  4-5x on a dev box) with a lenient 2x floor on single-core boxes,
  where timer noise is the only honest caveat — the win is
  algorithmic, not parallelism;
- the optimized output is never larger than the reference output
  (NPN library + fraig-lite can only find *more* sharing);
- ``compress`` completes on a 5000-node chain-shaped graph, where the
  seed's recursive cone walks blew the Python recursion limit;
- ``rewrite`` and ``refactor`` return byte for byte what their pricing
  oracles in :mod:`tests.oracles` return (the versions that priced
  every cut through ``counting.price`` and every single-node cone).
"""

import functools
import os
import time

import numpy as np

from _report import echo
from repro.aig.aig import AIG
from repro.aig.aiger import dumps_aag
from repro.aig.build import parity_chain, symmetric_function
from repro.aig.opt import passes
from repro.aig.opt.passes import compress
from repro.ml.decision_tree import DecisionTree
from repro.synth.from_sop import cover_to_aig
from repro.utils.rng import rng_for
from tests import oracles
from tests.oracles import reference_compress


@functools.cache
def _victims():
    """Contest-scale learned circuits (the finalize_aig diet), and a
    symmetric function built twice."""
    rng = rng_for("bench-opt-engine")
    out = []
    # Decision trees that partly memorize a hard symmetric target:
    # wide path covers, exactly what the DT/forest flows synthesize.
    X = rng.integers(0, 2, size=(4000, 40)).astype(np.uint8)
    y = (X[:, :24].sum(axis=1) % 3 == 0).astype(np.uint8)
    tree = DecisionTree(max_depth=20).fit(X, y)
    out.append(("dt-3k", cover_to_aig(tree.to_cover()).extract_cone()))
    X2 = rng.integers(0, 2, size=(1500, 32)).astype(np.uint8)
    y2 = (X2[:, :20].sum(axis=1) % 3 == 0).astype(np.uint8)
    tree2 = DecisionTree(max_depth=16).fit(X2, y2)
    out.append(("dt-1k", cover_to_aig(tree2.to_cover()).extract_cone()))
    aig = AIG(12)
    aig.set_output(
        symmetric_function(aig, aig.input_lits(), "0110100101101")
    )
    out.append(("sym-12", aig.extract_cone()))
    # The same function again over the inputs in reverse order: its
    # nodes duplicate the first copy's functions, which strashing
    # cannot see and rewrite's marked-node path merges.
    aig.set_output(
        symmetric_function(aig, aig.input_lits()[::-1], "0110100101101")
    )
    out.append(("sym-12x2", aig.extract_cone()))
    return out


def test_opt_engine_speedup_and_parity():
    victims = _victims()
    rows = []
    ref_total = new_total = 0.0
    for name, aig in victims:
        start = time.perf_counter()
        ref = reference_compress(aig)
        ref_s = time.perf_counter() - start
        start = time.perf_counter()
        new = compress(aig)
        new_s = time.perf_counter() - start
        ref_total += ref_s
        new_total += new_s
        rows.append((name, aig.num_ands, ref_s, ref.num_ands, new_s,
                     new.num_ands))

    speedup = ref_total / new_total
    cores = os.cpu_count() or 1
    echo("\n=== NPN-library rewriting engine vs seed compress ===")
    for name, size, ref_s, ref_n, new_s, new_n in rows:
        echo(f"  {name:8s} {size:5d} nodes | seed {ref_s:6.2f}s -> {ref_n:5d}"
             f" | engine {new_s:6.2f}s -> {new_n:5d}"
             f" | {ref_s / new_s:.2f}x")
    echo(f"  aggregate: seed {ref_total:.2f}s / engine {new_total:.2f}s"
         f" = {speedup:.2f}x ({cores} cores)")

    # Quality parity: table-lookup rewriting plus fraig-lite must never
    # ship a larger circuit than the seed's exhaustive resynthesis.
    for name, _, _, ref_n, _, new_n in rows:
        assert new_n <= ref_n, (name, new_n, ref_n)
    # The speedup is algorithmic, so it holds on one core too; the
    # relaxed floor there only absorbs timer noise on starved boxes
    # (same spirit as bench_runner's cpu_count gate).
    floor = 3.0 if cores >= 2 else 2.0
    assert speedup >= floor, f"speedup {speedup:.2f}x < {floor}x"


def test_opt_engine_chain_safety():
    # The seed's recursive cone walks overflowed on graphs like this;
    # the iterative engine must finish and stay exact.
    aig = parity_chain(n_inputs=4, n_nodes=5000)
    assert aig.num_ands >= 5000

    out = compress(aig)
    assert out.truth_tables() == aig.truth_tables()
    assert out.num_ands <= aig.count_used_ands()
    echo("\n=== compress on a 5000-node parity chain ===")
    echo(f"  {aig.num_ands} nodes, depth {aig.depth()} -> "
         f"{out.num_ands} nodes (no RecursionError)")


def test_rewrite_and_refactor_match_their_pricing_oracles():
    echo("\n=== rewrite / refactor vs their pricing oracles ===")
    for name, aig in _victims():
        for pass_name in ("rewrite", "refactor"):
            start = time.perf_counter()
            ref = getattr(oracles, pass_name)(aig)
            ref_s = time.perf_counter() - start
            start = time.perf_counter()
            new = getattr(passes, pass_name)(aig)
            new_s = time.perf_counter() - start
            echo(f"  {name:8s} {pass_name:8s} oracle {ref_s:6.3f}s"
                 f" | engine {new_s:6.3f}s -> {new.num_ands:5d} ANDs")
            assert dumps_aag(new) == dumps_aag(ref), (name, pass_name)
