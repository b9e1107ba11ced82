"""Streamed registry materialization: flat memory, shardable sweeps.

The registry's pitch over the old eager suite tuple is that problem
grids *stream*: describing a big spec grid builds nothing, heavy
generator state lives in one bounded LRU, and a large sweep can be
split across shards whose merged store is byte-identical to an
unsharded run.  This bench pins all three at a scale the unit tests
don't reach (hundreds of specs, 150+ problem contest sweep).
"""

import json
import resource

from _report import echo
from repro.contest import DEFAULT_REGISTRY, clear_cache
from repro.runner import (
    contest_tasks,
    merge_stores,
    run_contest_tasks,
    shard_tasks,
)

#: Peak-RSS growth allowed over the materialization sweep.  Generous —
#: CI allocators differ — but far below what re-pinning every sampled
#: dataset or generator would cost (the failure mode this guards).
RSS_MARGIN_KB = 192 * 1024

SAMPLES = 24
SHARDS = 4


def _spec_grid():
    """A few hundred spec strings across deterministic families."""
    names = []
    names += [f"comparator:width={w}" for w in range(2, 102)]
    names += [f"adder:width={w}" for w in range(2, 102)]
    names += [f"parity:inputs={n}" for n in range(2, 102)]
    names += [f"multiplier:width={w}" for w in range(2, 102)]
    names += [f"cone:inputs=16,seed={s}" for s in range(20)]
    return names


def _sweep_problems():
    """150+ problems for the sharded sweep: cheap paper benchmarks
    plus generated-family specs (swept widths, cones, perturbed and
    composed functions)."""
    problems = [30, 74, 75]  # historical indices stay addressable
    problems += [f"comparator:width={w}" for w in range(2, 62)]
    problems += [f"parity:inputs={n}" for n in range(2, 62)]
    problems += [f"adder:width={w}" for w in range(2, 22)]
    problems += [f"cone:inputs=16,seed={s}" for s in range(8)]
    problems += [f"perturbed:base=ex74,seed={s}" for s in range(4)]
    problems += ["composed:a=ex74,b=t481", "composed:a=parity,b=t481"]
    assert len(problems) >= 150
    return problems


def _lines(root):
    out = {}
    for line in (root / "records.jsonl").read_text().splitlines():
        if line.strip():
            out[json.loads(line)["key"]] = line
    return out


def test_spec_grid_describes_without_building():
    """Naming/validating hundreds of specs must materialize nothing."""
    clear_cache()
    # The cache counters are cumulative over the process (clear_cache
    # only drops entries), so measure the builds *delta*.
    builds_before = DEFAULT_REGISTRY.cache.stats()["builds"]
    specs = [DEFAULT_REGISTRY.get(name) for name in _spec_grid()]
    echo(f"\n=== described {len(specs)} specs ===")
    stats = DEFAULT_REGISTRY.cache.stats()
    builds = stats["builds"] - builds_before
    echo(f"  cache builds: {builds}  entries: {stats['entries']}")
    assert len(specs) == 420
    assert len({s.name for s in specs}) == len(specs)
    assert builds == 0 and stats["entries"] == 0


def test_materialization_sweep_memory_flat():
    """Materializing 400+ generators stays inside the bounded cache
    and leaves peak RSS flat (the eager suite pinned everything)."""
    clear_cache()
    names = _spec_grid()
    before_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def sweep():
        import numpy as np

        probe_hits = 0
        for name in names:
            spec = DEFAULT_REGISTRY.get(name)
            mat = DEFAULT_REGISTRY.materialize(spec)
            rng = np.random.default_rng(0)
            X = rng.integers(0, 2, size=(32, spec.n_inputs)).astype(
                np.uint8)
            probe_hits += int(mat.label_fn(X).sum())
        return probe_hits

    sweep()
    after_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    stats = DEFAULT_REGISTRY.cache.stats()
    growth_kb = after_kb - before_kb
    echo(f"\n=== materialized {len(names)} generators ===")
    echo(f"  cache: {stats['entries']}/{DEFAULT_REGISTRY.cache.maxsize} "
         f"entries, {stats['builds']} builds, "
         f"{stats['evictions']} evictions")
    echo(f"  peak RSS growth: {growth_kb / 1024:.1f} MB "
         f"(margin {RSS_MARGIN_KB / 1024:.0f} MB)")
    # Functional bound: the cache never outgrows its size, and the
    # sweep is big enough that eviction actually happened.
    assert stats["builds"] >= len(names)
    assert stats["entries"] <= DEFAULT_REGISTRY.cache.maxsize
    assert stats["evictions"] > 0
    assert growth_kb < RSS_MARGIN_KB
    clear_cache()


def test_sharded_sweep_merges_byte_identical(tmp_path):
    """A 150+ problem contest splits into 4 shards whose merged store
    is byte-identical to the unsharded run's."""
    specs = contest_tasks(
        _sweep_problems(), ["team10"], SAMPLES, SAMPLES, SAMPLES,
    )

    def sharded():
        dirs = []
        for k in range(SHARDS):
            part = shard_tasks(specs, k, SHARDS)
            run_contest_tasks(part, jobs=1,
                              out_dir=tmp_path / f"shard{k}")
            dirs.append(tmp_path / f"shard{k}")
        return dirs

    shard_dirs = sharded()
    run_contest_tasks(specs, jobs=4, out_dir=tmp_path / "unsharded")
    merge_stores(shard_dirs, tmp_path / "merged")
    merged = _lines(tmp_path / "merged")
    unsharded = _lines(tmp_path / "unsharded")
    sizes = [len(_lines(d)) for d in shard_dirs]
    echo(f"\n=== sharded sweep: {len(specs)} tasks over "
         f"{SHARDS} shards {sizes} ===")
    assert sum(sizes) == len(specs)
    assert min(sizes) > 0  # the hash spread every shard some work
    assert set(merged) == {s.key for s in specs}
    assert merged == unsharded
