"""Serving layer: coalesced vs single-row throughput, cold vs warm,
and saturation behavior under load.

Three claims are measured on a real store (a mini contest run with kept
solutions):

1. *Coalescing pays.*  N single-row requests answered one at a time
   through the serving stack (sequential awaits: every request is its
   own engine pass, like clients trickling in) versus the same N
   requests arriving concurrently and coalesced by the microbatcher
   into grouped engine passes.  Coalescing amortizes packing and
   per-level dispatch, so batched throughput must be >= 5x the
   single-row request loop — asserted when the box has >= 2 cores
   (wall-clock asserts flake on starved single-core CI runners),
   reported always.  Each side is timed as the best of three runs,
   so one run slowed by a busy neighbour does not decide the ratio.
   The raw engine-level gain (validate plus ``run`` per row vs one
   ``simulate_rows_grouped`` pass, no event loop in the way) is
   reported alongside.

2. *Compile once, serve forever.*  The first ``load`` of a model pays
   the levelized compile (cold); subsequent loads are an LRU hit
   (warm).  The warm path must be faster; both are reported.

3. *Saturation sheds, never strands.*  Past ``max_queued_rows`` the
   server answers 503 (with ``Retry-After``); every request still gets
   *an* answer, and every 200 is bit-exact.

Bit-identity of every serving path against direct ``AIG.simulate`` is
asserted unconditionally — speed claims never excuse a wrong bit.

Run standalone for the load-generator mode (sweeps concurrency to
find the saturation knee)::

    PYTHONPATH=src:benchmarks python benchmarks/bench_serve.py \
        --load --requests 512
"""

import asyncio
import collections
import json
import os
import time

import numpy as np
import pytest

from _report import echo
from repro.aig.aiger import read_aag
from repro.runner import contest_tasks, run_contest_tasks
from repro.runner.store import RunStore
from repro.serve import (
    MicroBatcher,
    ModelStore,
    ServeApp,
    ServerHandle,
)
from repro.serve.bundle import validate_rows
from repro.sim.batch import simulate_rows_grouped

BENCHMARKS = [30, 74]
FLOWS = ["team01", "team10"]
SAMPLES = 64
N_ROWS = 512
MIN_SPEEDUP = 5.0
REPEATS = 3


@pytest.fixture(scope="module")
def store_dir(tmp_path_factory):
    """One contest run with kept solutions, shared by both benches."""
    out_dir = tmp_path_factory.mktemp("serve-bench") / "run"
    specs = contest_tasks(BENCHMARKS, FLOWS, SAMPLES, SAMPLES, SAMPLES)
    run_contest_tasks(specs, jobs=1, out_dir=out_dir, keep_solutions=True)
    return out_dir


def _rows(n, width, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=(n, width)).astype(np.uint8)


def _best_of(fn, repeats=REPEATS):
    """Fastest of ``repeats`` calls and every call's result.

    The bench box is shared: one slow run says more about its
    neighbours than about the code, so each side keeps its best time.
    """
    best, results = float("inf"), []
    for _ in range(repeats):
        start = time.perf_counter()
        results.append(fn())
        best = min(best, time.perf_counter() - start)
    return best, results


def test_serve_coalescing_speedup_and_bit_identity(store_dir):
    store = ModelStore(store_dir)
    name = "ex74"
    circuit = store.load(name)
    rows = _rows(N_ROWS, circuit.n_inputs, seed=1)

    # Ground truth: the stored winner simulated directly.
    aig = read_aag(RunStore(store_dir).solution_path(store.info(name).key))
    expected = aig.simulate(rows)

    # --- single-row request loop: sequential awaits ------------------
    async def drive_singles():
        batcher = MicroBatcher(store, tick_s=0.0, max_batch=N_ROWS)
        outs = []
        for i in range(N_ROWS):
            outs.append(await batcher.predict(name, rows[i]))
        return batcher, outs

    single_s, single_runs = _best_of(lambda: asyncio.run(drive_singles()))

    # --- coalesced: the same requests arriving concurrently ----------
    async def drive_coalesced():
        batcher = MicroBatcher(store, tick_s=0.001, max_batch=N_ROWS)
        outs = await asyncio.gather(
            *(batcher.predict(name, rows[i]) for i in range(N_ROWS))
        )
        return batcher, outs

    coalesced_s, coalesced_runs = _best_of(
        lambda: asyncio.run(drive_coalesced())
    )

    # --- raw engine-level coalescing (no event loop in the way) ------
    # Both sides validate every row, as the batcher does at enqueue.
    def per_row():
        return [
            circuit.run(validate_rows(rows[i], circuit.n_inputs, name))
            for i in range(N_ROWS)
        ]

    def grouped():
        blocks = [validate_rows(r, circuit.n_inputs, name) for r in rows]
        return simulate_rows_grouped(circuit, blocks)

    per_row_s, per_row_runs = _best_of(per_row)
    grouped_s, grouped_runs = _best_of(grouped)

    # --- bit-identity: unconditional, on every run --------------------
    runs = [outs for _, outs in single_runs + coalesced_runs]
    for outs in runs + per_row_runs + grouped_runs:
        for i in range(N_ROWS):
            assert np.array_equal(outs[i][0], expected[i])

    single_stats = [b.stats() for b, _ in single_runs]
    stats = [b.stats() for b, _ in coalesced_runs]
    speedup = single_s / coalesced_s
    engine_speedup = per_row_s / grouped_s
    cores = os.cpu_count() or 1
    echo(f"\n=== Serving throughput ({name}, {N_ROWS} single-row "
         f"requests, {cores} cores, best of {REPEATS}) ===")
    echo(f"  sequential requests: {single_s:8.4f} s "
         f"({N_ROWS / single_s:10.0f} rows/s, "
         f"{single_stats[0]['batches']} engine passes)")
    echo(f"  coalesced burst:     {coalesced_s:8.4f} s "
         f"({N_ROWS / coalesced_s:10.0f} rows/s, "
         f"{max(st['batches'] for st in stats)} engine passes)  "
         f"{speedup:.1f}x")
    echo(f"  engine-level: per-row {per_row_s:.4f} s vs one grouped "
         f"pass {grouped_s:.4f} s  ({engine_speedup:.0f}x)")
    echo(f"  largest coalesced batch: "
         f"{max(st['max_coalesced'] for st in stats)} requests")

    # Structural coalescing guarantee: a concurrent burst must land in
    # far fewer engine passes than requests (not a timing property).
    for st in stats:
        assert st["batches"] < N_ROWS / 4, (
            "microbatcher failed to coalesce: "
            f"{st['batches']} passes for {N_ROWS} requests"
        )
    for st in single_stats:  # sequential = no coalescing
        assert st["batches"] == N_ROWS
    if cores >= 2:
        assert speedup >= MIN_SPEEDUP, (
            f"coalesced speedup {speedup:.1f}x < {MIN_SPEEDUP}x "
            f"on {cores} cores"
        )
        assert engine_speedup >= MIN_SPEEDUP
    else:
        echo(f"  [{cores}-core box: {MIN_SPEEDUP}x wall-clock asserts "
             f"skipped; measured {speedup:.1f}x serving, "
             f"{engine_speedup:.0f}x engine]")


def test_serve_cold_vs_warm_compile(store_dir):
    probe_rows = _rows(8, 16, seed=2)

    # Cold: fresh store, first load pays parse + levelized compile.
    cold_store = ModelStore(store_dir)
    start = time.perf_counter()
    cold_out = cold_store.load("ex74").run(probe_rows)
    cold_s = time.perf_counter() - start
    assert cold_store.stats()["misses"] == 1

    # Warm: the LRU hands back the compiled plan.
    start = time.perf_counter()
    warm_out = cold_store.load("ex74").run(probe_rows)
    warm_s = time.perf_counter() - start
    assert cold_store.stats()["hits"] == 1

    assert np.array_equal(cold_out, warm_out)  # unconditional
    cores = os.cpu_count() or 1
    echo(f"\n=== Cold vs warm model load (ex74, {cores} cores) ===")
    echo(f"  cold (parse+compile+predict): {cold_s * 1e3:8.3f} ms")
    echo(f"  warm (LRU hit+predict):       {warm_s * 1e3:8.3f} ms  "
         f"({cold_s / max(warm_s, 1e-9):.1f}x)")
    if cores >= 2:
        assert warm_s < cold_s, (
            f"LRU hit ({warm_s * 1e3:.3f} ms) not faster than compile "
            f"({cold_s * 1e3:.3f} ms)"
        )


# ---------------------------------------------------------------------------
# Load generator: concurrent keep-alive clients over real HTTP
# ---------------------------------------------------------------------------


def _predict_request_bytes(name, row):
    body = json.dumps(
        {"row": [int(b) for b in row]}, sort_keys=True
    ).encode("utf-8")
    head = (
        f"POST /predict/{name} HTTP/1.1\r\n"
        f"Host: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"\r\n"
    ).encode("latin-1")
    return head + body


async def _read_http_response(reader):
    status_line = await reader.readline()
    if not status_line:
        raise ConnectionError("server closed mid-response")
    status = int(status_line.split()[1])
    headers = {}
    while True:
        line = await reader.readline()
        if not line or line in (b"\r\n", b"\n"):
            break
        key, _, value = line.decode("latin-1").partition(":")
        headers[key.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    body = await reader.readexactly(length) if length else b""
    return status, headers, body


async def _drive_load(host, port, name, rows, n_requests, concurrency):
    """``concurrency`` keep-alive connections pulling ``n_requests``
    single-row predicts off a shared work list; request *i* always
    carries row ``i % len(rows)``, so every answer is checkable."""
    payloads = [_predict_request_bytes(name, row) for row in rows]
    results = [None] * n_requests
    work = iter(range(n_requests))

    async def client():
        reader, writer = await asyncio.open_connection(host, port)
        try:
            for i in work:
                start = time.perf_counter()
                writer.write(payloads[i % len(payloads)])
                await writer.drain()
                status, headers, body = await _read_http_response(reader)
                results[i] = (
                    status, headers, json.loads(body),
                    time.perf_counter() - start,
                )
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    await asyncio.gather(*(client() for _ in range(concurrency)))
    return results


def _summarize_load(results, rows, expected):
    """Verify + condense one load run.  Asserts, unconditionally:
    no request stranded, every 200 bit-exact, every 503 retryable."""
    statuses = collections.Counter()
    latencies = []
    for i, result in enumerate(results):
        assert result is not None, f"request {i} got no answer (stranded)"
        status, headers, body, latency = result
        statuses[status] += 1
        latencies.append(latency)
        if status == 200:
            got = np.asarray(body["outputs"], dtype=np.uint8)
            assert np.array_equal(got[0], expected[i % len(rows)]), (
                f"request {i}: served bits differ from AIG.simulate"
            )
        elif status == 503:
            assert "error" in body
            if "saturated" in body["error"]:
                assert int(headers.get("retry-after", "0")) >= 1
        else:
            raise AssertionError(f"request {i}: unexpected {status}: {body}")
    latencies.sort()

    def quantile(q):
        return latencies[min(len(latencies) - 1, int(q * len(latencies)))]

    return {
        "statuses": dict(statuses),
        "p50_ms": quantile(0.50) * 1e3,
        "p99_ms": quantile(0.99) * 1e3,
        "total_s": None,  # filled by callers that timed the run
    }


def _run_load(handle, name, rows, expected, n_requests, concurrency):
    start = time.perf_counter()
    results = asyncio.run(
        _drive_load(handle.host, handle.port, name, rows,
                    n_requests, concurrency)
    )
    elapsed = time.perf_counter() - start
    summary = _summarize_load(results, rows, expected)
    summary["total_s"] = elapsed
    summary["rps"] = n_requests / elapsed
    return summary


# ---------------------------------------------------------------------------
# Saturation bench
# ---------------------------------------------------------------------------


def test_serve_saturation_sheds_load_cleanly(store_dir):
    """Past the knee: 503s appear, nothing strands, bits stay exact."""
    store = ModelStore(store_dir)
    name = "ex74"
    aig = read_aag(RunStore(store_dir).solution_path(store.info(name).key))
    rows = _rows(32, 16, seed=5)
    expected = aig.simulate(rows)

    # Queue bounded far below the offered load: with 24 connections
    # hammering an 8-row admission cap across a 20 ms tick, rejects
    # are structurally guaranteed, not a timing accident.
    app = ServeApp(
        ModelStore(store_dir), tick_s=0.02, max_queued_rows=8
    )
    with ServerHandle(app) as handle:
        summary = _run_load(handle, name, rows, expected, 144, 24)
        stats = app.batcher.stats()

    served = summary["statuses"].get(200, 0)
    shed = summary["statuses"].get(503, 0)
    echo("\n=== Saturation behavior (8-row cap, 24 connections) ===")
    echo(f"  {served} served / {shed} shed (503) of 144; "
         f"p99 {summary['p99_ms']:.1f} ms; "
         f"batcher saw {stats['rejected_saturated']} saturated rejects")
    assert served + shed == 144  # every request answered
    assert shed > 0, "offered load never hit the admission cap"
    assert served > 0, "backpressure starved the queue entirely"
    assert stats["rejected_saturated"] == shed
    assert stats["rows_served"] == served


# ---------------------------------------------------------------------------
# Standalone load-generator mode: sweep concurrency, find the knee
# ---------------------------------------------------------------------------


def _build_mini_store(root):
    specs = contest_tasks(BENCHMARKS, FLOWS, SAMPLES, SAMPLES, SAMPLES)
    run_contest_tasks(specs, jobs=1, out_dir=root, keep_solutions=True)
    return root


def _load_main(argv=None):
    import argparse
    import tempfile
    from pathlib import Path

    parser = argparse.ArgumentParser(
        description="bench_serve load generator (see module docstring)"
    )
    parser.add_argument("--load", action="store_true",
                        help="run the load sweep (the only mode)")
    parser.add_argument("--store", default=None,
                        help="existing run/bundle dir (default: build a "
                             "mini contest run in a temp dir)")
    parser.add_argument("--model", default="ex74")
    parser.add_argument("--requests", type=int, default=512,
                        help="requests per concurrency level")
    parser.add_argument("--concurrency", type=int, default=None,
                        help="fixed connection count (default: sweep "
                             "1..64 and report the knee)")
    parser.add_argument("--max-queued-rows", type=int, default=None)
    parser.add_argument("--deadline-ms", type=float, default=None)
    parser.add_argument("--tick-ms", type=float, default=2.0)
    args = parser.parse_args(argv)
    if not args.load:
        parser.error("this entry point only implements --load")

    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        store_root = Path(args.store) if args.store else \
            _build_mini_store(Path(tmp) / "run")
        store = ModelStore(store_root)
        name = store.resolve(args.model)
        info = store.info(name)
        rows = _rows(64, info.n_inputs, seed=7)
        expected = store.load(name).run(rows)

        app = ServeApp(
            ModelStore(store_root), tick_s=args.tick_ms / 1000.0,
            max_queued_rows=args.max_queued_rows,
            deadline_ms=args.deadline_ms,
        )
        levels = [args.concurrency] if args.concurrency else \
            [1, 2, 4, 8, 16, 32, 64]
        print(f"load sweep: model {name!r}, {args.requests} requests per "
              f"level, {os.cpu_count()} cores")
        print(f"{'conc':>6} {'req/s':>10} {'p50 ms':>9} {'p99 ms':>9} "
              f"{'200':>6} {'503':>6}")
        knee = None
        previous_rps = 0.0
        with ServerHandle(app) as handle:
            _run_load(handle, name, rows, expected, 32, 2)  # warm-up
            for concurrency in levels:
                summary = _run_load(
                    handle, name, rows, expected, args.requests, concurrency
                )
                statuses = summary["statuses"]
                print(f"{concurrency:>6} {summary['rps']:>10.0f} "
                      f"{summary['p50_ms']:>9.2f} {summary['p99_ms']:>9.2f} "
                      f"{statuses.get(200, 0):>6} {statuses.get(503, 0):>6}")
                # The knee: the first level that buys < 5% throughput.
                if knee is None and previous_rps and \
                        summary["rps"] < previous_rps * 1.05:
                    knee = concurrency
                previous_rps = summary["rps"]
        if len(levels) > 1:
            print(f"saturation knee: ~{knee or levels[-1]} connections "
                  f"(first level adding < 5% throughput)")
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(_load_main())
