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
   reported always.  Each side runs in a fresh interpreter of its
   own, so what ran before it in a full bench run cannot slow it
   (timed in the bench's own process, the ratio read 4.6-5.8x across
   full runs on a shared 2-core box).  It is timed as the best of
   fifteen runs after one untimed run: the 4 ms burst is still
   warming up after three runs, and one slow phase of a shared box
   can pull a best of three under the floor.
   The raw engine-level gain (validate plus ``run`` per row vs one
   ``simulate_rows_grouped`` pass, no event loop in the way) is
   reported alongside.

2. *Compile once, serve forever.*  The first ``load`` of a model pays
   the levelized compile (cold); subsequent loads are an LRU hit
   (warm).  The warm path must be faster; both are reported.  Each
   side is the best of three sub-millisecond samples, a fresh store
   for each cold one, so one scheduling hiccup does not decide it.

3. *Saturation sheds, never strands.*  Past ``max_queued_rows`` the
   server answers 503 (with ``Retry-After``); every request still gets
   *an* answer, and every 200 is bit-exact.  Requests larger than the
   cap are mixed into the load, so shedding does not hang on timing.

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
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro
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
COALESCE_REPEATS = 15


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


def measure_side(side, store_dir):
    """One side of the coalescing bench, timed in this process.

    Runs the side once untimed, then keeps the best of
    ``COALESCE_REPEATS`` runs.  Returns that time, every timed run's
    outputs (one row per request, for the bit-identity check) and, for
    the two serving sides, every timed run's batcher stats.
    """
    store = ModelStore(store_dir)
    name = "ex74"
    circuit = store.load(name)
    rows = _rows(N_ROWS, circuit.n_inputs, seed=1)

    # Serving sides: sequential awaits (every request its own engine
    # pass, like clients trickling in) or one concurrent burst.
    async def drive_singles():
        batcher = MicroBatcher(store, max_batch=N_ROWS)
        outs = []
        for i in range(N_ROWS):
            outs.append(await batcher.predict(name, rows[i]))
        return batcher, outs

    async def drive_coalesced():
        batcher = MicroBatcher(store, max_batch=N_ROWS)
        outs = await asyncio.gather(
            *(batcher.predict(name, rows[i]) for i in range(N_ROWS))
        )
        return batcher, outs

    # Engine sides, no event loop in the way.  Both validate every
    # row, as the batcher does at enqueue.
    def per_row():
        return None, [
            circuit.run(validate_rows(rows[i], circuit.n_inputs, name))
            for i in range(N_ROWS)
        ]

    def grouped():
        blocks = [validate_rows(r, circuit.n_inputs, name) for r in rows]
        return None, simulate_rows_grouped(circuit, blocks)

    fn = {
        "single": lambda: asyncio.run(drive_singles()),
        "coalesced": lambda: asyncio.run(drive_coalesced()),
        "per_row": per_row,
        "grouped": grouped,
    }[side]
    fn()  # untimed warm-up
    best_s, runs = _best_of(fn, COALESCE_REPEATS)
    return {
        "best_s": best_s,
        "outputs": [np.concatenate(outs).tolist() for _, outs in runs],
        "stats": [batcher.stats() for batcher, _ in runs
                  if batcher is not None],
    }


def _measure_in_fresh_interpreter(side, store_dir):
    """:func:`measure_side` in a new Python process.

    Inside a full bench run the burst's timing depends on what ran
    before it in the process; a fresh interpreter per side does not.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(repro.__file__).resolve().parent.parent),
        str(Path(__file__).resolve().parent),
        env.get("PYTHONPATH"),
    ]))
    code = ("import json\n"
            "from bench_serve import measure_side\n"
            f"print(json.dumps(measure_side({side!r}, {str(store_dir)!r})))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_serve_coalescing_speedup_and_bit_identity(store_dir):
    store = ModelStore(store_dir)
    name = "ex74"
    rows = _rows(N_ROWS, store.info(name).n_inputs, seed=1)

    # Ground truth: the stored winner simulated directly.
    aig = read_aag(RunStore(store_dir).solution_path(store.info(name).key))
    expected = aig.simulate(rows)

    sides = {side: _measure_in_fresh_interpreter(side, store_dir)
             for side in ("single", "coalesced", "per_row", "grouped")}

    # --- bit-identity: unconditional, on every run --------------------
    for side in sides.values():
        assert len(side["outputs"]) == COALESCE_REPEATS
        for outs in side["outputs"]:
            assert np.array_equal(np.asarray(outs, dtype=np.uint8),
                                  expected)

    single_s = sides["single"]["best_s"]
    coalesced_s = sides["coalesced"]["best_s"]
    per_row_s = sides["per_row"]["best_s"]
    grouped_s = sides["grouped"]["best_s"]
    single_stats = sides["single"]["stats"]
    stats = sides["coalesced"]["stats"]
    speedup = single_s / coalesced_s
    engine_speedup = per_row_s / grouped_s
    cores = os.cpu_count() or 1
    echo(f"\n=== Serving throughput ({name}, {N_ROWS} single-row "
         f"requests, {cores} cores, best of {COALESCE_REPEATS}) ===")
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

    # Cold: a fresh store per sample, so every first load pays parse +
    # levelized compile; each side keeps its best of REPEATS samples.
    # The stores are opened (a directory scan) before the clock starts.
    stores = [ModelStore(store_dir) for _ in range(REPEATS)]
    fresh = iter(stores)
    cold_s, cold_outs = _best_of(
        lambda: next(fresh).load("ex74").run(probe_rows)
    )
    assert [store.stats()["misses"] for store in stores] == [1] * REPEATS

    # Warm: the LRU hands back the compiled plan.
    warm = stores[-1]
    warm_s, warm_outs = _best_of(lambda: warm.load("ex74").run(probe_rows))
    assert warm.stats()["hits"] == REPEATS

    # unconditional
    assert all(np.array_equal(cold_outs[0], out)
               for out in cold_outs + warm_outs)
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


def _predict_request_bytes(name, payload):
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    head = (
        f"POST /predict/{name} HTTP/1.1\r\n"
        f"Host: bench\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"\r\n"
    ).encode("latin-1")
    return head + body


def _single_row_requests(name, rows, expected):
    """One single-row request per row, and the outputs each must get."""
    payloads = [
        _predict_request_bytes(name, {"row": [int(b) for b in row]})
        for row in rows
    ]
    return payloads, [expected[i : i + 1] for i in range(len(rows))]


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


async def _drive_load(host, port, payloads, n_requests, concurrency):
    """``concurrency`` keep-alive connections pulling ``n_requests``
    predicts off a shared work list; request *i* always carries
    ``payloads[i % len(payloads)]``, so every answer is checkable."""
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


def _summarize_load(results, expected):
    """Verify + condense one load run.  Asserts, unconditionally:
    no request stranded, every 200 bit-exact (request *i* must get
    ``expected[i % len(expected)]``), every 503 retryable."""
    statuses = collections.Counter()
    latencies = []
    for i, result in enumerate(results):
        assert result is not None, f"request {i} got no answer (stranded)"
        status, headers, body, latency = result
        statuses[status] += 1
        latencies.append(latency)
        if status == 200:
            got = np.asarray(body["outputs"], dtype=np.uint8)
            assert np.array_equal(got, expected[i % len(expected)]), (
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


def _run_load(handle, payloads, expected, n_requests, concurrency):
    start = time.perf_counter()
    results = asyncio.run(
        _drive_load(handle.host, handle.port, payloads,
                    n_requests, concurrency)
    )
    elapsed = time.perf_counter() - start
    summary = _summarize_load(results, expected)
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
    singles, answers = _single_row_requests(name, rows, expected)

    # An 8-row admission cap, and every fifth request carries 9 rows:
    # more than the cap admits even into an empty queue, so those are
    # always shed, while a single row that finds the queue empty is
    # always served.  Rejects are structural, not a timing accident.
    oversized = _predict_request_bytes(name, {"rows": rows[:9].tolist()})
    payloads, wanted = [], []
    for i, (payload, answer) in enumerate(zip(singles, answers)):
        payloads.append(payload)
        wanted.append(answer)
        if i % 4 == 3:
            payloads.append(oversized)
            wanted.append(expected[:9])
    app = ServeApp(ModelStore(store_dir), max_queued_rows=8)
    with ServerHandle(app) as handle:
        summary = _run_load(handle, payloads, wanted, 144, 24)
        stats = app.batcher.stats()

    served = summary["statuses"].get(200, 0)
    shed = summary["statuses"].get(503, 0)
    echo("\n=== Saturation behavior (8-row cap, 24 connections, "
         "every fifth request 9 rows) ===")
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
        payloads, answers = _single_row_requests(
            name, rows, store.load(name).run(rows)
        )

        app = ServeApp(
            ModelStore(store_root), max_queued_rows=args.max_queued_rows
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
            _run_load(handle, payloads, answers, 32, 2)  # warm-up
            for concurrency in levels:
                summary = _run_load(
                    handle, payloads, answers, args.requests, concurrency
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
    sys.exit(_load_main())
