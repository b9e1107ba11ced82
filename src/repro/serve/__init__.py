"""Compiled-circuit serving: learned AIGs as a prediction service.

The paper's end product is a circuit whose whole value is evaluation
on new inputs.  This subsystem turns a contest run's winners into a
served model catalogue:

Load (:mod:`repro.serve.bundle` / :mod:`repro.serve.store`)
    :class:`ModelStore` scans a runner store (``records.jsonl`` +
    ``solutions/*.aag``) — or any directory of ``.aag`` files with
    JSON sidecars — picks the best solution per benchmark from the
    stored records, and compiles each circuit through the levelized
    sim engine exactly once.  Compiled plans live in a bounded LRU.

Batch (:mod:`repro.serve.batching`)
    :class:`MicroBatcher` coalesces concurrent predict requests per
    model: each queue flushes on the next event-loop turn, so a burst
    of single-row requests that arrived while the loop was busy
    becomes one numpy-packed engine pass
    (:func:`repro.sim.batch.simulate_rows_grouped`), amortizing
    packing and per-level dispatch across every row in flight.
    Results are bit-identical to per-request evaluation.

    Every flush runs inline on the event loop: at serving batch sizes
    an engine pass costs less than the HTTP handling around it.
    Per-model backpressure (``--max-queued-rows``) answers overload
    with 503s instead of unbounded queues.

Observe (:mod:`repro.serve.metrics`)
    ``GET /metrics`` serves Prometheus-text counters, latency and
    batch-size histograms, queue depths and cache statistics.

Serve (:mod:`repro.serve.http` / :mod:`repro.serve.predict`)
    ``repro serve --store DIR --port N`` starts a stdlib-asyncio HTTP
    front end (``/predict/{model}``, ``/models``, ``/healthz``,
    ``/metrics``); ``repro predict`` runs the same computation
    offline, rows-file-in / predictions-file-out.

``benchmarks/bench_serve.py`` measures the design: coalesced
throughput vs a single-row request loop, cold-vs-warm compile cost
through the LRU, and (``--load``) saturation behavior under
thousands of concurrent keep-alive connections.
"""

from repro.serve.batching import ExecutionError, MicroBatcher, QueueSaturated
from repro.serve.bundle import CircuitBundle, ModelInfo
from repro.serve.http import ServeApp, ServerHandle, serve_forever
from repro.serve.metrics import MetricsRegistry, ServeMetrics
from repro.serve.predict import predict_file, read_rows_file
from repro.serve.store import ModelStore

__all__ = [
    "CircuitBundle",
    "ExecutionError",
    "MetricsRegistry",
    "MicroBatcher",
    "ModelInfo",
    "ModelStore",
    "QueueSaturated",
    "ServeApp",
    "ServeMetrics",
    "ServerHandle",
    "predict_file",
    "read_rows_file",
    "serve_forever",
]
