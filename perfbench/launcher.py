"""The serve workload's server: ``repro serve`` with its defaults.

Usage::

    python3 perfbench/launcher.py --store DIR --port-file F \\
        --stats-out S [--trace]

Builds ``ServeApp(store)`` exactly as ``repro serve`` does with default
settings (in-process execution, 2 ms tick), binds a free port on
127.0.0.1 and writes it to ``--port-file``.  SIGTERM stops it; it then
writes its import time, peak RSS and (with ``--trace``) the per-layer
serve accounting to ``--stats-out``.  SIGUSR1 clears that accounting,
so warm-up requests stay out of it.
"""

from __future__ import annotations

import argparse
import asyncio
import contextvars
import json
import os
import resource
import signal
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parents[1]
perf = time.perf_counter


class ServeTrace:
    """Per-request layer times of the serve path, in seconds.

    Coroutines interleave on the loop, so these are not stack spans:
    each request carries its own record through context variables, and
    the engine pass (run from the flush timer) is matched to its
    requests by their validated row blocks.
    """

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.http: list[float] = []
        self.validate: list[float] = []
        self.queue_wait: list[float] = []
        self.engine: list[float] = []

    def summary(self) -> dict[str, float]:
        def mean_ms(values: list[float]) -> float:
            return 1e3 * sum(values) / len(values) if values else 0.0

        return {
            "serve.http.self_ms": mean_ms(self.http),
            "serve.validate.self_ms": mean_ms(self.validate),
            "serve.queue_wait_ms": mean_ms(self.queue_wait),
            "sim.engine.self_ms": mean_ms(self.engine),
        }

    def install(self) -> None:
        import repro.serve.batching as batching
        import repro.serve.http as http
        from repro.serve.batching import MicroBatcher
        from repro.serve.http import ServeApp

        in_predict: contextvars.ContextVar = contextvars.ContextVar("predict")
        in_dispatch: contextvars.ContextVar = contextvars.ContextVar("dispatch")
        engine_by_block: dict[int, float] = {}
        validate_rows = batching.validate_rows
        simulate_rows_grouped = batching.simulate_rows_grouped
        predict = MicroBatcher.predict
        dispatch = ServeApp.dispatch
        encode = http._encode_response

        def traced_validate(*args: Any, **kwargs: Any) -> Any:
            start = perf()
            mat = validate_rows(*args, **kwargs)
            took = perf() - start
            self.validate.append(took)
            request = in_predict.get(None)
            if request is not None:
                request["validate"], request["mat"] = took, mat
            return mat

        def traced_engine(compiled: Any, blocks: Any, *args: Any,
                          **kwargs: Any) -> Any:
            start = perf()
            out = simulate_rows_grouped(compiled, blocks, *args, **kwargs)
            took = perf() - start
            self.engine.append(took)
            for block in blocks:
                engine_by_block[id(block)] = took
            return out

        async def traced_predict(batcher: Any, name: str, rows: Any) -> Any:
            request: dict[str, Any] = {"validate": 0.0, "mat": None}
            token = in_predict.set(request)
            start = perf()
            try:
                return await predict(batcher, name, rows)
            finally:
                took = perf() - start
                in_predict.reset(token)
                engine = 0.0
                if request["mat"] is not None:
                    engine = engine_by_block.pop(id(request["mat"]), 0.0)
                self.queue_wait.append(took - request["validate"] - engine)
                outer = in_dispatch.get(None)
                if outer is not None:
                    outer["predict"] = took

        async def traced_dispatch(app: Any, method: str, path: str,
                                  body: bytes) -> Any:
            # Left set after returning: the connection handler encodes
            # the response next, in the same task, and reads it there.
            request = {"predict": 0.0, "dispatch": 0.0}
            in_dispatch.set(request)
            start = perf()
            try:
                return await dispatch(app, method, path, body)
            finally:
                request["dispatch"] = perf() - start

        def traced_encode(*args: Any, **kwargs: Any) -> bytes:
            start = perf()
            out = encode(*args, **kwargs)
            took = perf() - start
            request = in_dispatch.get(None)
            if request is not None and request["predict"] > 0:
                self.http.append(request["dispatch"] - request["predict"] + took)
            in_dispatch.set(None)
            return out

        batching.validate_rows = traced_validate
        batching.simulate_rows_grouped = traced_engine
        MicroBatcher.predict = traced_predict
        ServeApp.dispatch = traced_dispatch
        http._encode_response = traced_encode


async def serve(app: Any, port_file: Path, trace: ServeTrace | None) -> None:
    from repro.serve.http import start_async_server

    server = await start_async_server(app, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    partial = port_file.with_suffix(".part")
    partial.write_text(str(port))
    partial.rename(port_file)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    loop.add_signal_handler(signal.SIGTERM, stop.set)
    if trace is not None:
        loop.add_signal_handler(signal.SIGUSR1, trace.reset)
    orphan_watch = asyncio.create_task(_stop_when_orphaned(stop))
    async with server:
        await stop.wait()
    orphan_watch.cancel()


async def _stop_when_orphaned(stop: asyncio.Event) -> None:
    """End the server if the benchmark died without stopping it."""
    parent = os.getppid()
    while os.getppid() == parent:
        await asyncio.sleep(1.0)
    stop.set()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--store", type=Path, required=True)
    parser.add_argument("--port-file", type=Path, required=True)
    parser.add_argument("--stats-out", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    start = perf()
    sys.path.insert(0, str(ROOT / "src"))
    from repro.serve import ServeApp

    import_s = perf() - start
    trace = ServeTrace() if args.trace else None
    if trace is not None:
        trace.install()
    app = ServeApp(str(args.store))
    try:
        asyncio.run(serve(app, args.port_file, trace))
    finally:
        app.close()
    stats = {
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "trace": trace.summary() if trace is not None else {},
    }
    args.stats_out.write_text(json.dumps(stats))


if __name__ == "__main__":
    main()
