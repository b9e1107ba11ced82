"""Stdlib-asyncio HTTP front end for the serving layer.

A deliberately small HTTP/1.1 server (no third-party dependencies —
``asyncio.start_server`` plus hand-rolled request parsing) exposing:

``GET /healthz``
    Liveness + uptime + batching/cache statistics.
``GET /models``
    The catalogue: one metadata object per servable model.
``GET /metrics``
    Prometheus text exposition: request counters by endpoint/status,
    latency and batch-size histograms, queue depths, backpressure
    rejections and store cache counters (see
    :mod:`repro.serve.metrics`).
``POST /predict/{model}``
    Body ``{"rows": [[0,1,...], ...]}`` (or ``{"row": [0,1,...]}``
    for a single sample); responds ``{"model": ..., "rows": n,
    "outputs": [[...], ...]}``.  Outputs are bit-identical to
    ``AIG.simulate`` on the same rows — the handler only queues rows
    into the shared :class:`~repro.serve.batching.MicroBatcher`, which
    coalesces concurrent requests into one engine pass per model per
    tick, run inline on the event loop.

Error statuses are *classified*: a malformed request is that
caller's 400; a saturated queue or an expired queue deadline is a 503
(with ``Retry-After`` when saturated); an engine failure mid-batch is
a 500 for every coalesced caller — never a 400, because it was never
their fault.

Connections are keep-alive (HTTP/1.1 semantics), so request loops
from one client don't pay a TCP handshake per row.  Bodies are capped
at ``MAX_BODY_BYTES``; malformed requests get JSON error objects with
conventional status codes (400/404/405/413).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from typing import Any

from repro.serve.batching import (
    DeadlineExceeded,
    ExecutionError,
    MicroBatcher,
    QueueSaturated,
)
from repro.serve.metrics import ServeMetrics
from repro.serve.store import ModelStore

MAX_BODY_BYTES = 64 * 1024 * 1024
MAX_HEADER_BYTES = 64 * 1024  # total per request, all header lines

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A handler error carrying its HTTP status (+ extra headers)."""

    def __init__(
        self,
        status: int,
        message: str,
        headers: dict[str, str] | None = None,
    ):
        super().__init__(message)
        self.status = status
        self.message = message
        self.headers: dict[str, str] = dict(headers or {})


class ServeApp:
    """Routes requests over one :class:`ModelStore` + microbatcher.

    Engine passes run inline on the event loop, one process in all.
    ``max_queued_rows``/``deadline_ms`` bound each model's queue (see
    :mod:`repro.serve.batching` for the 503 semantics).
    """

    def __init__(
        self,
        store: ModelStore | str,
        tick_s: float = 0.002,
        max_batch: int = 4096,
        cache_size: int = 32,
        max_queued_rows: int | None = None,
        deadline_ms: float | None = None,
    ):
        if not isinstance(store, ModelStore):
            store = ModelStore(store, cache_size=cache_size)
        self.store = store
        self.metrics = ServeMetrics()
        self.batcher = MicroBatcher(
            store,
            tick_s=tick_s,
            max_batch=max_batch,
            max_queued_rows=max_queued_rows,
            deadline_s=None if deadline_ms is None else deadline_ms / 1000.0,
            metrics=self.metrics,
        )
        self.started = time.monotonic()
        self.requests_handled = 0
        self._attach_gauges()

    def _attach_gauges(self) -> None:
        """Render-time gauges over live component state."""
        metrics = self.metrics
        store = self.store
        batcher = self.batcher
        metrics.attach_gauge(
            "uptime_seconds", "Seconds since the app was constructed.",
            lambda: time.monotonic() - self.started,
        )
        metrics.attach_gauge(
            "models", "Servable models in the catalogue.",
            lambda: store.stats()["models"],  # type: ignore[arg-type]
        )
        metrics.attach_gauge(
            "store_cache_entries", "Compiled circuits held in the LRU.",
            lambda: len(store.cached_names()),
        )
        metrics.attach_gauge(
            "store_cache_events",
            "Store LRU counters (hits/misses/evictions/stale_evictions).",
            lambda: {
                "hits": store.hits,
                "misses": store.misses,
                "evictions": store.evictions,
                "stale_evictions": store.stale_evictions,
            },
            label="event",
        )
        metrics.attach_gauge(
            "queue_rows", "Rows waiting in each model's queue.",
            batcher.queue_depths, label="model",
        )
        metrics.attach_gauge(
            "requests_handled", "Total HTTP requests answered.",
            lambda: self.requests_handled,
        )

    def close(self) -> None:
        """Release the app's resources: it holds none beyond memory,
        so this is a no-op, safe to call any number of times."""

    # -- endpoint bodies (JSON-object in, JSON-object out) -----------

    def healthz(self) -> dict[str, Any]:
        return {
            "status": "ok",
            "uptime_s": round(time.monotonic() - self.started, 3),
            "store": self.store.stats(),
            "batching": self.batcher.stats(),
        }

    def models(self) -> dict[str, Any]:
        compiled = set(self.store.cached_names())
        infos = []
        for info in self.store.infos():
            payload = info.to_json()
            payload["compiled"] = info.name in compiled
            infos.append(payload)
        return {"models": infos}

    async def predict(self, model: str, body: dict[str, Any]) -> dict[str, Any]:
        try:
            name = self.store.resolve(model)
        except KeyError as exc:
            raise HttpError(404, str(exc.args[0])) from None
        if "rows" in body:
            rows = body["rows"]
        elif "row" in body:
            rows = [body["row"]]
        else:
            raise HttpError(400, 'body must carry "rows" or "row"')
        start = time.monotonic()
        try:
            # Conversion + strict 0/1 validation happen at enqueue
            # (inside the batcher, before anything is queued), so a
            # ValueError here is *this request's* malformed rows — a
            # 400.  Flush-time failures arrive as the classified
            # exceptions below and must not be blamed on the caller.
            outputs = await self.batcher.predict(name, rows)
        except QueueSaturated as exc:
            raise HttpError(
                503, exc.message,
                headers={"Retry-After": str(max(1, round(exc.retry_after_s)))},
            ) from None
        except DeadlineExceeded as exc:
            raise HttpError(503, str(exc)) from None
        except ExecutionError as exc:
            raise HttpError(500, str(exc)) from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise HttpError(400, f"rows are not a 0/1 matrix: {exc}") from None
        finally:
            self.metrics.predict_latency.observe(time.monotonic() - start)
        return {
            "model": name,
            "rows": int(outputs.shape[0]),
            "outputs": outputs.tolist(),
        }

    # -- request plumbing --------------------------------------------

    async def dispatch(
        self, method: str, path: str, body_bytes: bytes
    ) -> tuple[int, dict[str, Any] | str]:
        self.metrics.requests_total.inc(label_value=_endpoint_label(path))
        if path == "/healthz":
            if method != "GET":
                raise HttpError(405, "use GET /healthz")
            return 200, self.healthz()
        if path == "/models":
            if method != "GET":
                raise HttpError(405, "use GET /models")
            return 200, self.models()
        if path == "/metrics":
            if method != "GET":
                raise HttpError(405, "use GET /metrics")
            return 200, self.metrics.render()
        if path.startswith("/predict/"):
            if method != "POST":
                raise HttpError(405, "use POST /predict/{model}")
            model = path[len("/predict/") :]
            try:
                body = json.loads(body_bytes.decode("utf-8")) if body_bytes else {}
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise HttpError(400, f"body is not valid JSON: {exc}") from None
            if not isinstance(body, dict):
                raise HttpError(400, "body must be a JSON object")
            return 200, await self.predict(model, body)
        raise HttpError(404, f"no route for {method} {path}")

    async def handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except HttpError as exc:
                    writer.write(
                        _encode_response(exc.status, {"error": exc.message}, False)
                    )
                    await writer.drain()
                    break
                if request is None:
                    break
                method, path, headers, body_bytes = request
                payload: dict[str, Any] | str
                extra_headers: dict[str, str] | None = None
                try:
                    status, payload = await self.dispatch(method, path, body_bytes)
                except HttpError as exc:
                    status, payload = exc.status, {"error": exc.message}
                    extra_headers = exc.headers or None
                except Exception as exc:  # pragma: no cover - safety net
                    status, payload = 500, {"error": f"{type(exc).__name__}: {exc}"}
                self.requests_handled += 1
                self.metrics.responses_total.inc(label_value=str(status))
                # Header *values* are case-insensitive for this token
                # (RFC 9110: "Close" == "close"); _read_request already
                # lowercased it so curl's "Connection: Close" actually
                # closes instead of being mistaken for keep-alive.
                keep_alive = headers.get("connection", "keep-alive") != "close"
                writer.write(
                    _encode_response(status, payload, keep_alive, extra_headers)
                )
                await writer.drain()
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        except asyncio.CancelledError:
            pass  # server shutdown with the connection parked in readline
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                pass  # peer gone or server shutting the loop down


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one HTTP/1.x request; ``None`` on clean EOF."""
    try:
        line = await reader.readline()
    except (ConnectionError, ValueError):
        return None
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise HttpError(400, f"malformed request line: {line[:80]!r}")
    method, path, _version = parts
    headers: dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            raw = await reader.readline()
        except ValueError:  # StreamReader limit (64 KiB) exceeded
            raise HttpError(400, "header line too long") from None
        if not raw or raw in (b"\r\n", b"\n"):
            break
        header_bytes += len(raw)
        if header_bytes > MAX_HEADER_BYTES:
            raise HttpError(400, "request headers too large")
        name, sep, value = raw.decode("latin-1").partition(":")
        if sep:
            field = name.strip().lower()
            value = value.strip()
            # Token-valued headers this server actually interprets are
            # case-insensitive per RFC 9110; normalize them here so no
            # comparison downstream can get the casing wrong again
            # ("Connection: Close" must close, "Transfer-Encoding:
            # Chunked" must 400).  Other values keep their case.
            if field in ("connection", "transfer-encoding"):
                value = value.lower()
            headers[field] = value
    if "transfer-encoding" in headers:
        # No chunked decoding here; without this, the unread chunk
        # stream would desync the next keep-alive request.  The 400
        # path closes the connection, so no stray bytes are reparsed.
        raise HttpError(400, "Transfer-Encoding is not supported; "
                             "send Content-Length")
    raw_length = headers.get("content-length", "0") or "0"
    # RFC 9110: 1*DIGIT.  int() would also take "+5" or "1_0", which
    # a proxy in front may read differently.
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise HttpError(400, "malformed Content-Length")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise HttpError(413, f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
    body = await reader.readexactly(length) if length else b""
    return method.upper(), path, headers, body


def _endpoint_label(path: str) -> str:
    """Low-cardinality endpoint label for the request counter."""
    if path.startswith("/predict/"):
        return "/predict"
    if path in ("/healthz", "/models", "/metrics"):
        return path
    return "other"


def _encode_response(
    status: int,
    payload: dict[str, Any] | str,
    keep_alive: bool,
    extra_headers: dict[str, str] | None = None,
) -> bytes:
    if isinstance(payload, str):  # /metrics text exposition
        body = payload.encode("utf-8")
        content_type = "text/plain; version=0.0.4; charset=utf-8"
    else:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        content_type = "application/json"
    extras = "".join(
        f"{name}: {value}\r\n"
        for name, value in sorted((extra_headers or {}).items())
    )
    head = (
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"{extras}"
        f"\r\n"
    )
    return head.encode("latin-1") + body


async def start_async_server(
    app: ServeApp, host: str = "127.0.0.1", port: int = 0
) -> asyncio.AbstractServer:
    """Bind the app; ``port=0`` picks a free port (see sockets)."""
    return await asyncio.start_server(app.handle_connection, host=host, port=port)


async def serve_forever(app: ServeApp, host: str, port: int) -> None:
    server = await start_async_server(app, host, port)
    addr = server.sockets[0].getsockname()
    print(
        f"repro serve: {len(app.store.names())} model(s) on "
        f"http://{addr[0]}:{addr[1]}  (tick {app.batcher.tick_s * 1e3:g} ms, "
        f"max batch {app.batcher.max_batch})"
    )
    async with server:
        await server.serve_forever()


class ServerHandle:
    """A server running on a background thread (tests, benches, demo).

    Use as a context manager::

        with ServerHandle(ServeApp("runs/demo")) as handle:
            conn = http.client.HTTPConnection(handle.host, handle.port)
            ...
    """

    def __init__(self, app: ServeApp, host: str = "127.0.0.1"):
        self.app = app
        self.host = host
        self.port = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None

    def __enter__(self) -> ServerHandle:
        ready = threading.Event()

        def run() -> None:
            loop = asyncio.new_event_loop()
            asyncio.set_event_loop(loop)
            self._loop = loop
            server = loop.run_until_complete(
                start_async_server(self.app, host=self.host, port=0)
            )
            self.port = server.sockets[0].getsockname()[1]
            ready.set()
            try:
                loop.run_forever()
            finally:
                server.close()
                loop.run_until_complete(server.wait_closed())
                # Open keep-alive connections are parked in readline;
                # cancel them so the loop closes without warnings.
                pending = asyncio.all_tasks(loop)
                for task in pending:
                    task.cancel()
                if pending:
                    loop.run_until_complete(
                        asyncio.gather(*pending, return_exceptions=True)
                    )
                loop.close()

        self._thread = threading.Thread(target=run, daemon=True)
        self._thread.start()
        if not ready.wait(timeout=30):  # pragma: no cover
            raise RuntimeError("server thread failed to start")
        return self

    def __exit__(self, *exc_info: object) -> None:
        if self._loop is not None:
            loop = self._loop

            async def _graceful_stop() -> None:
                # Answer anything still queued in the microbatcher and
                # give the awakened handlers a beat to write their
                # responses before the loop stops — requests parked
                # mid-tick must not be abandoned.
                self.app.batcher.flush_all()
                await asyncio.sleep(0.05)
                loop.stop()

            asyncio.run_coroutine_threadsafe(_graceful_stop(), loop)
        if self._thread is not None:
            self._thread.join(timeout=10)
