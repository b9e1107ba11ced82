"""Microbatching: coalesce concurrent predict requests per circuit.

Single-row HTTP requests are the worst case for a vectorized engine —
every request would pay packing, per-level dispatch and Python
overhead for one row of work.  The :class:`MicroBatcher` closes that
gap: requests enqueue into a per-model queue, and the queue is
flushed on the next event-loop turn — or as soon as ``max_batch``
rows are waiting — as **one** grouped engine pass, and each awaiting
caller receives exactly its own slice of the result.

There is no fixed wait: the flush takes every request that arrived
while the loop was busy, so a burst becomes one pass, and a request
that arrives alone pays nothing for company it will not get.

The flush runs the engine synchronously on the event loop. At
serving batch sizes one grouped pass takes well under a millisecond,
less than the HTTP handling around it, so there is nothing to gain
from shipping it to another process. Coalescing changes *when* rows
are simulated, never *what* the engine computes — outputs are
bit-identical to per-request evaluation.

Failures are classified, not conflated (callers turn these into HTTP
statuses):

``ValueError`` at enqueue
    *This caller's* rows are malformed — raised from
    :meth:`predict` before anything is queued; nobody else sees it.
:class:`QueueSaturated` at enqueue
    The model's queued rows are at ``max_queued_rows``; admitting
    more would grow latency without bound.  The caller should retry
    later.
:class:`ExecutionError` at flush
    The engine or compile failed for the whole batch.  That is a
    server-side failure (500) hitting every coalesced caller — it
    must never be misreported as a caller's 400.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.serve.bundle import validate_rows
from repro.serve.metrics import ServeMetrics
from repro.serve.store import ModelStore
from repro.sim.batch import simulate_rows_grouped


class QueueSaturated(Exception):
    """A model's queue is full; the request was rejected, not queued."""


class ExecutionError(Exception):
    """Engine/compile failure at flush time — a server fault, never
    attributable to any single caller's input."""


@dataclass
class _Pending:
    """One queued request: its validated rows and how to answer it."""

    mat: np.ndarray
    future: asyncio.Future[np.ndarray]


class MicroBatcher:
    """Per-model request coalescing on one event loop.

    Parameters
    ----------
    store:
        The :class:`~repro.serve.store.ModelStore` to serve from.
    max_batch:
        Flush immediately once this many rows are queued for a model.
    max_queued_rows:
        Per-model admission bound on queued rows; beyond it,
        :meth:`predict` raises :class:`QueueSaturated` instead of
        queueing (``None`` = unbounded, the historical behavior).
    metrics:
        The :class:`~repro.serve.metrics.ServeMetrics` that counts
        batches, rows, rejections and execution errors; a fresh one
        when not given.  :meth:`stats` reads its totals from there.
    """

    def __init__(
        self,
        store: ModelStore,
        max_batch: int = 4096,
        max_queued_rows: int | None = None,
        metrics: ServeMetrics | None = None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_queued_rows is not None and max_queued_rows < 1:
            raise ValueError("max_queued_rows must be >= 1 (or None)")
        self.store = store
        self.max_batch = max_batch
        self.max_queued_rows = max_queued_rows
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self._queues: dict[str, list[_Pending]] = {}
        self._queued_rows: dict[str, int] = {}
        self._timers: dict[str, asyncio.TimerHandle] = {}
        self.requests = 0
        self.max_coalesced = 0

    # -- admission ---------------------------------------------------

    def pending_rows(self, name: str) -> int:
        """Rows currently queued and not yet flushed."""
        return self._queued_rows.get(name, 0)

    def queue_depths(self) -> dict[str, int]:
        """``{model: queued rows}`` for every non-empty queue."""
        return {k: v for k, v in self._queued_rows.items() if v}

    async def predict(self, name: str, rows: Any) -> np.ndarray:
        """Queue ``rows`` for ``name``; resolves at the next flush.

        Raises ``KeyError`` for unknown models and ``ValueError`` for
        malformed rows *before* anything is queued (per-request
        errors), :class:`QueueSaturated` when the model's queue is at
        capacity, and :class:`ExecutionError` asynchronously via the
        returned future.
        """
        name = self.store.resolve(name)
        # Validation needs only the model's interface, which the
        # catalogue serves without compiling.
        info = self.store.info(name)
        mat = validate_rows(rows, info.n_inputs, name)
        if self.max_queued_rows is not None and (
            self.pending_rows(name) + mat.shape[0] > self.max_queued_rows
        ):
            self.metrics.rejected_total.inc(label_value="saturated")
            raise QueueSaturated(
                f"model {name!r} is saturated "
                f"({self.pending_rows(name)} rows pending, "
                f"limit {self.max_queued_rows}); retry later"
            )
        loop = asyncio.get_running_loop()
        future: asyncio.Future[np.ndarray] = loop.create_future()
        queue = self._queues.setdefault(name, [])
        queue.append(_Pending(mat, future))
        self._queued_rows[name] = self._queued_rows.get(name, 0) + mat.shape[0]
        self.requests += 1
        if self._queued_rows[name] >= self.max_batch:
            self._flush(name)
        elif name not in self._timers:
            # The next loop turn, after every enqueue already scheduled.
            self._timers[name] = loop.call_later(0, self._flush, name)
        return await future

    # -- flush -------------------------------------------------------

    def _flush(self, name: str) -> None:
        timer = self._timers.pop(name, None)
        if timer is not None:
            timer.cancel()
        queue = self._queues.pop(name, [])
        self._queued_rows.pop(name, None)
        # A caller that went away (its future cancelled) was already
        # settled; its rows must not be simulated.
        live = [e for e in queue if not e.future.done()]
        if not live:
            return
        # Blocks were validated at enqueue; they go to the engine as is.
        blocks = [e.mat for e in live]
        try:
            outs = simulate_rows_grouped(self.store.load(name), blocks)
        except Exception as exc:
            self._fail_batch(live, name, exc)
            return
        n_rows = sum(b.shape[0] for b in blocks)
        self.metrics.batches_total.inc()
        self.metrics.rows_served_total.inc(n_rows)
        self.metrics.batch_rows.observe(n_rows)
        self.max_coalesced = max(self.max_coalesced, len(live))
        for entry, out in zip(live, outs, strict=True):
            if not entry.future.done():
                entry.future.set_result(out)

    def _fail_batch(
        self, live: list[_Pending], name: str, exc: BaseException
    ) -> None:
        """Answer every waiting caller with a *server-side* error.

        The engine failing mid-flush is never any caller's fault —
        wrap it as :class:`ExecutionError` so the HTTP layer reports
        500, not a misleading per-request 400.
        """
        self.metrics.execution_errors_total.inc()
        wrapped = ExecutionError(
            f"engine pass for model {name!r} failed: "
            f"{type(exc).__name__}: {exc}"
        )
        wrapped.__cause__ = exc if isinstance(exc, Exception) else None
        for entry in live:
            if not entry.future.done():
                entry.future.set_exception(wrapped)

    def flush_all(self) -> None:
        """Flush every pending queue now (shutdown hook)."""
        for name in list(self._queues):
            self._flush(name)

    def stats(self) -> dict[str, Any]:
        m = self.metrics
        return {
            "requests": self.requests,
            "batches": int(m.batches_total.total),
            "rows_served": int(m.rows_served_total.total),
            "max_coalesced": self.max_coalesced,
            "rejected_saturated": int(m.rejected_total.value("saturated")),
            "execution_errors": int(m.execution_errors_total.total),
            "max_batch": self.max_batch,
            "max_queued_rows": self.max_queued_rows,
        }
