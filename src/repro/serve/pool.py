"""Process-pool execution tier for the serving layer.

The single-loop server has one structural limit: an engine pass is
CPU-bound numpy work, so while one model's batch simulates, every
other model's tick — and every connection's I/O — waits.  The
:class:`WorkerPool` moves those passes off the event loop into a pool
of worker processes, turning the loop into what it should be: pure
coordination (parse, validate, coalesce, split, respond).

Design points:

Workers own their circuits
    Compiled artifacts are immutable, so each worker keeps its own
    LRU of compiled circuits keyed by the bundle's **content digest**
    (never by model name — a run store can start serving a *different*
    circuit under the same name after a refresh, and a digest key can
    never serve the stale one).  Dispatches carry ``(digest,
    aag_text)``; on a cache hit the text is ignored, on a miss the
    worker rebuilds the circuit from the AIGER text.  A few KiB of
    redundant text per dispatch buys total freedom from worker
    affinity — any worker can serve any model at any time.

Same engine as in-process
    Outputs are bit-identical to in-process evaluation: same AIGER
    text, same engine.

The pool is deliberately *not* asyncio-aware beyond
:meth:`WorkerPool.submit` returning an :class:`asyncio.Future` via
``loop.run_in_executor`` — the microbatcher stays the only component
that knows about queues and callers.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from typing import Any

import numpy as np

#: Per-worker compiled-circuit LRU (lives in the worker process).
_WORKER_CACHE: OrderedDict[str, Any] = OrderedDict()
_WORKER_CACHE_SIZE = 32


def _init_worker(cache_size: int) -> None:
    """Worker initializer: size the LRU."""
    # Initializer-time global writes are the one sanctioned post-fork
    # mutation: they run once, before any task, identically in every
    # worker — the per-task purity REP303 protects is untouched.
    global _WORKER_CACHE_SIZE  # repro-lint: ignore[REP303]
    _WORKER_CACHE_SIZE = max(1, int(cache_size))
    _WORKER_CACHE.clear()  # repro-lint: ignore[REP303]


def _worker_compiled(digest: str, aag_text: str) -> Any:
    """This worker's compiled circuit for ``digest`` (LRU-cached)."""
    # The LRU is the worker's *point*: a pure content-digest -> compiled
    # mapping.  Entries are immutable and keyed by digest, so cache
    # state can never change an output — only how fast it arrives.
    compiled = _WORKER_CACHE.get(digest)
    if compiled is not None:
        _WORKER_CACHE.move_to_end(digest)  # repro-lint: ignore[REP303]
        return compiled
    from repro.aig.aiger import loads_aag

    compiled = loads_aag(aag_text).compiled()
    _WORKER_CACHE[digest] = compiled  # repro-lint: ignore[REP303]
    while len(_WORKER_CACHE) > _WORKER_CACHE_SIZE:
        _WORKER_CACHE.popitem(last=False)  # repro-lint: ignore[REP303]
    return compiled


def _worker_predict(
    digest: str, aag_text: str, rows: np.ndarray
) -> np.ndarray:
    """Evaluate one coalesced batch in the worker (rows pre-validated)."""
    return _worker_compiled(digest, aag_text).run(rows)


def _worker_ping() -> bool:
    """No-op used to spawn/ping workers eagerly."""
    return True


class WorkerPool:
    """A pool of engine workers with per-worker compiled-circuit LRUs.

    Parameters
    ----------
    workers:
        Worker process count (``>= 1``; ``0`` means "no pool" and is
        rejected here — callers keep the in-process path instead).
    cache_size:
        Compiled circuits each worker keeps, LRU-evicted beyond that.
    """

    def __init__(self, workers: int, cache_size: int = 32):
        if workers < 1:
            raise ValueError("WorkerPool needs workers >= 1 (0 = no pool)")
        self.workers = int(workers)
        self.cache_size = int(cache_size)
        self.dispatches = 0
        self._executor = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker,
            initargs=(cache_size,),
        )

    def warm_up(self, timeout: float | None = None) -> None:
        """Spawn every worker now instead of at the first dispatch.

        Process creation (and the ~100 ms import cost per worker) is
        better paid at server start than inside the first request's
        latency budget.  Also serves as a liveness check: a broken
        worker environment fails here, loudly, not mid-traffic.
        """
        futures = [
            self._executor.submit(_worker_ping) for _ in range(self.workers)
        ]
        for future in futures:
            future.result(timeout=timeout)

    def submit(
        self,
        digest: str,
        aag_text: str,
        rows: np.ndarray,
        loop: asyncio.AbstractEventLoop | None = None,
    ) -> asyncio.Future[np.ndarray]:
        """Dispatch one coalesced batch; resolves on the event loop."""
        if loop is None:
            loop = asyncio.get_running_loop()
        self.dispatches += 1
        return loop.run_in_executor(
            self._executor, _worker_predict, digest, aag_text, rows
        )

    def predict_sync(
        self, digest: str, aag_text: str, rows: np.ndarray
    ) -> np.ndarray:
        """Blocking dispatch (offline predict, benches, tests)."""
        self.dispatches += 1
        return self._executor.submit(
            _worker_predict, digest, aag_text, rows
        ).result()

    def stats(self) -> dict[str, object]:
        return {
            "workers": self.workers,
            "dispatches": self.dispatches,
            "worker_cache_size": self.cache_size,
        }

    def shutdown(self) -> None:
        """Stop the workers (idempotent)."""
        self._executor.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> WorkerPool:
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()
