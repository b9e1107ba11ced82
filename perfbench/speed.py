"""Timings scaled to a reference CPU speed.

On a shared host the speed of one virtual CPU swings by up to 1.5x
within seconds, as other tenants load the same physical core, and the
swings are not stolen time: the process's own CPU time swings with
them.  A contest timing would then measure the neighbours as much as
the program.

``SpeedClock`` samples the speed of the CPU the work runs on, while it
runs: every ``PERIOD`` seconds a ``SIGALRM`` handler times ``probe``, a
fixed pure-Python kernel.  A window of wall time then counts as the
time its work would have taken at the reference speed, where the probe
takes ``REF_PROBE_S``::

    scaled = (wall - probe time inside) * REF_PROBE_S * mean(1 / probe)

A change to the program moves ``wall`` and leaves the probe alone; a
slower moment of the host moves both.  The probes cost about 0.4% of
the window and their own time is taken out of it.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time
from types import TracebackType

PERIOD = 0.01
#: The probe's time at the reference speed: about its median time, in
#: the handler, on a shared 2 GHz Xeon core, so scaled seconds read
#: close to wall seconds there.
REF_PROBE_S = 37e-6


def probe() -> None:
    """Interpreter dispatch and integer arithmetic: no object the
    garbage collector tracks, so the program's heap does not change
    its time."""
    total = 0
    for k in range(600):
        total += k


class SpeedClock:
    """Samples the CPU's speed while the ``with`` block runs (main
    thread only, as every signal handler)."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.costs: list[float] = []

    def _sample(self, signum: int, frame: object) -> None:
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        probe()
        cost = time.perf_counter() - start
        if enabled:
            gc.enable()
        self.starts.append(start)
        self.costs.append(cost)

    def __enter__(self) -> SpeedClock:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, exc_type: type[BaseException] | None,
                 exc: BaseException | None,
                 tb: TracebackType | None) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, begin: float, end: float) -> float:
        """The wall time from ``begin`` to ``end`` (``perf_counter``
        readings), less the probes' own time, at the reference speed.
        A window without a probe takes the speed of the nearest one
        before it."""
        lo = bisect.bisect_left(self.starts, begin)
        hi = bisect.bisect_left(self.starts, end)
        own = sum(self.costs[lo:hi])
        costs = self.costs[lo:hi] or self.costs[max(lo - 1, 0):lo + 1][:1]
        if not costs:
            return end - begin
        speed = statistics.fmean(REF_PROBE_S / c for c in costs)
        return (end - begin - own) * speed
