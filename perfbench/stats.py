"""Percentiles, failure accounting and the result line.

Everything here is pure and small so the benchmark's own arithmetic can
be tested without running a workload (see ``test_perfbench_stats.py``).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Mapping, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks.

    Matches ``numpy.percentile``'s default method.  Failed operations
    enter as ``math.inf`` so they count as missing any latency limit.
    """
    if not values:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} is outside 0..100")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    if ordered[hi] == ordered[lo]:
        return ordered[lo]
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th
    percentile's rank; a tail percentile needs at least ten."""
    return n - 1 - math.floor((n - 1) * q / 100.0)


class Tally:
    """Operations attempted and failed, with a reason per failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: Counter[str] = Counter()
        #: Why the run measured nothing trustworthy (the load generator
        #: fell behind), though no operation failed.
        self.invalid: str | None = None

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        self.reasons[reason] += n

    def check(self, passed: bool, reason: str) -> bool:
        """Count one operation; a failure is recorded under ``reason``."""
        if passed:
            self.ok()
        else:
            self.fail(reason)
        return passed

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and self.invalid is None


def result_line(tally: Tally, metrics: Mapping[str, tuple[float, str]]) -> str:
    """The final stdout line: ``{"correct", "attempted", "failed",
    "metrics"}``.  An invalid run is incorrect without inventing failed
    operations."""
    return json.dumps({
        "correct": tally.correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }, sort_keys=True)
