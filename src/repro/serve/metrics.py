"""Serving metrics: counters, gauges and histograms, Prometheus-style.

A tiny dependency-free metrics registry for the serving layer.  Three
instrument kinds cover everything ``/metrics`` exposes:

:class:`Counter`
    Monotonic totals (requests, rejections, rows served).
:class:`Gauge`
    Point-in-time values, either set directly or backed by a callback
    read at render time (queue depths, in-flight rows, cache sizes).
:class:`Histogram`
    Cumulative fixed-bucket distributions (request latency, batch
    size).  Buckets follow the Prometheus convention: each ``le``
    bucket counts observations ``<= bound``, plus an implicit
    ``+Inf`` bucket, with ``_sum`` and ``_count`` series alongside.

Everything mutates on the serving event loop (one thread), so no
instrument takes a lock; rendering from another thread only ever sees
a consistent-enough snapshot for monitoring purposes.

The exposition format is the Prometheus text format (version 0.0.4) —
scrapable by a real Prometheus, trivially parsable by tests::

    # HELP repro_serve_rows_served_total Rows answered across all models.
    # TYPE repro_serve_rows_served_total counter
    repro_serve_rows_served_total 4096
"""

from __future__ import annotations

import bisect
import math
from collections.abc import Callable, Mapping, Sequence

LabelValue = int | float
GaugeCallback = Callable[[], LabelValue | Mapping[str, LabelValue]]

#: Default latency buckets (seconds): sub-millisecond to multi-second.
LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

#: Default batch-size buckets (rows per coalesced engine pass).
BATCH_ROWS_BUCKETS: tuple[float, ...] = (
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
)


def _format_value(value: LabelValue) -> str:
    """Prometheus-style number: integers stay integral, no exponents."""
    if isinstance(value, bool):  # bool is an int subclass; be explicit
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def _format_labels(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{k}="{str(v).replace(chr(92), chr(92) * 2).replace(chr(34), chr(92) + chr(34))}"'
        for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


class Counter:
    """A monotonically increasing total, optionally split by one label."""

    kind = "counter"

    def __init__(self, name: str, help_text: str, label: str | None = None):
        self.name = name
        self.help_text = help_text
        self.label = label
        self._values: dict[str, float] = {}
        self._total: float = 0.0

    def inc(self, amount: float = 1, label_value: str | None = None) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self._total += amount
        if label_value is not None:
            self._values[label_value] = self._values.get(label_value, 0.0) + amount

    @property
    def total(self) -> float:
        return self._total

    def value(self, label_value: str) -> float:
        return self._values.get(label_value, 0.0)

    def samples(self) -> list[tuple[dict[str, str], LabelValue]]:
        if self.label is None:
            return [({}, _as_number(self._total))]
        if not self._values:
            return [({}, _as_number(self._total))] if self._total else []
        return [
            ({self.label: key}, _as_number(val))
            for key, val in sorted(self._values.items())
        ]


class Gauge:
    """A point-in-time value; static via :meth:`set` or callback-backed.

    A callback may return a scalar, or a ``{label value: number}``
    mapping when the gauge was declared with a ``label`` (e.g. one
    queue depth per model).  Callbacks are invoked at render time, so
    gauges never go stale.
    """

    kind = "gauge"

    def __init__(
        self,
        name: str,
        help_text: str,
        label: str | None = None,
        callback: GaugeCallback | None = None,
    ):
        self.name = name
        self.help_text = help_text
        self.label = label
        self._callback = callback
        self._value: LabelValue = 0

    def set(self, value: LabelValue) -> None:
        self._value = value

    def samples(self) -> list[tuple[dict[str, str], LabelValue]]:
        value: LabelValue | Mapping[str, LabelValue]
        value = self._callback() if self._callback is not None else self._value
        if isinstance(value, Mapping):
            if self.label is None:
                raise ValueError(
                    f"gauge {self.name} returned a mapping but has no label"
                )
            return [
                ({self.label: str(k)}, _as_number(v))
                for k, v in sorted(value.items())
            ]
        return [({}, _as_number(value))]


class Histogram:
    """Cumulative fixed-bucket histogram with ``_sum`` and ``_count``."""

    kind = "histogram"

    def __init__(
        self, name: str, help_text: str, buckets: Sequence[float]
    ):
        bounds = sorted(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.name = name
        self.help_text = help_text
        self.bounds: tuple[float, ...] = tuple(bounds)
        self.bucket_counts: list[int] = [0] * (len(bounds) + 1)  # +Inf last
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.sum += value

    def quantile(self, q: float) -> float:
        """Approximate quantile from the cumulative buckets.

        Returns the upper bound of the bucket holding the q-th
        observation (the last finite bound when it lands in +Inf) —
        the usual coarse-but-honest histogram estimate, good enough
        for a p99 gate.
        """
        if not 0 <= q <= 1:
            raise ValueError("quantile must be in [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        cumulative = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts, strict=False):
            cumulative += bucket
            if cumulative >= rank:
                return bound
        return self.bounds[-1]

    def samples(self) -> list[tuple[dict[str, str], LabelValue]]:
        out: list[tuple[dict[str, str], LabelValue]] = []
        cumulative = 0
        for bound, bucket in zip(self.bounds, self.bucket_counts, strict=False):
            cumulative += bucket
            out.append(({"le": _format_value(bound)}, cumulative))
        out.append(({"le": "+Inf"}, self.count))
        return out


def _as_number(value: LabelValue) -> LabelValue:
    """Collapse float-valued integers to int for clean rendering."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return value


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """Named instruments + the text exposition ``/metrics`` serves;
    every name is prefixed ``repro_serve_``."""

    def __init__(self):
        self.prefix = "repro_serve"
        self._instruments: "Dict[str, Instrument]" = {}

    def _register(self, instrument: Instrument) -> None:
        if instrument.name in self._instruments:
            raise ValueError(f"metric {instrument.name!r} already registered")
        self._instruments[instrument.name] = instrument

    def counter(
        self, name: str, help_text: str, label: str | None = None
    ) -> Counter:
        counter = Counter(f"{self.prefix}_{name}", help_text, label=label)
        self._register(counter)
        return counter

    def gauge(
        self,
        name: str,
        help_text: str,
        label: str | None = None,
        callback: GaugeCallback | None = None,
    ) -> Gauge:
        gauge = Gauge(
            f"{self.prefix}_{name}", help_text, label=label, callback=callback
        )
        self._register(gauge)
        return gauge

    def histogram(
        self, name: str, help_text: str, buckets: Sequence[float]
    ) -> Histogram:
        histogram = Histogram(f"{self.prefix}_{name}", help_text, buckets)
        self._register(histogram)
        return histogram

    def render(self) -> str:
        """The full registry in the Prometheus text format."""
        lines: list[str] = []
        for instrument in self._instruments.values():
            lines.append(f"# HELP {instrument.name} {instrument.help_text}")
            lines.append(f"# TYPE {instrument.name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                for labels, value in instrument.samples():
                    lines.append(
                        f"{instrument.name}_bucket{_format_labels(labels)} "
                        f"{_format_value(value)}"
                    )
                lines.append(
                    f"{instrument.name}_sum {_format_value(instrument.sum)}"
                )
                lines.append(f"{instrument.name}_count {instrument.count}")
            else:
                for labels, value in instrument.samples():
                    lines.append(
                        f"{instrument.name}{_format_labels(labels)} "
                        f"{_format_value(value)}"
                    )
        return "\n".join(lines) + "\n"


class ServeMetrics:
    """The serving layer's instrument bundle over one registry.

    Construction wires up every counter/histogram the hot path
    mutates; the callback gauges (queue depths, cache counters,
    uptime) are attached later by the app via :meth:`attach_gauge`,
    because they close over components built after the metrics.
    """

    def __init__(self):
        reg = MetricsRegistry()
        self.registry = reg
        self.requests_total = reg.counter(
            "http_requests_total",
            "HTTP requests handled, by endpoint.",
            label="endpoint",
        )
        self.responses_total = reg.counter(
            "http_responses_total",
            "HTTP responses sent, by status code.",
            label="status",
        )
        self.predict_latency = reg.histogram(
            "predict_latency_seconds",
            "End-to-end /predict handler latency (queue wait + engine).",
            LATENCY_BUCKETS_S,
        )
        self.batch_rows = reg.histogram(
            "batch_rows",
            "Rows per coalesced engine pass (batch-size distribution).",
            BATCH_ROWS_BUCKETS,
        )
        self.batches_total = reg.counter(
            "batches_total", "Coalesced engine passes executed."
        )
        self.rows_served_total = reg.counter(
            "rows_served_total", "Rows answered across all models."
        )
        self.rejected_total = reg.counter(
            "rejected_total",
            "Requests rejected by backpressure, by reason "
            "(saturated = queue full at admission).",
            label="reason",
        )
        self.execution_errors_total = reg.counter(
            "execution_errors_total",
            "Batches failed by an engine/compile error (each answers "
            "every coalesced caller with a 500).",
        )

    def attach_gauge(
        self,
        name: str,
        help_text: str,
        callback: GaugeCallback,
        label: str | None = None,
    ) -> Gauge:
        """Register a render-time callback gauge on the registry."""
        return self.registry.gauge(
            name, help_text, label=label, callback=callback
        )

    def render(self) -> str:
        return self.registry.render()
