"""The benchmark's own arithmetic: percentiles, failure accounting,
scaled timing and span self times."""

from __future__ import annotations

import json
import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import TASK, Recorder  # noqa: E402
from speed import REF_PROBE_S, SpeedClock  # noqa: E402
from stats import Tally, percentile, result_line, samples_beyond  # noqa: E402


@pytest.mark.parametrize("q", [0, 1, 25, 50, 90, 99, 100])
@pytest.mark.parametrize("n", [1, 2, 7, 100, 1001])
def test_percentile_matches_numpy_linear(q, n):
    values = np.random.default_rng(n).exponential(3.0, size=n).tolist()
    assert percentile(values, q) == pytest.approx(np.percentile(values, q))


def test_percentile_counts_failures_as_missing_the_limit():
    values = [1.0] * 98 + [math.inf] * 2
    assert percentile(values, 50) == 1.0
    assert percentile(values, 99) == math.inf


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


def test_samples_beyond_a_percentile():
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(900, 99) == 9
    assert samples_beyond(100, 50) == 50
    assert samples_beyond(1, 50) == 0


def test_scaled_time_follows_the_probe_speed():
    clock = SpeedClock()
    clock.starts = [1.0, 2.0, 3.0, 4.0]
    clock.costs = [REF_PROBE_S, REF_PROBE_S, 2 * REF_PROBE_S, 2 * REF_PROBE_S]
    # At the reference speed, wall time minus the probes' own time.
    assert clock.scaled(0.5, 2.5) == pytest.approx(2.0 - 2 * REF_PROBE_S)
    # A CPU running at half speed counts half the wall time.
    assert clock.scaled(2.5, 4.5) == pytest.approx((2.0 - 4 * REF_PROBE_S) / 2)
    # A window without a probe takes the speed of the one before it.
    assert clock.scaled(3.1, 3.3) == pytest.approx(0.1)
    assert SpeedClock().scaled(0.0, 1.0) == 1.0


def test_speed_clock_samples_while_work_runs():
    with SpeedClock() as clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            pass
    assert len(clock.costs) >= 3
    assert clock.scaled(start, time.perf_counter()) > 0


def test_tally_counts_every_operation_once():
    tally = Tally()
    tally.ok(3)
    assert tally.check(True, "unused")
    assert not tally.check(False, "wrong body")
    tally.fail("timeout", 2)
    assert (tally.attempted, tally.failed) == (7, 3)
    assert tally.reasons == {"wrong body": 1, "timeout": 2}
    assert tally.error_rate == pytest.approx(3 / 7)
    assert not tally.correct


def test_empty_tally_is_not_correct():
    tally = Tally()
    assert not tally.correct
    assert tally.error_rate == 1.0


def test_result_line_shape():
    tally = Tally()
    tally.ok(5)
    line = json.loads(result_line(tally, {"grid_s": (1.5, "s")}))
    assert line == {"correct": True, "attempted": 5, "failed": 0,
                    "metrics": {"grid_s": {"value": 1.5, "unit": "s"}}}
    tally.invalid = "the load generator fell behind"
    invalid = json.loads(result_line(tally, {}))
    assert (invalid["correct"], invalid["failed"]) == (False, 0)
    empty = json.loads(result_line(Tally(), {}))
    assert (empty["correct"], empty["attempted"], empty["failed"]) == (
        False, 1, 1)


def test_every_per_layer_metric_names_what_it_should_move():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layers = json.loads((HERE / "layers.json").read_text())
    assert [m["name"] for m in bench["per_layer"]] == list(layers)


def test_layer_self_times_partition_each_task():
    rec = Recorder()

    def leaf(n):
        return sum(range(n))

    leaf = rec.wrap("leaf", leaf)
    middle = rec.wrap("middle", lambda n: leaf(n) + leaf(n))

    class Spec:
        key = "b000:flow:s0"

    task = rec.wrap(TASK, lambda spec: middle(200_000) + leaf(100_000))
    task(Spec())
    wall, layers, harness = rec.tasks[0]
    assert harness == 0.0
    assert layers + rec.layers[TASK].self_s == pytest.approx(wall)
    assert rec.layers["leaf"].calls == 3
    assert rec.layers["middle"].self_s < rec.layers["middle"].total_s
    assert rec.reconcile()[1] == pytest.approx(rec.layers[TASK].self_s / wall)
    names = [span[0] for span in rec.spans]
    assert names == [TASK, "middle", "leaf", "leaf", "leaf"]
    assert rec.spans[1][3] == 0 and rec.spans[2][3] == 1  # parents
