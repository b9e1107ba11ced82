"""Shared configuration for the experiment-regeneration benches.

Every bench regenerates one table or figure of the paper.  The scale
knob keeps the default run laptop-friendly:

====================  =========================  ====================
REPRO_SCALE           benchmarks                 samples / effort
====================  =========================  ====================
``tiny`` (default)    one per category (11)      300 / "small"
``small``             two per category (20)      1000 / "small"
``full``              all 100                    6400 / "full"
====================  =========================  ====================

Absolute numbers shift with scale; the *shapes* the paper reports
(who wins, the accuracy-size knee, which benchmarks saturate) hold at
every scale and are asserted by the benches.
"""

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from repro.contest.suite import default_small_indices
from repro.runner import contest_tasks, run_contest_tasks

import _report


def pytest_terminal_summary(terminalreporter):
    """Re-emit every reproduced table/figure after the run (stdout is
    captured inside tests, so this is where they show)."""
    lines = _report.drain()
    if not lines:
        return
    terminalreporter.section("reproduced tables and figures")
    for line in lines:
        terminalreporter.write_line(line)

SCALES = {
    # ex27/ex47 are *wide* multiplier/sqrt instances (128 inputs):
    # unmatchable within the node cap and unlearnable from small
    # samples — they provide the paper's Fig. 3 hard tail.
    "tiny": {
        "indices": [0, 11, 27, 30, 47, 50, 60, 74, 75, 80, 90],
        "samples": 300,
        "effort": "small",
    },
    "small": {
        "indices": default_small_indices(),
        "samples": 1000,
        "effort": "small",
    },
    "full": {
        "indices": list(range(100)),
        "samples": 6400,
        "effort": "full",
    },
}


def scale_config():
    name = os.environ.get("REPRO_SCALE", "tiny")
    if name not in SCALES:
        raise ValueError(
            f"REPRO_SCALE must be one of {sorted(SCALES)}, got {name!r}"
        )
    cfg = dict(SCALES[name])
    cfg["name"] = name
    return cfg


@pytest.fixture(scope="session")
def scale():
    return scale_config()


@pytest.fixture
def rng():
    import numpy as np

    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def contest_run(scale):
    """One shared all-flows contest run reused by Table III / Figs 2-4.

    This is the expensive part (10 flows x N benchmarks); computing it
    once per session keeps the bench suite honest and fast.
    """
    from repro.flows import TEAM_FLOW_NAMES

    return run_contest_tasks(contest_tasks(
        scale["indices"],
        list(TEAM_FLOW_NAMES),
        n_train=scale["samples"],
        n_valid=scale["samples"],
        n_test=scale["samples"],
        effort=scale["effort"],
    ))
