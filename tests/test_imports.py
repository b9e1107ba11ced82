"""What a fresh process loads when it imports one ``repro`` entry point.

``scipy.stats`` costs about 0.9 s and 43 MiB to import, and the only
thing the library ever used it for was one beta quantile, now
``scipy.special.betaincinv``.  The package root re-exports nothing, so
``repro.aig`` loads neither scipy nor a learner.  These tests assert
module names only, never times.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent


def modules_after_import(module: str) -> list[str]:
    """``sys.modules`` of a fresh interpreter after ``import module``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    code = f"import sys, json, {module}; print(json.dumps(sorted(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


@pytest.mark.parametrize("module", ["repro.runner", "repro.serve", "repro.cli"])
def test_entry_points_do_not_import_scipy_stats(module):
    loaded = modules_after_import(module)
    assert module in loaded
    assert "scipy.stats" not in loaded


def test_aig_loads_no_scipy_and_no_learner():
    loaded = modules_after_import("repro.aig")
    assert "repro.aig" in loaded
    assert [m for m in loaded
            if m.split(".")[0] == "scipy" or m.startswith("repro.ml")] == []


def test_cli_does_not_load_the_serving_package():
    # Only ``repro serve`` needs it; every other command starts faster
    # without it.
    loaded = modules_after_import("repro.cli")
    assert [m for m in ("repro.serve", "repro.runner", "asyncio")
            if m in loaded] == []
