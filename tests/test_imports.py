"""What a fresh process loads when it imports one ``repro`` entry point.

``scipy.stats`` costs about 0.9 s and 43 MiB to import, and the only
thing the library ever used it for was one beta quantile, now
``scipy.special.betaincinv``.  The package root re-exports nothing, so
``repro.aig`` loads neither scipy nor a learner.  ``repro.runner`` and
``repro.aig`` resolve their grid and optimization exports on first
access, and the CLI imports each command's modules inside that command,
so the serving tier and the CLI's parser load none of the learner
stack.  These tests assert module names only, never times.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

#: What a contest task needs and a server or a parser never calls.
LEARNER_STACK = ("scipy", "repro.ml", "repro.contest", "repro.flows",
                 "repro.runner.runner", "repro.runner.task",
                 "repro.aig.opt")


def modules_after(statement: str) -> tuple[list[str], str]:
    """``sys.modules`` of a fresh interpreter after ``statement``, and
    what the statement printed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")])
    )
    code = (f"{statement}\n"
            "import sys, json; print(json.dumps(sorted(sys.modules)))")
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    printed, _, loaded = done.stdout.rstrip("\n").rpartition("\n")
    return json.loads(loaded), printed


def modules_after_import(module: str) -> list[str]:
    """``sys.modules`` of a fresh interpreter after ``import module``."""
    return modules_after(f"import {module}")[0]


def cli_statement(*argv: str) -> str:
    """``python -m repro.cli *argv``, run so that the interpreter stays
    up after argparse exits."""
    return ("import contextlib, runpy, sys\n"
            f"sys.argv = ['repro', *{list(argv)!r}]\n"
            "with contextlib.suppress(SystemExit):\n"
            "    runpy.run_module('repro.cli', run_name='__main__')")


@pytest.mark.parametrize("statement", [
    pytest.param("import repro.serve", id="import-serve"),
    pytest.param("import repro.cli", id="import-cli"),
    pytest.param(cli_statement("--help"), id="help"),
    pytest.param(cli_statement("lint", "--help"), id="lint-help"),
    pytest.param(cli_statement("serve", "--help"), id="serve-help"),
])
def test_serving_and_the_cli_load_no_learner_stack(statement):
    loaded, printed = modules_after(statement)
    assert [m for m in loaded if any(
        m == layer or m.startswith(f"{layer}.") for layer in LEARNER_STACK
    )] == []
    if "--help" in statement:
        assert printed.startswith("usage: repro")


@pytest.mark.parametrize("package", ["repro.runner", "repro.aig"])
def test_every_lazy_export_resolves_and_is_listed(package):
    # A fresh interpreter, so that no name is resolved before ``dir()``;
    # a name that does not resolve raises there and fails the run.
    _, printed = modules_after(
        f"import json, {package} as p\n"
        "print(json.dumps([n for n in p.__all__ if n not in dir(p)]))\n"
        "[getattr(p, n) for n in p.__all__]"
    )
    assert json.loads(printed) == []
    with pytest.raises(AttributeError):
        getattr(importlib.import_module(package), "no_such_export")


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
