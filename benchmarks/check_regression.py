#!/usr/bin/env python
"""Paired perfbench gate: this tree against a base commit.

    python benchmarks/check_regression.py --base origin/main

Checks ``--base`` out in a temporary ``git worktree``, byte-compiles
both trees, then runs every workload listed in ``BENCHMARK.json``
(``python3 perfbench/run.py --workload W``) in both trees for 10
pairs, alternating which side runs first so a slow stretch of the
host hits both sides alike.  Each
run's last stdout line is its JSON result.  Timings are only compared
between runs on the same machine in the same window, so no baseline
file is kept.

Exit 1 when any run is not ``correct``, when the head fails a larger
share of operations than the base, or when an end-to-end metric's head
median is worse than the base median by more than its relative
``bound``.  A metric whose base interquartile spread, relative to its
median, is wider than the bound is reported *unresolved*: the base
cannot tell a regression of that size from noise, so it does not fail.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from stats import percentile  # noqa: E402

PAIRS = 10


def parse_result(stdout: str) -> dict:
    """The JSON result on a run's last line; a run that printed none
    (it crashed) counts as one failed operation."""
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    return percentile(values, 25), percentile(values, 50), percentile(values, 75)


def relative(new: float, old: float) -> float:
    if old:
        return (new - old) / abs(old)
    return 0.0 if new == old else math.copysign(math.inf, new - old)


def compare(end_to_end: list[dict], base: list[dict],
            head: list[dict]) -> tuple[list[dict], list[str]]:
    """Judge one workload's paired runs.

    Returns one row per end-to-end metric the runs report, and the
    reasons the gate fails (empty when it passes).
    """
    problems = []
    for side, runs in (("base", base), ("head", head)):
        wrong = sum(not run["correct"] for run in runs)
        if wrong:
            problems.append(f"{wrong} of {len(runs)} {side} runs not correct")
    shares = [sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs)
              for runs in (base, head)]
    if shares[1] > shares[0]:
        problems.append(f"head fails {shares[1]:.2%} of operations, "
                        f"base {shares[0]:.2%}")
    rows = []
    for metric in end_to_end:
        name = metric["name"]
        if not all(name in run["metrics"] for run in base + head):
            continue
        b = quartiles([run["metrics"][name]["value"] for run in base])
        h = quartiles([run["metrics"][name]["value"] for run in head])
        change = relative(h[1], b[1])
        worse = change if metric["better"] == "lower" else -change
        if b[2] - b[0] > metric["bound"] * abs(b[1]):
            verdict = "unresolved"
        elif worse > metric["bound"]:
            verdict = "WORSE"
            problems.append(f"{name} median {h[1]:.6g} is {worse:.1%} worse "
                            f"than base {b[1]:.6g} (bound {metric['bound']:.0%})")
        else:
            verdict = "ok"
        rows.append({"metric": name, "unit": metric["unit"], "base": b,
                     "head": h, "change": change, "verdict": verdict})
    return rows, problems


def run_once(tree: Path, command: list[str], workload: str) -> dict:
    # perfbench puts its own tree's src/ first; an inherited PYTHONPATH
    # could still hand one tree's modules to the other's subprocesses.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([*command, "--workload", workload], cwd=tree,
                          env=env, capture_output=True, text=True)
    result = parse_result(proc.stdout)
    if not result["correct"]:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    return result


def fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def precompile(python: str, trees: list[Path]) -> None:
    """Byte-compile each tree's ``src`` and ``perfbench`` with the
    benchmark's interpreter.  Under ``PYTHONDONTWRITEBYTECODE=1`` a
    tree without fresh bytecode compiles every module it imports on
    every run, so its start-up metrics would measure compilation."""
    for tree in trees:
        subprocess.run([python, "-m", "compileall", "-q", "src", "perfbench"],
                       cwd=tree, check=True, capture_output=True)


def gate(base_tree: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    trees = {"base": base_tree, "head": ROOT}
    precompile(spec["command"][0], list(trees.values()))
    failed = False
    print(f"{'workload':<16}{'metric':<20}{'base median [q1, q3]':<34}"
          f"{'head median [q1, q3]':<34}{'change':>9}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        runs: dict[str, list[dict]] = {"base": [], "head": []}
        for pair in range(PAIRS):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for side in order:
                runs[side].append(run_once(trees[side], spec["command"], workload))
            print(f"# {workload} pair {pair + 1}/{PAIRS} done", file=sys.stderr)
        rows, problems = compare(spec["end_to_end"], runs["base"], runs["head"])
        for row in rows:
            print(f"{workload:<16}{row['metric']:<20}{fmt(row['base']):<34}"
                  f"{fmt(row['head']):<34}{row['change']:>+9.1%}  {row['verdict']}")
        for problem in problems:
            print(f"FAIL {workload}: {problem}")
        failed = failed or bool(problems)
    print("FAIL" if failed else f"OK: {PAIRS} pairs per workload")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, metavar="REF",
                        help="commit to compare this tree against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="perfbench-base-") as tmp:
        base_tree = Path(tmp) / "base"
        added = subprocess.run(
            ["git", "-C", str(ROOT), "worktree", "add", "--detach",
             str(base_tree), args.base],
            capture_output=True, text=True)
        if added.returncode:
            parser.error(f"cannot check out {args.base!r}: {added.stderr.strip()}")
        try:
            return gate(base_tree)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove",
                            "--force", str(base_tree)], check=False)
            # perfbench keeps its scratch under .perfbench_work/ and
            # empties it on exit; drop the directory if the gate made it.
            try:
                (ROOT / ".perfbench_work").rmdir()
            except OSError:
                pass


if __name__ == "__main__":
    sys.exit(main())
