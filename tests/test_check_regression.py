"""The paired perfbench gate's verdicts, on synthetic result lines.

No workload runs here: ``compare`` is pure, and the worktree handling
is checked with the gate itself stubbed out.
"""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "check_regression", ROOT / "benchmarks" / "check_regression.py")
check_regression = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_regression)

GRID_S = {"name": "grid_s", "unit": "s", "better": "lower", "bound": 0.25}
ACCURACY = {"name": "mean_test_accuracy", "unit": "frac", "better": "higher",
            "bound": 0.01}


def _line(correct=True, attempted=30, failed=0, **metrics):
    """One run's last stdout line, as perfbench/run.py prints it."""
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": "-"} for k, v in metrics.items()},
    })


def _runs(metric, values, **fields):
    return [check_regression.parse_result(f"log line\n{_line(**fields, **{metric: v})}\n")
            for v in values]


def _tight(center):
    """Ten values within +-1% of ``center``."""
    return [center * (1 + d) for d in (-0.01, -0.005, 0, 0.005, 0.01) * 2]


def _verdict(metric, base, head):
    rows, problems = check_regression.compare(
        [metric], _runs(metric["name"], base), _runs(metric["name"], head))
    (row,) = rows
    return row["verdict"], problems


def test_thirty_percent_slower_with_tight_spread_fails():
    verdict, problems = _verdict(GRID_S, _tight(10.0), _tight(13.0))
    assert verdict == "WORSE"
    assert len(problems) == 1 and "grid_s" in problems[0]


def test_twenty_percent_slower_passes_a_25_percent_bound():
    assert _verdict(GRID_S, _tight(10.0), _tight(12.0)) == ("ok", [])


def test_faster_head_passes():
    assert _verdict(GRID_S, _tight(10.0), _tight(5.0)) == ("ok", [])


def test_accuracy_drop_beyond_its_bound_fails():
    verdict, problems = _verdict(ACCURACY, [0.80] * 10, [0.784] * 10)
    assert verdict == "WORSE" and "mean_test_accuracy" in problems[0]
    # Higher is better: a rise is not a regression.
    assert _verdict(ACCURACY, [0.80] * 10, [0.85] * 10) == ("ok", [])


def test_wide_base_spread_is_unresolved_not_failed():
    base = [6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0]
    assert _verdict(GRID_S, base, [v * 1.4 for v in base]) == ("unresolved", [])


def test_zero_base_counts_only_a_real_change():
    assert _verdict(GRID_S, [0.0] * 10, [0.0] * 10) == ("ok", [])
    verdict, _ = _verdict(GRID_S, [0.0] * 10, [1.0] * 10)
    assert verdict == "WORSE"


def test_an_incorrect_run_fails():
    base = _runs("grid_s", _tight(10.0))
    head = _runs("grid_s", _tight(10.0))
    head[3] = check_regression.parse_result(
        _line(correct=False, attempted=30, failed=0, grid_s=10.0))
    _, problems = check_regression.compare([GRID_S], base, head)
    assert problems == ["1 of 10 head runs not correct"]


def test_a_crashed_run_counts_as_a_failure():
    result = check_regression.parse_result("Traceback (most recent call last):\n")
    assert not result["correct"] and result["failed"] == 1


def test_a_larger_failed_share_on_the_head_fails():
    base = _runs("grid_s", _tight(10.0), correct=False, failed=1)
    head = _runs("grid_s", _tight(10.0), correct=False, failed=2)
    _, problems = check_regression.compare([GRID_S], base, head)
    assert any("head fails 6.67% of operations, base 3.33%" in p for p in problems)
    _, problems = check_regression.compare([GRID_S], head, base)
    assert not any("head fails" in p for p in problems)


def test_metrics_a_workload_does_not_report_are_skipped():
    rows, problems = check_regression.compare(
        [GRID_S, ACCURACY], _runs("grid_s", _tight(10.0)),
        _runs("grid_s", _tight(10.0)))
    assert [row["metric"] for row in rows] == ["grid_s"] and problems == []


def test_quartiles_come_from_perfbench_stats():
    import stats

    assert Path(stats.__file__).resolve() == ROOT / "perfbench" / "stats.py"
    assert check_regression.percentile is stats.percentile
    assert check_regression.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_base_is_the_only_input(capsys):
    for argv in ([], ["--base", "HEAD", "--update"],
                 ["--results", "bench.json"]):
        with pytest.raises(SystemExit) as exc:
            check_regression.main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


def _git(*args):
    return subprocess.run(["git", "-C", str(ROOT), *args],
                          capture_output=True, text=True)


@pytest.mark.skipif(_git("rev-parse", "HEAD").returncode != 0,
                    reason="needs a git checkout with a commit")
def test_worktree_is_removed_when_the_gate_fails(monkeypatch, capsys):
    before = _git("worktree", "list", "--porcelain").stdout
    seen = []

    def broken_gate(base_tree):
        seen.append((base_tree / "perfbench" / "run.py").is_file())
        raise RuntimeError("run failed")

    monkeypatch.setattr(check_regression, "gate", broken_gate)
    with pytest.raises(RuntimeError):
        check_regression.main(["--base", "HEAD"])
    assert seen == [True]
    assert _git("worktree", "list", "--porcelain").stdout == before

    with pytest.raises(SystemExit) as exc:
        check_regression.main(["--base", "no-such-ref-anywhere"])
    assert exc.value.code == 2
    assert "cannot check out" in capsys.readouterr().err
    assert _git("worktree", "list", "--porcelain").stdout == before


def test_both_trees_are_byte_compiled_before_the_first_run(monkeypatch, tmp_path):
    events = []

    def fake_run(command, cwd=None, **kwargs):
        events.append(("compile", Path(cwd), command[1:]))

    def fake_run_once(tree, command, workload):
        events.append(("run", tree, workload))
        return check_regression.parse_result(_line(grid_s=1.0))

    monkeypatch.setattr(check_regression.subprocess, "run", fake_run)
    monkeypatch.setattr(check_regression, "run_once", fake_run_once)
    assert check_regression.gate(tmp_path) == 0
    compile_args = ["-m", "compileall", "-q", "src", "perfbench"]
    assert events[:2] == [("compile", tmp_path, compile_args),
                          ("compile", ROOT, compile_args)]
    assert all(kind == "run" for kind, *_ in events[2:])


def test_precompile_writes_bytecode_even_when_writing_is_off(monkeypatch, tmp_path):
    import sys

    for package in ("src", "perfbench"):
        (tmp_path / package).mkdir()
        (tmp_path / package / "mod.py").write_text("X = 1\n")
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    check_regression.precompile(sys.executable, [tmp_path])
    for package in ("src", "perfbench"):
        assert list((tmp_path / package / "__pycache__").glob("mod.*.pyc"))
