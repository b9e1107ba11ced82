"""The determinism lint engine: rules, suppressions, CLI, ratchets.

Each rule has a fixture under ``tests/lint_fixtures/`` holding exactly
one violation; the firing tests pin both that the rule catches it and
that no *other* rule cross-fires on the same file.  The clean-tree
test is the same gate CI enforces (``repro lint src/repro
benchmarks``), run in-process.  The pyproject test pins the mypy
grandfather list so the typecheck ratchet can only move down.
"""

import json
import re
from pathlib import Path

import pytest

from repro.devtools.lint import (
    ALL_RULES,
    lint_paths,
    lint_source,
    main,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"

#: A library path: every rule applies there.
IN_LIBRARY = "src/repro/fixture.py"
#: rule id -> (fixture file, path to lint it as, or None for its own)
FIRING_FIXTURES = {
    "REP101": ("rep101_rng_global.py", None),
    "REP102": ("rep102_rng_unseeded.py", None),
    "REP201": ("rep201_json_sort_keys.py", None),
    "REP202": ("rep202_set_iteration.py", None),
    "REP301": ("rep301_wallclock_worker.py", None),
    "REP302": ("rep302_env_worker.py", None),
    "REP303": ("rep303_global_mutation.py", None),
    "REP401": ("rep401_mutable_default.py", None),
    "REP402": ("rep402_bare_except.py", None),
    # REP403 skips tests/ (pytest asserts are fine) and REP501 is
    # confined to src/repro, so these fixtures lint as library code.
    "REP403": ("rep403_runtime_assert.py", IN_LIBRARY),
    "REP501": ("rep501_module_docstring.py", IN_LIBRARY),
}


class TestRuleRegistry:
    def test_every_rule_has_a_firing_fixture(self):
        assert {r.rule_id for r in ALL_RULES} == set(FIRING_FIXTURES)

    def test_rule_count_and_metadata(self):
        assert len(ALL_RULES) >= 8
        for rule in ALL_RULES:
            assert re.fullmatch(r"REP\d{3}", rule.rule_id)
            assert rule.name and rule.description


class TestRulesFire:
    @pytest.mark.parametrize("rule_id", sorted(FIRING_FIXTURES))
    def test_fixture_fires_exactly_its_rule(self, rule_id):
        filename, lint_as = FIRING_FIXTURES[rule_id]
        path = FIXTURES / filename
        lint_as = lint_as or str(path)
        violations = lint_source(path.read_text(), lint_as)
        assert len(violations) == 1, violations
        assert violations[0].rule_id == rule_id
        assert violations[0].path == lint_as
        assert violations[0].line > 0

    def test_clean_fixture_is_clean(self):
        path = FIXTURES / "clean.py"
        assert lint_source(path.read_text(), str(path)) == []

    @pytest.mark.parametrize("lint_as,fires", [
        ("src/repro/aig/example.py", True),
        ("tests/test_example.py", False),
    ])
    def test_module_docstring_rule_is_confined_to_the_library(
        self, lint_as, fires
    ):
        source = (FIXTURES / "rep501_module_docstring.py").read_text()
        rules = [v.rule_id for v in lint_source(source, lint_as)]
        assert rules == (["REP501"] if fires else [])

    @pytest.mark.parametrize("lint_as,fires", [
        ("src/repro/aig/example.py", True),
        ("tests/test_example.py", False),
        ("benchmarks/bench_example.py", False),
    ])
    def test_runtime_assert_rule_skips_tests_and_benchmarks(
        self, lint_as, fires
    ):
        source = (FIXTURES / "rep403_runtime_assert.py").read_text()
        rules = [v.rule_id for v in lint_source(source, lint_as)]
        assert rules == (["REP403"] if fires else [])


class TestSuppression:
    def test_suppressed_fixture_round_trip(self):
        path = FIXTURES / "suppressed.py"
        source = path.read_text()
        assert lint_source(source, str(path)) == []
        unsuppressed = source.replace("  # repro-lint: ignore[REP201]", "")
        assert unsuppressed != source
        violations = lint_source(unsuppressed, str(path))
        assert [v.rule_id for v in violations] == ["REP201"]

    def test_multi_rule_suppression(self):
        source = (
            '"""Example."""\n'
            "import json\n"
            "\n"
            "\n"
            "def f(payload, flag):\n"
            "    assert flag\n"
            "    return json.dumps(payload)\n"
        )
        path = "src/repro/example.py"
        fired = {v.rule_id for v in lint_source(source, path)}
        assert fired == {"REP201", "REP403"}
        silenced = source.replace(
            "    assert flag",
            "    assert flag  # repro-lint: ignore[REP403]",
        ).replace(
            "    return json.dumps(payload)",
            "    return json.dumps(payload)"
            "  # repro-lint: ignore[REP201,REP403]",
        )
        assert lint_source(silenced, path) == []

    def test_suppression_is_per_rule(self):
        source = (
            '"""Example."""\n'
            "import json\n"
            "\n"
            "payload = json.dumps({})  # repro-lint: ignore[REP402]\n"
        )
        violations = lint_source(source, "src/repro/example.py")
        assert [v.rule_id for v in violations] == ["REP201"]


class TestCleanTree:
    def test_src_and_benchmarks_are_lint_clean(self):
        violations, n_files = lint_paths(
            [str(REPO_ROOT / "src" / "repro"), str(REPO_ROOT / "benchmarks")]
        )
        assert violations == [], "\n".join(v.as_text() for v in violations)
        assert n_files > 100


class TestCli:
    def test_json_format_is_machine_parseable(self, capsys):
        path = FIXTURES / "rep201_json_sort_keys.py"
        code = main(["--format", "json", str(path)])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["checked_files"] == 1
        assert payload["violation_count"] == 1
        (violation,) = payload["violations"]
        assert violation["rule"] == "REP201"
        assert violation["path"] == str(path)
        assert set(violation) == {"path", "line", "col", "rule", "message"}

    def test_clean_file_exits_zero(self, capsys):
        assert main([str(FIXTURES / "clean.py")]) == 0
        out = capsys.readouterr().out
        assert "0 violations" in out

    def test_missing_path_exits_two(self, capsys):
        assert main([str(FIXTURES / "does_not_exist.py")]) == 2

    def test_list_rules_covers_all(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out


class TestMypyRatchet:
    """The grandfather list may only ever shrink.

    ``pyproject.toml`` promises "never add to it"; this pins the
    promise.  tomllib is not available on every supported Python, so
    the list is extracted textually.
    """

    #: The grandfathered modules as of this test's introduction.  If
    #: you cleaned one up, delete it here too.  Never add an entry:
    #: new code is born type-checked.
    ALLOWED = frozenset({
        "repro.aig.*",
        "repro.analysis",
        "repro.bdd.*",
        "repro.cgp.*",
        "repro.cli",
        "repro.flows.*",
        "repro.ml.*",
        "repro.synth.*",
        "repro.twolevel.*",
    })

    #: Burned down and permanently out of the grandfather list.
    BURNED_DOWN = frozenset({
        "repro.utils.*",
        "repro.sim.*",
        "repro.runner.*",
        "repro.contest.*",
        "repro.serve.*",
        "repro.devtools.*",
    })

    def _grandfathered(self):
        text = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        match = re.search(
            r"\[\[tool\.mypy\.overrides\]\]\s*\nmodule = \[(?P<body>[^]]*)\]",
            text,
        )
        assert match is not None, "mypy overrides block not found"
        return frozenset(re.findall(r'"([^"]+)"', match.group("body")))

    def test_grandfather_list_never_grows(self):
        current = self._grandfathered()
        added = current - self.ALLOWED
        assert not added, (
            f"new modules grandfathered into the mypy override: "
            f"{sorted(added)} — the ratchet only turns one way; "
            f"annotate the new code instead"
        )

    def test_burned_down_packages_stay_out(self):
        current = self._grandfathered()
        regressed = current & self.BURNED_DOWN
        assert not regressed, (
            f"{sorted(regressed)} were cleaned up and must stay "
            f"type-checked"
        )
