"""Tests for the docs checker (link integrity + CLI coverage)."""

from pathlib import Path

from repro.devtools.docscheck import (
    check_cli_coverage,
    check_links,
    cli_subcommands,
    iter_doc_files,
    main,
)


def _write(root: Path, rel: str, text: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


class TestLinks:
    def test_good_relative_link_passes(self, tmp_path):
        _write(tmp_path, "docs/other.md", "hi")
        doc = _write(tmp_path, "docs/a.md", "see [other](other.md)")
        assert check_links(doc, tmp_path) == []

    def test_broken_link_reports_path_and_line(self, tmp_path):
        doc = _write(tmp_path, "docs/a.md", "x\n[gone](missing.md)\n")
        problems = check_links(doc, tmp_path)
        assert len(problems) == 1
        assert "docs/a.md:2" in problems[0]
        assert "missing.md" in problems[0]

    def test_external_and_anchor_links_skipped(self, tmp_path):
        doc = _write(
            tmp_path,
            "docs/a.md",
            "[x](https://example.com/y) [y](#anchor) "
            "[z](mailto:a@b.c)",
        )
        assert check_links(doc, tmp_path) == []

    def test_anchor_suffix_on_real_file_passes(self, tmp_path):
        _write(tmp_path, "docs/b.md", "## Section\n")
        doc = _write(tmp_path, "docs/a.md", "[b](b.md#section)")
        assert check_links(doc, tmp_path) == []

    def test_links_escaping_the_root_are_skipped(self, tmp_path):
        # GitHub web-relative badge links point outside the checkout.
        doc = _write(
            tmp_path, "README.md", "[ci](../../actions/workflows/ci.yml)"
        )
        assert check_links(doc, tmp_path) == []


class TestCliCoverage:
    def test_all_subcommands_discovered(self):
        commands = cli_subcommands()
        assert "contest" in commands
        assert "predict" in commands
        assert "lint" in commands

    def test_missing_subcommand_reported(self, tmp_path):
        doc = _write(tmp_path, "README.md", "nothing about the CLI here")
        problems = check_cli_coverage([doc])
        assert any("repro contest" in p for p in problems)

    def test_backticked_or_spaced_mentions_count(self, tmp_path):
        mentions = " ".join(
            f"repro {command}" for command in cli_subcommands()
        )
        doc = _write(tmp_path, "README.md", mentions)
        assert check_cli_coverage([doc]) == []


class TestMain:
    def test_repo_docs_are_clean(self):
        root = Path(__file__).resolve().parent.parent
        assert main(["--root", str(root)]) == 0

    def test_iter_orders_readme_first(self, tmp_path):
        _write(tmp_path, "docs/z.md", "z")
        _write(tmp_path, "docs/a.md", "a")
        _write(tmp_path, "README.md", "r")
        names = [p.name for p in iter_doc_files(tmp_path)]
        assert names == ["README.md", "a.md", "z.md"]

    def test_missing_docs_tree_errors(self, tmp_path, capsys):
        assert main(["--root", str(tmp_path)]) == 1
        assert "no README.md" in capsys.readouterr().err
