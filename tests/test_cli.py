"""CLI coverage: list / run / contest / report plus validation errors."""

import pytest

from repro.cli import main


def _run(argv):
    main(argv)


def _table3(out):
    """The Table III block of a ``contest`` or ``report`` printout."""
    lines = out.splitlines()
    start = next(i for i, ln in enumerate(lines) if "test acc" in ln)
    end = lines.index("", start)
    return lines[start:end]


class TestList:
    def test_lists_all_benchmarks(self, capsys):
        _run(["list"])
        out = capsys.readouterr().out
        lines = [ln for ln in out.splitlines() if ln.strip()]
        assert len(lines) == 100
        assert lines[0].startswith("ex00")
        assert "comparator" in out

    def test_list_with_glob_pattern(self, capsys):
        _run(["list", "adder*"])
        lines = [ln for ln in capsys.readouterr().out.splitlines()
                 if ln.strip()]
        assert len(lines) == 10
        assert all("adder" in ln for ln in lines)

    def test_list_family_spec_string(self, capsys):
        _run(["list", "adder:width=48"])
        out = capsys.readouterr().out
        assert "adder:bit=48,width=48" in out
        assert "96 inputs" in out

    def test_list_families(self, capsys):
        _run(["list", "--families"])
        out = capsys.readouterr().out
        assert "adder" in out and "perturbed" in out
        assert "width=<required>" in out

    def test_list_near_match_suggestion(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["list", "ex9a"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "did you mean" in err and "ex9" in err


class TestRun:
    def test_run_single_flow(self, capsys, tmp_path):
        out_path = tmp_path / "sol.aag"
        _run(["run", "--benchmark", "74", "--flow", "team10",
              "--samples", "32", "--out", str(out_path)])
        out = capsys.readouterr().out
        assert "benchmark: ex74" in out
        assert "test acc:" in out
        assert out_path.exists()
        assert out_path.read_text().startswith("aag ")

    def test_bad_benchmark_index(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["run", "--benchmark", "200", "--flow", "team10"])
        assert exc.value.code == 2
        assert "out of range" in capsys.readouterr().err

    def test_negative_benchmark_index(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["run", "--benchmark", "-1", "--flow", "team10"])
        assert exc.value.code == 2

    def test_unknown_flow(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["run", "--benchmark", "0", "--flow", "team99"])
        assert exc.value.code == 2
        assert "unknown flow" in capsys.readouterr().err

    def test_run_with_effort_spec_string(self, capsys):
        _run(["run", "--benchmark", "74", "--flow", "team10:effort=full",
              "--samples", "32"])
        out = capsys.readouterr().out
        assert "benchmark: ex74" in out
        assert "method:    team10:" in out

    def test_run_portfolio_with_member_subset(self, capsys):
        _run(["run", "--benchmark", "74",
              "--flow", "portfolio:flows=team07+team10",
              "--samples", "32"])
        out = capsys.readouterr().out
        assert "method:    portfolio:" in out

    def test_bad_spec_override(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["run", "--benchmark", "0", "--flow",
                  "team10:bogus=1"])
        assert exc.value.code == 2
        assert "override" in capsys.readouterr().err


class TestFlowsSubcommand:
    def test_lists_registry_with_metadata(self, capsys):
        _run(["flows"])
        out = capsys.readouterr().out
        assert "team01" in out and "portfolio" in out
        assert "stages:" in out
        assert "techniques:" in out
        assert "efforts: full, small" in out

    def test_check_resolves_spec(self, capsys):
        _run(["flows", "--check", "team01:effort=full"])
        out = capsys.readouterr().out
        assert "team01" in out and "full" in out

    def test_check_rejects_bad_effort(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["flows", "--check", "team01:effort=huge"])
        assert exc.value.code == 2
        assert "no effort" in capsys.readouterr().err


class TestContestAndReport:
    def test_contest_writes_store_and_report_reads_it(self, capsys,
                                                      tmp_path):
        out_dir = tmp_path / "run"
        _run(["contest", "--benchmarks", "74", "--flows", "team10",
              "--samples", "32", "--out-dir", str(out_dir)])
        contest_out = capsys.readouterr().out
        assert "test acc" in contest_out
        assert (out_dir / "records.jsonl").exists()
        assert (out_dir / "manifest.json").exists()

        _run(["report", "--out-dir", str(out_dir)])
        report_out = capsys.readouterr().out
        assert "1 teams, 1 stored scores" in report_out
        assert "team10" in report_out
        assert "top1pct" in report_out
        # The report's Table III row matches the contest's.
        contest_row = [ln for ln in contest_out.splitlines()
                       if ln.strip().startswith("team10")][-1]
        assert contest_row in report_out

    def test_report_prints_the_contest_table(self, capsys, tmp_path):
        out_dir = str(tmp_path / "run")
        _run(["contest", "--benchmarks", "74", "30", "50",
              "--flows", "team10", "team02", "--samples", "32",
              "--out-dir", out_dir])
        contest_table = _table3(capsys.readouterr().out)
        _run(["report", "--out-dir", out_dir])
        assert _table3(capsys.readouterr().out) == contest_table
        assert len(contest_table) == 3

    def test_contest_extends_a_run_with_a_family_spec(self, capsys,
                                                       tmp_path):
        """A suite index, then a family spec, into one run directory."""
        out_dir = str(tmp_path / "run")
        for bench in ("74", "parity:inputs=12"):
            _run(["contest", "--benchmarks", bench, "--flows", "team10",
                  "--samples", "32", "--out-dir", out_dir])
        capsys.readouterr()
        _run(["report", "--out-dir", out_dir])
        assert "1 teams, 2 stored scores" in capsys.readouterr().out

    def test_contest_resume_reports_skip(self, capsys, tmp_path):
        out_dir = tmp_path / "run"
        argv = ["contest", "--benchmarks", "74", "--flows", "team10",
                "--samples", "32", "--out-dir", str(out_dir)]
        _run(argv)
        capsys.readouterr()
        _run(argv)
        assert "resume: 1 of 1" in capsys.readouterr().out

    def test_contest_parallel_jobs(self, capsys, tmp_path):
        _run(["contest", "--benchmarks", "74", "--flows", "team10",
              "--samples", "32", "--jobs", "2",
              "--out-dir", str(tmp_path / "r")])
        assert "team10" in capsys.readouterr().out

    def test_contest_bad_benchmark(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["contest", "--benchmarks", "0", "101",
                  "--flows", "team10"])
        assert exc.value.code == 2
        assert "out of range" in capsys.readouterr().err

    def test_contest_unknown_flow(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["contest", "--benchmarks", "0", "--flows", "teamXX"])
        assert exc.value.code == 2

    def test_contest_defaults_to_the_ten_team_flows(self, monkeypatch):
        # The parser leaves --flows unset; the command fills it in.
        import repro.runner

        seen = []

        def stop(benchmarks, flows, **kwargs):
            seen.append(flows)
            raise ValueError("stop before running")

        monkeypatch.setattr(repro.runner, "contest_tasks", stop)
        with pytest.raises(SystemExit):
            _run(["contest", "--benchmarks", "74"])
        assert seen == [[f"team{i:02d}" for i in range(1, 11)]]

    def test_unimportable_flow_path_is_a_usage_error(self, capsys):
        for argv in (["contest", "--benchmarks", "0", "--flows",
                      "no_such_module:flow"],
                     ["run", "--benchmark", "0", "--flow",
                      "no_such_module:flow"]):
            with pytest.raises(SystemExit) as exc:
                _run(argv)
            assert exc.value.code == 2
            assert "unknown flow" in capsys.readouterr().err

    def test_contest_accepts_portfolio_flow(self, capsys):
        _run(["contest", "--benchmarks", "74", "--flows",
              "portfolio:flows=team07+team10", "--samples", "32"])
        out = capsys.readouterr().out
        assert "portfolio" in out

    def test_report_missing_directory(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            _run(["report", "--out-dir", str(tmp_path / "nope")])
        assert exc.value.code == 2
        assert "no records" in capsys.readouterr().err

    def test_contest_glob_and_spec_string_benchmarks(self, capsys,
                                                     tmp_path):
        _run(["contest", "--benchmarks", "ex74", "parity:inputs=10",
              "--flows", "team10", "--samples", "32",
              "--out-dir", str(tmp_path / "r")])
        out = capsys.readouterr().out
        assert "ex74" in out and "parity:inputs=10" in out
        _run(["report", "--out-dir", str(tmp_path / "r")])
        assert "2 stored scores" in capsys.readouterr().out

    def test_contest_benchmark_near_match_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["contest", "--benchmarks", "ex7a", "--flows", "team10"])
        assert exc.value.code == 2
        assert "did you mean" in capsys.readouterr().err

    def test_contest_empty_selection_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            _run(["contest", "--benchmarks", "zz*", "--flows", "team10"])
        assert exc.value.code == 2
        assert "zz*" in capsys.readouterr().err
        # An empty manifest file selects nothing and is also an error.
        empty = tmp_path / "empty.txt"
        empty.write_text("# nothing here\n")
        with pytest.raises(SystemExit) as exc:
            _run(["contest", "--benchmarks", f"@{empty}",
                  "--flows", "team10"])
        assert exc.value.code == 2
        assert "matched nothing" in capsys.readouterr().err

    @pytest.mark.parametrize("manifest", ["missing.txt", ""])
    def test_unreadable_manifest_rejected(self, capsys, tmp_path,
                                          monkeypatch, manifest):
        # A missing file and a directory ("@" alone names the cwd).
        monkeypatch.chdir(tmp_path)
        for argv in (["list", f"@{manifest}"],
                     ["contest", "--benchmarks", f"@{manifest}",
                      "--flows", "team10"]):
            with pytest.raises(SystemExit) as exc:
                _run(argv)
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert f"cannot read suite manifest {manifest!r}" in err

    def test_contest_bad_shard_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["contest", "--benchmarks", "74", "--flows", "team10",
                  "--shard", "4/4"])
        assert exc.value.code == 2
        assert "invalid shard" in capsys.readouterr().err


class TestShardAndMerge:
    def test_sharded_contest_merges_to_unsharded_bytes(self, capsys,
                                                       tmp_path):
        base = ["contest", "--benchmarks", "74", "adder:width=4",
                "--flows", "team10", "team02", "--samples", "32"]
        _run(base + ["--out-dir", str(tmp_path / "all")])
        shard_dirs = []
        for k in range(2):
            d = tmp_path / f"shard{k}"
            _run(base + ["--shard", f"{k}/2", "--out-dir", str(d)])
            shard_dirs.append(str(d))
        capsys.readouterr()
        _run(["merge", "--from", *shard_dirs,
              "--out-dir", str(tmp_path / "merged")])
        out = capsys.readouterr().out
        assert "merged 2 run directories" in out and "4 records" in out
        all_lines = sorted(
            (tmp_path / "all" / "records.jsonl").read_text().splitlines())
        merged_lines = sorted(
            (tmp_path / "merged" / "records.jsonl").read_text()
            .splitlines())
        assert merged_lines == all_lines

        # Multi-directory report merges in memory, same table.
        _run(["report", "--out-dir", *shard_dirs])
        sharded_report = capsys.readouterr().out
        _run(["report", "--out-dir", str(tmp_path / "all")])
        full_report = capsys.readouterr().out
        assert "merged from 2 run directories" in sharded_report
        assert "4 stored scores" in sharded_report
        tail = full_report[full_report.index("team"):]
        assert tail in sharded_report

    def test_merge_missing_source_rejected(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            _run(["merge", "--from", str(tmp_path / "nope"),
                  "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "no records" in capsys.readouterr().err


class TestRunSpecString:
    def test_run_generated_benchmark(self, capsys):
        _run(["run", "--benchmark", "parity:inputs=10",
              "--flow", "team10", "--samples", "32"])
        out = capsys.readouterr().out
        assert "benchmark: parity:inputs=10" in out
        assert "test acc:" in out

    def test_run_rejects_multi_match_selector(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run(["run", "--benchmark", "adder*", "--flow", "team10"])
        assert exc.value.code == 2
        assert "exactly one" in capsys.readouterr().err

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            _run([])
        assert exc.value.code == 2
