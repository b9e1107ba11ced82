"""The parallel/resumable runner: determinism, store, resume.

The golden property: a task record is a pure function of its
(benchmark, flow, seed, sizes) spec.  Serial, parallel and resumed
runs must therefore produce byte-identical record lines per task and
identical reconstructed tables.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.aig.aiger import read_aag
from repro.contest.evaluate import Score
from repro.flows import REGISTRY, get_flow
from repro.runner import (
    RunStore,
    TaskSpec,
    canonical_line,
    contest_run_from_records,
    contest_tasks,
    load_contest_runs,
    merge_stores,
    parse_shard,
    run_contest_tasks,
    run_task,
    run_tasks,
    score_from_record,
    score_to_record,
    shard_of,
    shard_tasks,
)
from repro.runner.task import _json_safe, resolve_flow

# Small but non-degenerate grid: two benchmarks x two flows x two
# seeds.  ex50 is an easy control cone, ex74 is 16-parity (hard for
# trees); team10 is fast, team02 exercises rules + metadata.
GRID = dict(
    benchmarks=[50, 74],
    flow_names=["team10", "team02"],
    n_train=48, n_valid=48, n_test=48,
)


def unregistered_flow(problem, effort="small", master_seed=0):
    """A module-level flow outside the registry."""
    return get_flow("team10").run(problem, effort=effort,
                                  master_seed=master_seed)


def _grid_specs():
    return contest_tasks(trials=2, **GRID)


def _lines_by_key(store_root):
    lines = {}
    for line in (store_root / "records.jsonl").read_text().splitlines():
        if line:
            lines[json.loads(line)["key"]] = line
    return lines


class TestScoreRoundTrip:
    @pytest.mark.parametrize(
        "acc",
        [0.0, 1.0, 0.1 + 0.2, 1.0 / 3.0, 0.8149999999999998,
         float(np.float64(0.69140625)), 5e-324,
         float(np.nextafter(0.5, 0.0))],
    )
    def test_float_exact(self, acc):
        score = Score(
            benchmark="ex00", method="m", test_accuracy=acc,
            valid_accuracy=acc / 3, train_accuracy=1.0 - acc / 7,
            num_ands=17, levels=4, legal=True,
        )
        record = score_to_record(score)
        # Through the canonical serialization, not just the dict.
        revived = score_from_record(json.loads(canonical_line(record)))
        assert revived == score  # dataclass equality: exact floats

    def test_seed_round_trips_when_set(self):
        score = Score(
            benchmark="ex03", method="m", test_accuracy=0.5,
            valid_accuracy=0.5, train_accuracy=0.5,
            num_ands=1, levels=1, legal=True, seed=7,
        )
        revived = score_from_record(json.loads(
            canonical_line(score_to_record(score))))
        assert revived == score
        assert revived.seed == 7
        # Fresh evaluations carry seed=None and must not emit the key
        # (the task spec's seed owns that slot in full records).
        assert "seed" not in score_to_record(
            Score("ex00", "m", 0.5, 0.5, 0.5, 1, 1, True))

    def test_legal_flag_and_ints(self):
        score = Score(
            benchmark="ex99", method="overweight", test_accuracy=0.75,
            valid_accuracy=0.5, train_accuracy=0.25,
            num_ands=123456, levels=0, legal=False,
        )
        revived = score_from_record(json.loads(
            canonical_line(score_to_record(score))))
        assert revived == score
        assert revived.legal is False
        assert isinstance(revived.num_ands, int)

    def test_canonical_line_is_stable(self):
        record = {"b": 1.5, "a": "x", "c": [1, 2], "key": "k"}
        assert canonical_line(record) == canonical_line(dict(
            reversed(list(record.items()))))

    def test_json_safe_handles_numpy_and_objects(self):
        coerced = _json_safe({
            "f": np.float64(0.5), "i": np.int64(3),
            "arr": np.array([1, 2]), "tup": (1, "a"),
            "obj": object(), "none": None, "flag": np.True_,
        })
        assert coerced["f"] == 0.5 and coerced["i"] == 3
        assert coerced["arr"] == [1, 2] and coerced["tup"] == [1, "a"]
        assert isinstance(coerced["obj"], str)
        assert coerced["none"] is None and coerced["flag"] is True
        json.dumps(coerced)  # everything is serializable


class TestFlowResolution:
    def test_all_flows_names_resolve(self):
        for name in REGISTRY.names():
            flow = REGISTRY.get(name)
            assert resolve_flow(name) is flow

    def test_dotted_path_resolves(self):
        name = f"{__name__}:unregistered_flow"
        assert resolve_flow(name) is unregistered_flow

    def test_unknown_flow_rejected(self):
        with pytest.raises(KeyError):
            resolve_flow("team99")


class TestTaskPurity:
    def test_run_task_is_deterministic(self):
        spec = TaskSpec(benchmark=50, flow="team10", seed=1,
                        n_train=48, n_valid=48, n_test=48)
        first = run_task(spec)
        second = run_task(spec)
        assert canonical_line(first.record) == canonical_line(second.record)

    def test_bad_benchmark_index_raises(self):
        spec = TaskSpec(benchmark=100, flow="team10", seed=0,
                        n_train=8, n_valid=8, n_test=8)
        with pytest.raises(IndexError):
            run_task(spec)


class TestGoldenDeterminism:
    """jobs=1 == jobs=4 == resumed, byte for byte."""

    @pytest.fixture(scope="class")
    def stores(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("golden")
        specs = _grid_specs()
        serial = run_contest_tasks(specs, jobs=1, out_dir=root / "serial")
        parallel = run_contest_tasks(specs, jobs=4,
                                     out_dir=root / "parallel")
        # Resumed: first half with jobs=1, then the full grid at jobs=2.
        run_contest_tasks(specs[: len(specs) // 2], jobs=1,
                          out_dir=root / "resumed")
        resumed = run_contest_tasks(specs, jobs=2, out_dir=root / "resumed")
        return root, specs, serial, parallel, resumed

    def test_records_byte_identical(self, stores):
        root, specs, *_ = stores
        serial = _lines_by_key(root / "serial")
        parallel = _lines_by_key(root / "parallel")
        resumed = _lines_by_key(root / "resumed")
        assert set(serial) == {s.key for s in specs}
        assert serial == parallel
        assert serial == resumed

    def test_table3_identical(self, stores):
        _, _, serial, parallel, resumed = stores
        assert serial.table3() == parallel.table3()
        assert serial.table3() == resumed.table3()

    def test_store_reload_matches_in_memory(self, stores):
        root, _, serial, *_ = stores
        loaded = load_contest_runs([root / "serial"])
        assert loaded.table3() == serial.table3()
        assert loaded.win_rates() == serial.win_rates()

    def test_resume_skips_completed_tasks(self, stores, monkeypatch):
        root, specs, serial, *_ = stores

        def boom(spec, keep_solution=False):
            raise AssertionError(f"re-executed stored task {spec.key}")

        monkeypatch.setattr("repro.runner.runner.run_task", boom)
        again = run_contest_tasks(specs, jobs=1, out_dir=root / "serial")
        assert again.table3() == serial.table3()


class TestShardedDeterminism:
    """4 shards into 4 stores, merged == one unsharded jobs=4 store.

    The sharded grid deliberately mixes historical suite indices with
    generated-family spec strings: shard partitioning, the stores and
    the merge must all be indifferent to how a benchmark is named.
    """

    SHARDS = 4

    @pytest.fixture(scope="class")
    def sharded(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("sharded")
        specs = contest_tasks(
            [50, 74, "parity:inputs=12", "adder:width=4"],
            ["team10", "team02"], 48, 48, 48, trials=2,
        )
        run_contest_tasks(specs, jobs=4, out_dir=root / "unsharded")
        shard_dirs = []
        for k in range(self.SHARDS):
            part = shard_tasks(specs, k, self.SHARDS)
            run_contest_tasks(part, jobs=1, out_dir=root / f"shard{k}")
            shard_dirs.append(root / f"shard{k}")
        return root, specs, shard_dirs

    def test_partition_is_exact_and_deterministic(self, sharded):
        _, specs, _ = sharded
        parts = [shard_tasks(specs, k, self.SHARDS)
                 for k in range(self.SHARDS)]
        seen = [s.key for part in parts for s in part]
        assert sorted(seen) == sorted(s.key for s in specs)
        assert len(seen) == len(set(seen))  # disjoint
        # Stable under grid reordering and recomputation.
        again = shard_tasks(list(reversed(specs)), 0, self.SHARDS)
        assert {s.key for s in again} == {s.key for s in parts[0]}
        for s in specs:
            assert shard_of(s.key, self.SHARDS) == \
                shard_of(s.key, self.SHARDS)

    def test_merged_store_byte_identical_to_unsharded(self, sharded):
        root, specs, shard_dirs = sharded
        merge_stores(shard_dirs, root / "merged")
        merged = _lines_by_key(root / "merged")
        unsharded = _lines_by_key(root / "unsharded")
        assert set(merged) == {s.key for s in specs}
        assert merged == unsharded

    def test_merged_records_file_is_key_sorted(self, sharded):
        root, _, shard_dirs = sharded
        merge_stores(shard_dirs, root / "merged2")
        lines = (root / "merged2" / "records.jsonl").read_text() \
            .splitlines()
        keys = [json.loads(ln)["key"] for ln in lines if ln]
        assert keys == sorted(keys)

    def test_load_contest_runs_matches_unsharded_report(self, sharded):
        root, _, shard_dirs = sharded
        merged = load_contest_runs(shard_dirs)
        unsharded = load_contest_runs([root / "unsharded"])
        assert merged.table3() == unsharded.table3()
        assert merged.win_rates() == unsharded.win_rates()

    def test_merge_rejects_conflicting_duplicates(self, sharded, tmp_path):
        root, _, shard_dirs = sharded
        first = next(d for d in shard_dirs
                     if RunStore(d).records_path.exists()
                     and RunStore(d).load_records())
        key, record = next(iter(RunStore(first).load_records().items()))
        evil = RunStore(tmp_path / "evil")
        evil.append(dict(record, test_accuracy=0.123456))
        with pytest.raises(ValueError, match="differs"):
            merge_stores([first, evil.root], tmp_path / "out")
        with pytest.raises(ValueError, match="differs"):
            load_contest_runs([first, evil.root])

    def test_merge_config_conflict_rejected(self, tmp_path):
        run_contest_tasks(contest_tasks([74], ["team10"], 32, 32, 32),
                          out_dir=tmp_path / "a")
        run_contest_tasks(contest_tasks([50], ["team10"], 64, 64, 64),
                          out_dir=tmp_path / "b")
        with pytest.raises(ValueError, match="n_train"):
            merge_stores([tmp_path / "a", tmp_path / "b"],
                         tmp_path / "out")

    def test_merge_copies_solutions(self, tmp_path):
        specs = contest_tasks([74], ["team10"], 32, 32, 32)
        run_tasks(specs, store=RunStore(tmp_path / "src"),
                  keep_solutions=True)
        merged = merge_stores([tmp_path / "src"], tmp_path / "dst")
        assert merged.solution_text(specs[0].key) == \
            RunStore(tmp_path / "src").solution_text(specs[0].key)

    def test_parse_shard(self):
        assert parse_shard("0/4") == (0, 4)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("4/4", "-1/4", "1", "a/b", "1/0", "1/"):
            with pytest.raises(ValueError):
                parse_shard(bad)

    def test_shard_1_of_1_is_identity(self):
        specs = _grid_specs()
        assert shard_tasks(specs, 0, 1) == list(specs)


class TestStore:
    def test_manifest_conflict_rejected(self, tmp_path):
        specs = contest_tasks([74], ["team10"], 32, 32, 32)
        run_contest_tasks(specs, out_dir=tmp_path)
        bigger = contest_tasks([74], ["team10"], 64, 64, 64)
        with pytest.raises(ValueError, match="n_train"):
            run_contest_tasks(bigger, out_dir=tmp_path)

    def test_duplicate_records_last_wins(self, tmp_path):
        store = RunStore(tmp_path)
        store.append({"key": "k", "benchmark": 0, "flow": "f", "seed": 0,
                      "benchmark_name": "ex00", "method": "a",
                      "test_accuracy": 0.1, "valid_accuracy": 0.1,
                      "train_accuracy": 0.1, "num_ands": 1, "levels": 1,
                      "legal": True})
        second = dict(store.load_records()["k"], test_accuracy=0.9)
        store.append(second)
        assert store.load_records()["k"]["test_accuracy"] == 0.9

    def test_solutions_written_and_readable(self, tmp_path):
        specs = contest_tasks([74], ["team10"], 32, 32, 32)
        run_tasks(specs, store=RunStore(tmp_path), keep_solutions=True)
        path = RunStore(tmp_path).solution_path(specs[0].key)
        assert path.exists()
        aig = read_aag(path)
        record = RunStore(tmp_path).load_records()[specs[0].key]
        assert aig.num_ands == record["num_ands"]

    def test_manifest_grid_unions_on_extension(self, tmp_path):
        run_contest_tasks(contest_tasks([74], ["team10"], 32, 32, 32),
                          out_dir=tmp_path)
        run_contest_tasks(contest_tasks([50, 74], ["team10", "team02"],
                                        32, 32, 32),
                          out_dir=tmp_path)
        manifest = RunStore(tmp_path).read_manifest()
        assert manifest["benchmarks"] == [50, 74]
        assert manifest["flows"] == ["team02", "team10"]

    def test_extension_mixes_indices_and_names(self, tmp_path):
        """A suite index and a family spec in one store: the manifest
        union orders them with ``benchmark_sort_key`` (a plain sort
        raised TypeError on int < str)."""
        run_contest_tasks(contest_tasks([74], ["team10"], 32, 32, 32),
                          out_dir=tmp_path)
        run_contest_tasks(contest_tasks(["parity:inputs=12"], ["team10"],
                                        32, 32, 32),
                          out_dir=tmp_path)
        manifest = RunStore(tmp_path).read_manifest()
        assert manifest["benchmarks"] == [74, "parity:inputs=12"]
        assert len(load_contest_runs([tmp_path]).scores_by_team["team10"]) \
            == 2

    def test_contest_and_report_rebuild_the_same_run(self, tmp_path):
        """Grid order (benchmarks 74 before 50, team10 before team02)
        must not leak into the run: the contest and a later report
        rebuild it the same way."""
        specs = contest_tasks([74, 50], ["team10", "team02"], 32, 32, 32)
        run = run_contest_tasks(specs, out_dir=tmp_path)
        assert run == load_contest_runs([tmp_path])
        assert list(run.scores_by_team) == ["team02", "team10"]

    def test_schema_mismatch_rejected_on_load(self, tmp_path):
        store = RunStore(tmp_path)
        store.append({"key": "k", "schema": 999})
        with pytest.raises(ValueError, match="schema-999"):
            store.load_records()

    def test_torn_tail_is_recoverable(self, tmp_path):
        """A run killed mid-append must not brick the store."""
        specs = contest_tasks([50, 74], ["team10"], 32, 32, 32)
        run_contest_tasks(specs, out_dir=tmp_path)
        store = RunStore(tmp_path)
        intact = store.load_records()
        # Simulate SIGKILL mid-write: a truncated fragment, no newline.
        with store.records_path.open("a", encoding="utf-8") as fh:
            fh.write('{"key": "b099:team10:s0", "test_acc')
        assert store.load_records() == intact
        # Appending after the tear truncates the fragment (no merge,
        # no interior garbage) and lands the new record cleanly...
        store.append(dict(intact[specs[0].key], key="extra"))
        after = store.load_records()
        assert "extra" in after
        assert set(after) == set(intact) | {"extra"}
        # ...and a resumed contest still sees every completed task.
        again = run_contest_tasks(specs, out_dir=tmp_path)
        assert {s.key for s in specs} <= set(store.load_records())
        assert again.table3()  # reconstructs fine

    def test_failed_solution_write_leaves_task_unmarked(
            self, tmp_path, monkeypatch):
        """The record line marks a task done, so it lands after the
        circuit: a failed ``.aag`` write must leave the task to re-run,
        not stored as done without its circuit."""
        specs = contest_tasks([74], ["team10"], 32, 32, 32)
        key = specs[0].key
        write_text = Path.write_text

        def failing_write(path, *args, **kwargs):
            if path.suffix == ".aag":
                raise OSError("disk full")
            return write_text(path, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", failing_write)
            with pytest.raises(OSError, match="disk full"):
                run_contest_tasks(specs, out_dir=tmp_path,
                                  keep_solutions=True)
        store = RunStore(tmp_path)
        assert key not in store.load_records()
        run_contest_tasks(specs, out_dir=tmp_path, keep_solutions=True)
        assert key in store.load_records()
        assert store.has_solution(key)

    def test_mid_file_corruption_still_raises(self, tmp_path):
        store = RunStore(tmp_path)
        store.append({"key": "a", "schema": 1})
        store.records_path.write_text(
            "garbage not json\n" + store.records_path.read_text())
        with pytest.raises(ValueError, match="line 1"):
            store.load_records()

    def test_missing_tasks_reported(self, tmp_path):
        specs = contest_tasks([74], ["team10"], 32, 32, 32)
        run_contest_tasks(specs[:0], out_dir=tmp_path)  # just manifest
        with pytest.raises(FileNotFoundError):
            load_contest_runs([tmp_path])


class TestContestGrid:
    def test_trials_add_seeded_scores(self):
        run = run_contest_tasks(contest_tasks(
            [74], ["team10"], n_train=32, n_valid=32, n_test=32, trials=3))
        assert [s.seed for s in run.scores_by_team["team10"]] == [0, 1, 2]

    @pytest.mark.parametrize("flow", ["team99", "lam", "team01:effort"])
    def test_unknown_flow_rejected_before_any_task(self, flow):
        """Flows travel by name, so a name that resolves to nothing
        fails while the grid is built, not task by task."""
        with pytest.raises((KeyError, ValueError)):
            contest_tasks([74], ["team10", flow], 8, 8, 8)

    def test_records_name_their_flow(self):
        specs = contest_tasks([74], ["team10", "team10:effort=full"],
                              8, 8, 8)
        records = run_tasks(specs)
        assert [records[s.key]["team"] for s in specs] == \
            ["team10", "team10:effort=full"]

    def test_reconstruction_ignores_record_order(self):
        records = list(run_tasks(_grid_specs()).values())
        forward = contest_run_from_records(records)
        backward = contest_run_from_records(reversed(records))
        assert forward == backward
        assert list(forward.scores_by_team) == ["team02", "team10"]
        assert [(s.benchmark, s.seed)
                for s in forward.scores_by_team["team10"]] == \
            [("ex50", 0), ("ex50", 1), ("ex74", 0), ("ex74", 1)]

    def test_stored_display_names_still_report(self, tmp_path):
        """Stores written when a grid could name a flow for display
        keep reporting under the stored ``team``."""
        specs = contest_tasks([74], ["team10"], 8, 8, 8)
        record = dict(run_tasks(specs)[specs[0].key], team="Utah")
        RunStore(tmp_path).append(record)
        run = load_contest_runs([tmp_path])
        assert list(run.scores_by_team) == ["Utah"]
