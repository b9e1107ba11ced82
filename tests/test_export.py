"""Contest-format PLA export (`repro.contest.export`).

Round-trip property: an exported train/valid/test triple, re-parsed
from disk, reproduces the sampled datasets exactly — same rows, same
order, same labels.
"""

import numpy as np
import pytest

from repro.contest.export import export_benchmarks, main
from repro.contest.registry import DEFAULT_REGISTRY
from repro.ml.dataset import Dataset
from repro.twolevel.pla import read_pla

SPLITS = ("train", "valid", "test")


def _problem(index, samples, seed=0):
    return DEFAULT_REGISTRY.problem(
        DEFAULT_REGISTRY.by_index(index), n_train=samples, n_valid=samples,
        n_test=samples, master_seed=seed,
    )


@pytest.mark.parametrize("index", [30, 74])
def test_export_round_trip(tmp_path, index):
    samples = 40
    written = list(export_benchmarks(tmp_path, indices=[index], samples=samples))
    name = DEFAULT_REGISTRY.by_index(index).name
    assert [p.name for p in written] == [f"{name}.{s}.pla" for s in SPLITS]

    problem = _problem(index, samples)
    for split in SPLITS:
        dataset = getattr(problem, split)
        parsed = Dataset.from_pla(read_pla(tmp_path / f"{name}.{split}.pla"))
        assert np.array_equal(parsed.X, dataset.X), f"{split} inputs differ"
        assert np.array_equal(parsed.y, dataset.y), f"{split} labels differ"


def test_export_honours_master_seed(tmp_path):
    export_benchmarks(tmp_path / "s0", indices=[30], samples=32, master_seed=0)
    export_benchmarks(tmp_path / "s7", indices=[30], samples=32, master_seed=7)
    a = (tmp_path / "s0" / "ex30.train.pla").read_text()
    b = (tmp_path / "s7" / "ex30.train.pla").read_text()
    assert a != b  # different seed, different sample draw
    parsed = Dataset.from_pla(read_pla(tmp_path / "s7" / "ex30.train.pla"))
    expected = _problem(30, 32, seed=7).train
    assert np.array_equal(parsed.X, expected.X)
    assert np.array_equal(parsed.y, expected.y)


def test_export_cli_indices_and_seed(tmp_path, capsys):
    out_dir = tmp_path / "exported"
    main([
        "--out-dir", str(out_dir), "--indices", "0", "74",
        "--samples", "24", "--seed", "5",
    ])
    names = sorted(p.name for p in out_dir.iterdir())
    assert names == sorted(
        f"ex{i:02d}.{s}.pla" for i in (0, 74) for s in SPLITS
    )
    assert "wrote 6 PLA files" in capsys.readouterr().out
    parsed = Dataset.from_pla(read_pla(out_dir / "ex74.test.pla"))
    expected = _problem(74, 24, seed=5).test
    assert np.array_equal(parsed.X, expected.X)
    assert np.array_equal(parsed.y, expected.y)


@pytest.mark.parametrize("indices", [["-1"], ["100"], ["0", "100"]])
def test_export_cli_rejects_out_of_range_indices(tmp_path, capsys, indices):
    # -1 must not wrap around to ex99, and 100 must not crash with a
    # traceback; no file is written before every index is resolved.
    out_dir = tmp_path / "exported"
    out_dir.mkdir()
    with pytest.raises(SystemExit) as exc:
        main(["--out-dir", str(out_dir), "--indices", *indices,
              "--samples", "8"])
    assert exc.value.code == 2
    assert "out of range" in capsys.readouterr().err
    assert list(out_dir.iterdir()) == []
