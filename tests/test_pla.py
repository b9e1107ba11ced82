"""PLA file reading and writing."""

import numpy as np
import pytest

from repro.twolevel.cube import Cube
from repro.twolevel.pla import PLA, read_pla, write_pla


class TestSamplesRoundTrip:
    def test_roundtrip(self, rng, tmp_path):
        X = rng.integers(0, 2, size=(60, 14)).astype(np.uint8)
        y = rng.integers(0, 2, size=60).astype(np.uint8)
        path = tmp_path / "f.pla"
        write_pla(PLA.from_samples(X, y), path)
        X2, y2 = read_pla(path).to_samples()
        assert np.array_equal(X, X2)
        assert np.array_equal(y, y2)

    def test_labels_preserved(self, tmp_path):
        pla = PLA(2, 1, input_labels=["a", "b"], output_labels=["f"])
        pla.add_row(Cube.from_string("01"), "1")
        path = tmp_path / "lab.pla"
        write_pla(pla, path)
        back = read_pla(path)
        assert back.input_labels == ["a", "b"]
        assert back.output_labels == ["f"]


class TestParsing:
    def test_dont_care_rows(self, tmp_path):
        path = tmp_path / "dc.pla"
        path.write_text(
            ".i 3\n.o 1\n.p 2\n1-0 1\n-11 0\n.e\n", encoding="ascii"
        )
        pla = read_pla(path)
        assert len(pla.rows) == 2
        assert pla.rows[0][0].to_string(3) == "1-0"
        assert pla.rows[0][1] == "1"

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "c.pla"
        path.write_text(
            "# header comment\n.i 2\n.o 1\n\n11 1  # inline\n.e\n",
            encoding="ascii",
        )
        pla = read_pla(path)
        assert len(pla.rows) == 1

    def test_missing_i_directive(self, tmp_path):
        path = tmp_path / "bad.pla"
        path.write_text("11 1\n.e\n", encoding="ascii")
        with pytest.raises(ValueError):
            read_pla(path)

    @pytest.mark.parametrize("directive", [".i", ".o", ".i x", ".o 1.5"])
    def test_directive_without_integer_count(self, tmp_path, directive):
        path = tmp_path / "bad.pla"
        path.write_text(f"{directive}\n11 1\n.e\n", encoding="ascii")
        with pytest.raises(ValueError, match=r"line \d+: \.[io] needs an integer count"):
            read_pla(path)

    @pytest.mark.parametrize("label", ["-", "x", "2"])
    def test_to_samples_rejects_non_binary_output(self, tmp_path, label):
        path = tmp_path / "bad.pla"
        path.write_text(f".i 3\n.o 1\n111 {label}\n101 1\n.e\n", encoding="ascii")
        pla = read_pla(path)
        with pytest.raises(ValueError, match="is not 0 or 1"):
            pla.to_samples()

    def test_to_samples_rejects_cube_rows(self):
        pla = PLA(3, 1)
        pla.add_row(Cube.from_string("1--"), "1")
        with pytest.raises(ValueError):
            pla.to_samples()

    def test_output_mismatch_rejected(self):
        pla = PLA(2, 2)
        with pytest.raises(ValueError):
            pla.add_row(Cube.from_string("10"), "1")
