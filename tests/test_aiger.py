"""AIGER file format round-trip tests."""

import pytest

from repro.aig.aig import AIG, lit_not
from repro.aig.aiger import (
    loads_aag,
    read_aag,
    read_aiger,
    write_aag,
    write_aiger,
)
from tests.conftest import random_aig


@pytest.mark.parametrize("writer,reader", [
    (write_aag, read_aag),
    (write_aiger, read_aiger),
])
class TestRoundTrip:
    def test_random_graphs(self, writer, reader, tmp_path):
        for seed in range(5):
            aig = random_aig(6, 40, seed=seed, n_outputs=3)
            path = tmp_path / f"g{seed}.aig"
            writer(aig, path)
            back = reader(path)
            assert back.n_inputs == aig.n_inputs
            assert back.num_outputs == aig.num_outputs
            assert back.truth_tables() == aig.truth_tables()

    def test_constant_outputs(self, writer, reader, tmp_path):
        aig = AIG(2)
        aig.set_output(0)
        aig.set_output(1)
        path = tmp_path / "const.aig"
        writer(aig, path)
        back = reader(path)
        assert back.truth_tables() == [0, 0b1111]

    def test_inverted_output(self, writer, reader, tmp_path):
        aig = AIG(1)
        aig.set_output(lit_not(aig.input_lit(0)))
        path = tmp_path / "inv.aig"
        writer(aig, path)
        assert reader(path).truth_tables() == [0b01]


class TestFormatDetails:
    def test_aag_header(self, tmp_path):
        aig = AIG(2)
        aig.set_output(aig.add_and(aig.input_lit(0), aig.input_lit(1)))
        path = tmp_path / "x.aag"
        write_aag(aig, path)
        header = path.read_text().splitlines()[0]
        assert header == "aag 3 2 0 1 1"

    def test_binary_smaller_than_ascii(self, tmp_path):
        aig = random_aig(8, 300, seed=3)
        a = tmp_path / "x.aag"
        b = tmp_path / "x.aig"
        write_aag(aig, a)
        write_aiger(aig, b)
        assert b.stat().st_size < a.stat().st_size

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.aag"
        path.write_text("xyz 1 1 0 1 0\n")
        with pytest.raises(ValueError):
            read_aag(path)

    def test_rejects_latches(self, tmp_path):
        path = tmp_path / "latch.aag"
        path.write_text("aag 2 1 1 1 0\n2\n4 2\n2\n")
        with pytest.raises(ValueError):
            read_aag(path)

    def test_cross_format_equivalence(self, tmp_path):
        aig = random_aig(5, 60, seed=11, n_outputs=2)
        a = tmp_path / "x.aag"
        b = tmp_path / "x.aig"
        write_aag(aig, a)
        write_aiger(aig, b)
        assert read_aag(a).truth_tables() == read_aiger(b).truth_tables()


class TestMalformedAag:
    """``loads_aag`` reads serve bundles: malformed text must raise a
    ``ValueError`` naming the problem, never a ``KeyError`` or
    ``IndexError``, and never parse into a different circuit."""

    def _rejects(self, text, match):
        with pytest.raises(ValueError, match=match):
            loads_aag(text)

    def test_empty_text(self):
        self._rejects("", "empty")

    def test_short_header(self):
        self._rejects("aag 1 1 0\n2\n", "short AIGER header")

    def test_missing_lines(self):
        self._rejects("aag 3 2 0 1 1\n2\n4\n6\n", "truncated")

    def test_odd_input_literal(self):
        self._rejects("aag 1 1 0 1 0\n3\n2\n", "input literal 3")

    def test_constant_input_literal(self):
        self._rejects("aag 1 1 0 1 0\n0\n0\n", "input literal 0")

    def test_duplicate_input_literal(self):
        self._rejects("aag 2 2 0 1 0\n2\n2\n2\n", "already defined")

    def test_odd_and_lhs(self):
        self._rejects("aag 3 2 0 1 1\n2\n4\n6\n7 2 4\n", "AND literal 7")

    def test_redefined_and_lhs(self):
        self._rejects(
            "aag 4 2 0 1 2\n2\n4\n6\n6 2 4\n6 3 5\n", "already defined"
        )

    def test_undefined_fanin_literal(self):
        self._rejects("aag 3 2 0 1 1\n2\n4\n6\n6 2 8\n", "undefined fanin")

    @pytest.mark.parametrize("field", ["+2", "1_0", "\u0662", "-2", "2.0"])
    def test_non_decimal_field(self, field):
        self._rejects(f"aag 1 1 0 1 0\n2\n{field}\n", "bad field")

    def test_undefined_output_literal(self):
        self._rejects("aag 3 2 0 1 1\n2\n4\n10\n6 2 4\n", "undefined output")
