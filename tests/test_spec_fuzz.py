"""Fuzz tests for the text a user hands the contest side.

Problem spec strings, flow spec strings, ``@manifest`` files and
``.aag`` circuits all arrive from the command line or from disk.  For
any input each reader must either return a value or fail with the
error the CLI reports: ``KeyError`` (unknown name), ``ValueError``
(malformed text) or, for selectors, ``IndexError`` (a suite index out
of range, ``ProblemRegistry.by_index``'s error).  Anything else would
escape as a traceback.  Hypothesis drives each reader with a bounded
number of examples, and ``@example`` pins the awkward cases by hand.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.aig.aiger import loads_aag
from repro.contest import DEFAULT_REGISTRY
from repro.contest.registry import canonical_spec_string, parse_spec_string
from repro.flows.registry import REGISTRY
from repro.runner.task import resolve_flow

SPEC_ERRORS = (KeyError, ValueError)
SELECT_ERRORS = (KeyError, ValueError, IndexError)

_params = sorted({
    key for family in DEFAULT_REGISTRY.families.values()
    for key in family.params
} | {"effort", "flows", "index", "name", "category"})
_names = (sorted(DEFAULT_REGISTRY.families) + REGISTRY.names()
          + ["ex00", "ex74", "ex99", ""])
_values = st.one_of(
    st.integers(-3, 300).map(str),
    st.sampled_from(["", "full", "small", "team01+team10", "ex74",
                     "a+", "1e3", "0x10", " 7 "]),
    st.text(max_size=6),
)
_parts = st.one_of(
    st.tuples(st.sampled_from(_params), _values).map("=".join),
    st.text(max_size=8),
)
#: Mostly grammar-shaped ``name:key=value,...`` strings, plus noise.
spec_texts = st.one_of(
    st.builds(
        lambda name, parts, pad: pad + name + (
            ":" + ",".join(parts) if parts else "") + pad,
        st.sampled_from(_names), st.lists(_parts, max_size=4),
        st.sampled_from(["", " "]),
    ),
    st.text(max_size=30),
)


@settings(max_examples=300, deadline=None)
@given(text=spec_texts)
@example(text="adder:width=8,width=9")
@example(text="adder: width = 8 ")
@example(text="adder:width=8,")
@example(text=":width=8")
@example(text="adder:=8")
@example(text="cone:inputs=0")
@example(text="adder:width=-1")
@example(text="perturbed:base=perturbed:base=ex74")
@example(text="adder:width=4,name=ex74")
@example(text="adder:width=4,index=3")
def test_problem_spec_strings(text):
    try:
        spec = DEFAULT_REGISTRY.get(text)
    except SPEC_ERRORS:
        return
    assert spec.n_inputs >= 1
    if spec.index is None:  # a generated spec is named by its params
        assert spec.name == canonical_spec_string(
            spec.family, spec.params_dict)


@settings(max_examples=300, deadline=None)
@given(text=spec_texts)
@example(text="team01:effort=full,effort=small")
@example(text="team01: effort = full")
@example(text="portfolio:flows=")
@example(text="portfolio:flows=team01++team10")
@example(text="portfolio:flows=portfolio")
def test_flow_spec_strings(text):
    try:
        flow = REGISTRY.resolve(text)
    except SPEC_ERRORS:
        return
    assert callable(flow)


@settings(max_examples=300, deadline=None)
@given(text=spec_texts)
def test_parse_spec_string(text):
    try:
        name, overrides = parse_spec_string(text)
    except ValueError:
        return
    assert name and name == name.strip()
    assert all(key and key == key.strip() for key in overrides)


@pytest.fixture(scope="module")
def manifest_path(tmp_path_factory):
    return tmp_path_factory.mktemp("manifests") / "suite.txt"


@settings(max_examples=200, deadline=None)
@given(lines=st.lists(st.one_of(
    spec_texts,
    st.integers(-5, 150).map(str),
    st.sampled_from(["# comment", "ex7?", "adder*", "arithmetic",
                     "ex74, ex75", "zz*", "@", "@missing.txt"]),
), max_size=6))
@example(lines=["150"])
@example(lines=["-1"])
@example(lines=["ex74 # trailing comment", "  ", "#"])
@example(lines=["adder:width=8,width=9"])
@example(lines=["a\x00b", "@a\x00b"])
def test_manifest_files(manifest_path, lines):
    manifest_path.write_text("\n".join(lines), encoding="utf-8")
    try:
        specs = DEFAULT_REGISTRY.select([f"@{manifest_path}"])
    except SELECT_ERRORS:
        return
    assert len({spec.name for spec in specs}) == len(specs)


def test_manifest_that_includes_itself_is_rejected(tmp_path):
    first, second = tmp_path / "a.txt", tmp_path / "b.txt"
    first.write_text(f"ex74\n@{first}\n")
    with pytest.raises(ValueError, match="includes itself"):
        DEFAULT_REGISTRY.select([f"@{first}"])
    first.write_text(f"ex74\n@{second}\n")
    second.write_text(f"ex75, @{first}\n")
    with pytest.raises(ValueError, match="includes itself"):
        DEFAULT_REGISTRY.select([f"@{first}"])
    # The same file twice in one selection is no cycle.
    second.write_text("ex75\n")
    assert [s.name for s in DEFAULT_REGISTRY.select(
        [f"@{second}", f"@{second}"])] == ["ex75"]


@pytest.mark.parametrize(
    "name", ["no_such_module:flow", "repro:no_such_flow",
             "repro.flows:team01.nope", ".relative:flow"])
def test_unimportable_flow_path_is_a_key_error(name):
    """``module:qualname`` paths that do not import are unknown flows,
    which the CLI reports, not a traceback."""
    with pytest.raises(KeyError, match="unknown flow"):
        resolve_flow(name)


_small = st.integers(0, 12).map(str)
_aag_lines = st.lists(
    st.one_of(
        st.lists(_small, min_size=1, max_size=3).map(" ".join),
        st.sampled_from(["", "c", "i0 x", "o0 y", "-1", "+2", "1_0",
                         "3 3 3 3", "99999999999999999999"]),
        st.text(max_size=8),
    ),
    max_size=10,
)
aag_texts = st.one_of(
    st.builds(
        lambda header, body: "\n".join(["aag " + " ".join(header), *body]),
        st.lists(_small, min_size=0, max_size=6), _aag_lines,
    ),
    st.text(max_size=60),
)


@settings(max_examples=300, deadline=None)
@given(text=aag_texts)
@example(text="aag 3 2 0 1 1\n2\n4\n6\n6 2 4\n")
@example(text="aag 3 2 0 1 1\n2\n4\n6\n6 6 4\n")  # self-referencing AND
@example(text="aag 1 1 1 0 0\n2\n4 2\n")  # a latch
@example(text="aag 0 0 0 1 0\n1\n")  # constant-true output
@example(text="aag 2 1 0 1 0\n2\n2 3\n")  # an output line with 2 fields
@example(text="aag 1 1 0 1 0\n+2\n2\n")  # int() syntax, not AIGER
def test_loads_aag(text):
    try:
        aig = loads_aag(text)
    except ValueError:
        return
    header = next(ln for ln in text.splitlines()
                  if ln and not ln.startswith("c"))
    assert all(f.isascii() and f.isdigit() for f in header.split()[1:6])
    assert aig.num_outputs == int(header.split()[4])
