"""Fuzz tests for the serving layer's outside input.

Three functions see bytes and values a client controls: the HTTP
request parser, the row validator and the byte-level ``/predict`` body
decoder.  For any input the first two must either answer with a
well-formed result or fail with the error the server turns into a
response; any other exception would escape the connection handler.
The decoder is checked against ``json.loads``: it may decline any
body, but a matrix it returns must be exactly what the JSON parse
holds.  Hypothesis drives all three with bounded example counts, and
``@example`` pins the awkward cases by hand.
"""

import asyncio
import json

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.serve.bundle import validate_rows
from repro.serve.http import MAX_BODY_BYTES, HttpError, _read_request, _rows_from_body

N_INPUTS = 4

scalars = st.one_of(
    st.integers(-3, 3),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.booleans(),
    st.sampled_from(["0", "1", "x", b"1", None, 1j]),
)
row_lists = st.lists(
    st.one_of(
        st.lists(scalars, max_size=6),
        st.lists(st.integers(0, 1), min_size=N_INPUTS, max_size=N_INPUTS),
    ),
    max_size=5,
)
arrays = hnp.arrays(
    dtype=st.one_of(
        hnp.boolean_dtypes(), hnp.integer_dtypes(),
        hnp.unsigned_integer_dtypes(), hnp.floating_dtypes(),
    ),
    shape=hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=5),
    elements=None,
)
binary_arrays = hnp.arrays(
    dtype=st.sampled_from([np.uint8, np.int64, np.float64, np.bool_]),
    shape=st.tuples(st.integers(0, 5), st.just(N_INPUTS)),
    elements=st.integers(0, 1),
)


@settings(max_examples=200, deadline=None)
@given(rows=st.one_of(row_lists, arrays, binary_arrays, scalars))
@example(rows=[[0, 1, 0], [1, 0, 1, 1]])  # ragged
@example(rows=[[float("nan")] * N_INPUTS])
@example(rows=[[2**70, 0, 0, 0]])  # past int64: an object array
@example(rows=[[True, False, True, True]])
@example(rows=[[256, 1, 1, 1]])  # wraps to 0 on a bare uint8 cast
@example(rows=[[-0.0, 1.0, 0.0, 1.0]])
@example(rows=[])
@example(rows=np.zeros((0, N_INPUTS), dtype=np.uint8))
def test_validate_rows_returns_the_bits_or_raises_value_error(rows):
    try:
        out = validate_rows(rows, N_INPUTS, "fuzz")
    except ValueError:
        return
    assert out.dtype == np.uint8
    assert out.ndim == 2 and out.shape[1] == N_INPUTS
    assert np.isin(out, (0, 1)).all()
    expect = np.asarray(rows)
    if expect.ndim == 1:
        expect = expect[None, :]
    assert out.shape == expect.shape
    assert (out == expect).all()


def _parse(data: bytes):
    async def run():
        reader = asyncio.StreamReader()
        reader.feed_data(data)
        reader.feed_eof()
        return await _read_request(reader)

    return asyncio.run(run())


header_lines = st.lists(
    st.one_of(
        st.binary(max_size=40),
        st.builds(
            lambda name, value: name + b": " + value + b"\r\n",
            st.sampled_from([
                b"Content-Length", b"content-length", b"Connection",
                b"Transfer-Encoding", b"Host", b"X-Other",
            ]),
            st.one_of(
                st.integers(-5, 40).map(lambda n: str(n).encode()),
                st.just(str(MAX_BODY_BYTES + 1).encode()),
                st.binary(max_size=12),
            ),
        ),
    ),
    max_size=5,
)
requests = st.builds(
    lambda line, headers, body: line + b"".join(headers) + b"\r\n" + body,
    st.one_of(
        st.sampled_from([
            b"POST /predict/ex74 HTTP/1.1\r\n", b"GET /healthz HTTP/1.0\n",
            b"GET /\r\n", b"\r\n",
        ]),
        st.binary(max_size=40),
    ),
    header_lines,
    st.binary(max_size=40),
)


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(st.binary(max_size=200), requests))
@example(data=b"")
@example(data=b"GET / HTTP/1.1\r\nContent-Length: -1\r\n\r\n")
@example(data=b"GET / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n0123456789")
@example(data=b"GET / HTTP/1.1\r\nContent-Length: \xb2\r\n\r\n")
@example(data=b"POST /p HTTP/1.1\r\nContent-Length: 9\r\n\r\nshort")
@example(data=b"GET / HTTP/1.1\r\nTransfer-Encoding: Chunked\r\n\r\n")
@example(data=b"GET\xa0/\xa0HTTP/1.1\r\n\r\n")
@example(data=b"GET / HTTP/1.1\r\nNoColonHere\r\n")
def test_read_request_parses_or_raises_http_error(data):
    try:
        request = _parse(data)
    except HttpError as exc:
        assert exc.status in (400, 413)
        return
    except asyncio.IncompleteReadError:
        return
    if request is None:
        return
    method, path, headers, body = request
    assert method == method.upper() and path
    assert all(k == k.strip().lower() for k in headers)
    assert "transfer-encoding" not in headers
    length = headers.get("content-length", "0") or "0"
    assert length.isascii() and length.isdigit()
    assert len(body) == int(length)


# ---------------------------------------------------------------------------
# The byte-level /predict body decoder against json.loads
# ---------------------------------------------------------------------------


def decoded_like_json(body: bytes) -> np.ndarray | None:
    """The decoder's answer, checked against the JSON parse.

    ``None`` is always allowed.  A matrix is allowed only when the body
    parses as an object whose one key is ``"rows"`` holding a non-empty
    2-D list of the integers 0 and 1, and must equal that list.
    """
    got = _rows_from_body(body)
    if got is None:
        return None
    pairs = json.loads(body.decode("utf-8"), object_pairs_hook=list)
    assert [key for key, _ in pairs] == ["rows"]
    want = np.asarray(pairs[0][1])
    assert want.dtype.kind == "i" and want.ndim == 2 and want.size
    assert np.isin(want, (0, 1)).all()
    assert got.dtype == np.uint8 and got.shape == want.shape
    assert (got == want).all()
    return got


matrices = hnp.arrays(
    dtype=np.uint8,
    shape=st.tuples(st.integers(1, 6), st.integers(1, 8)),
    elements=st.integers(0, 1),
)
whitespace = st.text(alphabet=" \t\n\r", min_size=1, max_size=3)


@st.composite
def serialized(draw, key_intact=True):
    """``(body, matrix)``: a 0/1 matrix through ``json.dumps`` with a
    drawn layout, plus JSON whitespace inserted at drawn offsets
    (never inside the key when ``key_intact``)."""
    rows = draw(matrices)
    text = json.dumps(
        {"rows": rows.tolist()},
        sort_keys=True,
        indent=draw(st.sampled_from([None, 0, 2, "\t"])),
        separators=draw(st.sampled_from(
            [None, (",", ":"), (", ", ": "), (" , ", " : "), (",\n", ":\t")]
        )),
    )
    key = text.index('"rows"')
    offsets = draw(st.lists(st.integers(0, len(text)), max_size=4))
    for at in sorted(offsets, reverse=True):
        if key_intact and key < at < key + len('"rows"'):
            continue
        text = text[:at] + draw(whitespace) + text[at:]
    return text.encode("ascii"), rows


MUTATION_BYTES = b'012 \t\n\r\x0b\x0c,[]{}":-.eEtrue\xef\xbb\xbf\x00'
ELEMENTS = [b"2", b"01", b"true", b"1.0", b"-0", b"0 1", b"[]", b"[0]", b'"1"']


@st.composite
def mutated(draw):
    """A serialized body with up to three edits: a byte replaced,
    inserted or deleted, or one element swapped for another token."""
    body, _ = draw(serialized(key_intact=False))
    body = bytearray(body)
    for _ in range(draw(st.integers(1, 3))):
        edit = draw(st.sampled_from(["replace", "insert", "delete", "element"]))
        digits = [i for i, byte in enumerate(body) if byte in b"01"]
        if edit == "element" and digits:
            at = draw(st.sampled_from(digits))
            body[at : at + 1] = draw(st.sampled_from(ELEMENTS))
            continue
        at = draw(st.integers(0, len(body)))
        byte = draw(st.sampled_from(MUTATION_BYTES))
        if edit == "insert" or at == len(body):
            body.insert(at, byte)
        elif edit == "replace":
            body[at] = byte
        else:
            del body[at]
    return bytes(body)


PLAIN = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)


def _dumped(framing=b"", **layout):
    body = json.dumps({"rows": PLAIN.tolist()}, sort_keys=True, **layout).encode()
    return framing + body + framing, PLAIN


@settings(max_examples=300, deadline=None)
@given(case=serialized())
@example(case=_dumped())
@example(case=_dumped(separators=(",", ":")))
@example(case=_dumped(indent=2))
@example(case=_dumped(b" \r\n\t", indent="\t"))
def test_decoder_reads_every_whitespace_layout(case):
    body, rows = case
    got = decoded_like_json(body)
    assert got is not None and np.array_equal(got, rows)


@settings(max_examples=500, deadline=None)
@given(body=st.one_of(mutated(), st.binary(max_size=40)))
@example(body=b'{"rows": [[0, 1]]}')
@example(body=b'{"rows": [[2, 0]]}')
@example(body=b'{"rows": [[01, 0]]}')
@example(body=b'{"rows": [[true, 0]]}')
@example(body=b'{"rows": [[1.0, 0]]}')
@example(body=b'{"rows": [[-0, 0]]}')
@example(body=b'{"rows": [[0, 1], [1]]}')  # ragged
@example(body=b'{"rows": [[0], [1, 0]]}')
@example(body=b'{"rows": [[]]}')
@example(body=b'{"rows": []}')
@example(body=b'{"rows": [0, 1]}')  # 1-D
@example(body=b'{"rows": [[0]], "rows": [[1]]}')
@example(body=b'{"rows": [[0]], "x": 1}')
@example(body=b'{"x": 1, "rows": [[0]]}')
@example(body=b'{"row": [[0]]}')
@example(body=b'{"ro ws": [[0]]}')
@example(body=b'{"\\u0072ows": [[0]]}')
@example(body=b'\xef\xbb\xbf{"rows": [[0]]}')  # UTF-8 BOM
@example(body=b'{"rows": [[0]]}x')
@example(body=b'{"rows": [[0]]}\x0c')  # form feed is not JSON whitespace
@example(body=b'{"rows": [[0 1]]}')
@example(body=b'{"rows": [[0, 1 0]]}')
def test_decoder_returns_none_or_the_json_parse(body):
    decoded_like_json(body)
