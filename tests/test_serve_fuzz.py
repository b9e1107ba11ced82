"""Fuzz tests for the serving layer's outside input.

Two functions see bytes and values a client controls: the HTTP request
parser and the row validator.  For any input each must either answer
with a well-formed result or fail with the error the server turns into
a response; any other exception would escape the connection handler.
Hypothesis drives both with bounded example counts, and ``@example``
pins the awkward cases by hand.
"""

import asyncio

import numpy as np
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.serve.bundle import validate_rows
from repro.serve.http import MAX_BODY_BYTES, HttpError, _read_request

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
