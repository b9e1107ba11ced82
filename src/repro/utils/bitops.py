"""Packed bit-vector helpers.

The AIG simulator evaluates one node for 64 samples at a time by
storing sample values in ``numpy.uint64`` words.  These helpers convert
between sample matrices (``uint8`` with one row per sample) and the
packed word representation (one row per variable, one column per word
of 64 samples).
"""

from __future__ import annotations

import numpy as np

WORD_BITS = 64


def pack_bits(matrix: np.ndarray) -> np.ndarray:
    """Pack a ``(n_samples, n_vars)`` 0/1 matrix into uint64 words.

    Returns an array of shape ``(n_vars, n_words)`` where bit ``s % 64``
    of word ``s // 64`` of row ``v`` is the value of variable ``v`` in
    sample ``s``.  Trailing bits in the last word are zero.
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    if matrix.ndim != 2:
        raise ValueError(f"expected 2-D sample matrix, got shape {matrix.shape}")
    n_samples, n_vars = matrix.shape
    n_words = (n_samples + WORD_BITS - 1) // WORD_BITS
    padded = np.zeros((n_words * WORD_BITS, n_vars), dtype=np.uint8)
    padded[:n_samples] = matrix
    # Reshape to (n_words, 64, n_vars); bit j of a word is sample j.
    cube = padded.reshape(n_words, WORD_BITS, n_vars).astype(np.uint64)
    weights = (np.uint64(1) << np.arange(WORD_BITS, dtype=np.uint64))[None, :, None]
    packed = (cube * weights).sum(axis=1, dtype=np.uint64)
    return np.ascontiguousarray(packed.T)


def unpack_bits(packed: np.ndarray, n_samples: int) -> np.ndarray:
    """Inverse of :func:`pack_bits` -> ``(n_samples, n_vars)`` uint8."""
    packed = np.asarray(packed, dtype=np.uint64)
    if packed.ndim == 1:
        packed = packed[None, :]
    n_vars, n_words = packed.shape
    shifts = np.arange(WORD_BITS, dtype=np.uint64)
    # (n_vars, n_words, 64) -> bits
    bits = (packed[:, :, None] >> shifts[None, None, :]) & np.uint64(1)
    bits = bits.reshape(n_vars, n_words * WORD_BITS).astype(np.uint8)
    return np.ascontiguousarray(bits[:, :n_samples].T)


def popcount64(words: np.ndarray) -> np.ndarray:
    """Per-word population count of a uint64 array (numpy >= 2.0)."""
    return np.bitwise_count(np.asarray(words, dtype=np.uint64))


def bits_to_int(bits: np.ndarray) -> int:
    """Interpret a 0/1 vector as an unsigned integer, bit 0 first (LSB).

    Shared by :meth:`repro.aig.aig.AIG.truth_tables` and the two-level
    code: the vector is byte-packed in one numpy call and decoded with
    ``int.from_bytes`` instead of a per-set-bit Python loop.
    """
    bits = np.asarray(bits, dtype=np.uint8).ravel()
    if not bits.size:
        return 0
    packed = np.packbits(bits != 0, bitorder="little")
    return int.from_bytes(packed.tobytes(), byteorder="little")


def int_to_bits(value: int, width: int) -> np.ndarray:
    """Little-endian bit vector of ``value`` with ``width`` bits."""
    if value < 0:
        raise ValueError("int_to_bits expects a non-negative value")
    return np.array([(value >> i) & 1 for i in range(width)], dtype=np.uint8)


def rows_to_ints(matrix: np.ndarray) -> list[int]:
    """Convert each row of a 0/1 matrix to a Python int (LSB = column 0).

    Used by the arithmetic benchmark generators, which compute e.g.
    256-bit divisions with exact Python integers.
    """
    matrix = np.asarray(matrix, dtype=np.uint8)
    n_vars = matrix.shape[1]
    # Work in 52-bit chunks to stay within exact float range is unsafe;
    # use bytes instead: pad columns to a multiple of 8 and view as bytes.
    n_bytes = (n_vars + 7) // 8
    padded = np.zeros((matrix.shape[0], n_bytes * 8), dtype=np.uint8)
    padded[:, :n_vars] = matrix
    weights = np.array([1, 2, 4, 8, 16, 32, 64, 128], dtype=np.uint8)
    as_bytes = (padded.reshape(matrix.shape[0], n_bytes, 8) * weights).sum(
        axis=2, dtype=np.uint8
    )
    return [
        int.from_bytes(row.tobytes(), byteorder="little") for row in as_bytes
    ]
