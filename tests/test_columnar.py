"""Unit tests for repro.storage.columnar encodings.

The single-encoding builders (``rle_encode``, ``bitpack_encode``) are
the per-chunk oracle in ``build_reference``; their payloads must decode
through the library's decoders."""

import numpy as np
import pytest

from build_reference import bitpack_encode, rle_encode
from repro.storage.columnar import (
    Encoding,
    bitpack_decode,
    decode_chunk,
    encode_column,
    rle_decode,
)


class TestRle:
    def test_roundtrip(self):
        values = np.array([1, 1, 1, 2, 2, 3, 1])
        rv, rl = rle_encode(values)
        assert rv.tolist() == [1, 2, 3, 1]
        assert rl.tolist() == [3, 2, 1, 1]
        assert rle_decode(rv, rl).tolist() == values.tolist()

    def test_empty(self):
        rv, rl = rle_encode(np.array([], dtype=np.int64))
        assert len(rv) == 0 and len(rl) == 0

    def test_single_run(self):
        rv, rl = rle_encode(np.full(100, 7))
        assert len(rv) == 1 and rl[0] == 100

    def test_floats(self):
        values = np.array([0.5, 0.5, 1.5])
        rv, rl = rle_encode(values)
        assert rle_decode(rv, rl).tolist() == values.tolist()


class TestBitpack:
    def test_roundtrip_small_range(self):
        values = np.array([1000, 1001, 1003], dtype=np.int64)
        offset, packed = bitpack_encode(values)
        assert packed.dtype == np.uint8
        assert bitpack_decode(offset, packed).tolist() == values.tolist()

    def test_roundtrip_negative(self):
        values = np.array([-5, -3, -1], dtype=np.int64)
        offset, packed = bitpack_encode(values)
        assert bitpack_decode(offset, packed).tolist() == values.tolist()

    def test_wide_range_uses_wider_dtype(self):
        values = np.array([0, 2**40], dtype=np.int64)
        offset, packed = bitpack_encode(values)
        assert packed.dtype == np.uint64
        assert bitpack_decode(offset, packed).tolist() == values.tolist()

    def test_empty(self):
        offset, packed = bitpack_encode(np.array([], dtype=np.int64))
        assert bitpack_decode(offset, packed).tolist() == []

    def test_floats_rejected(self):
        with pytest.raises(TypeError):
            bitpack_encode(np.array([1.5]))


class TestEncodeColumn:
    def test_constant_column_prefers_rle(self):
        chunk = encode_column(np.full(10_000, 42, dtype=np.int64))
        assert chunk.encoding is Encoding.RLE
        assert chunk.nbytes < 100

    def test_narrow_ints_prefer_bitpack(self):
        rng = np.random.default_rng(0)
        chunk = encode_column(rng.integers(0, 100, 10_000))
        assert chunk.encoding is Encoding.BITPACK

    def test_random_floats_prefer_plain(self):
        rng = np.random.default_rng(0)
        chunk = encode_column(rng.uniform(0, 1, 1000))
        assert chunk.encoding is Encoding.PLAIN

    @pytest.mark.parametrize(
        "values",
        [
            np.arange(1000, dtype=np.int64),
            np.full(50, 3, dtype=np.int64),
            np.random.default_rng(1).uniform(-5, 5, 321),
            np.array([], dtype=np.int64),
            np.array([7], dtype=np.int64),
        ],
        ids=["sequential", "constant", "floats", "empty", "singleton"],
    )
    def test_roundtrip(self, values):
        chunk = encode_column(values)
        decoded = decode_chunk(chunk)
        assert decoded.dtype == values.dtype
        np.testing.assert_array_equal(decoded, values)

    def test_encoded_size_never_exceeds_plain(self):
        rng = np.random.default_rng(2)
        for values in (
            rng.integers(0, 5, 5000),
            rng.uniform(0, 1, 5000),
            np.sort(rng.integers(0, 50, 5000)),
        ):
            chunk = encode_column(values)
            assert chunk.nbytes <= values.nbytes
