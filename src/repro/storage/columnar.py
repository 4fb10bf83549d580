"""Lightweight columnar chunk encodings (dictionary, RLE, bit-width).

The paper stores each qd-tree leaf as a Parquet file (Sec. 7.1).  This
module provides the equivalent substrate for our engine: a self-
describing encoded representation per column chunk, so blocks persisted
by :mod:`repro.storage.blocks` behave like real columnar files —
encoded, size-accountable, and decodable column-at-a-time.

Encodings implemented:

``PLAIN``
    Raw int64/float64 buffer.
``RLE``
    Run-length encoding (values + run lengths); wins on sorted or
    low-cardinality chunks, as in Parquet's RLE pages.
``BITPACK``
    Offset + minimal-width unsigned packing for integer chunks with a
    narrow value range (dictionary codes especially).

:func:`encode_column` picks the smallest encoding, mirroring how real
writers choose per-page encodings.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "Encoding",
    "EncodedChunk",
    "encode_column",
    "encode_segments",
    "decode_chunk",
    "rle_decode",
    "bitpack_decode",
]


class Encoding(enum.Enum):
    """The chunk encodings :func:`encode_column` chooses among."""

    PLAIN = "plain"
    RLE = "rle"
    BITPACK = "bitpack"


@dataclass(frozen=True)
class EncodedChunk:
    """One encoded column chunk.

    ``payload`` is a tuple of numpy arrays whose meaning depends on the
    encoding; ``num_values`` is the decoded length and ``dtype`` the
    decoded dtype.
    """

    encoding: Encoding
    payload: Tuple[np.ndarray, ...]
    num_values: int
    dtype: np.dtype

    @property
    def nbytes(self) -> int:
        """Encoded size in bytes (what would hit storage)."""
        return sum(arr.nbytes for arr in self.payload)


# ----------------------------------------------------------------------
# Run-length encoding
# ----------------------------------------------------------------------


def rle_decode(run_values: np.ndarray, run_lengths: np.ndarray) -> np.ndarray:
    """Expand an RLE payload ``(run values, run lengths)``."""
    return np.repeat(run_values, run_lengths)


# ----------------------------------------------------------------------
# Bit-width packing (offset + minimal unsigned width)
# ----------------------------------------------------------------------

#: Bytes per packed value -> the unsigned dtype of that width.
_WIDTHS = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}


def bitpack_decode(offset: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """Expand a BITPACK payload: ``value - min`` in the narrowest
    unsigned dtype that holds the chunk's range, plus ``offset[0]``,
    the min."""
    return packed.astype(np.int64) + int(offset[0])


# ----------------------------------------------------------------------
# Chunk-level dispatch
# ----------------------------------------------------------------------


def encode_column(values: np.ndarray) -> EncodedChunk:
    """Encode a column chunk with the smallest applicable encoding."""
    return encode_segments(values, np.zeros(1, dtype=np.int64))[0]


def encode_segments(
    values: np.ndarray,
    starts: np.ndarray,
    bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> List[EncodedChunk]:
    """Encode each segment ``values[starts[i]:starts[i + 1]]`` with its
    smallest encoding, sized from counts alone (PLAIN ``n * itemsize``,
    RLE ``runs * (itemsize + 8)``, integer BITPACK ``8 + n * width``;
    the first minimum in that order wins) so only the chosen payload is
    built.  ``bounds``: the segments' (min, max), when known.  PLAIN
    payloads are views of ``values`` if every segment is PLAIN (then
    they retain no more than copies would), else copies."""
    values = np.asarray(values)
    n, item = len(values), values.dtype.itemsize
    if n == 0:
        return [EncodedChunk(Encoding.PLAIN, (values,), 0, values.dtype)]
    stops = np.append(starts[1:], n)
    counts = stops - starts
    heads = np.empty(n, dtype=bool)
    heads[0] = True
    np.not_equal(values[1:], values[:-1], out=heads[1:])
    heads[starts] = True
    runs = np.add.reduceat(heads, starts, dtype=np.int64)
    sizes = [counts * item, runs * (item + 8)]
    if np.issubdtype(values.dtype, np.integer):
        if bounds is None:
            bounds = np.minimum.reduceat(values, starts), np.maximum.reduceat(values, starts)
        lo = bounds[0].astype(np.int64)
        span = bounds[1].astype(np.uint64) - bounds[0].astype(np.uint64)
        widths = np.select([span < 2**8, span < 2**16, span < 2**32], [1, 2, 4], 8)
        sizes.append(8 + counts * widths)
    choice = np.argmin(np.stack(sizes), axis=0)
    share = not choice.any()
    chunks, encodings = [], tuple(Encoding)
    for i, (start, stop, how) in enumerate(
        zip(starts.tolist(), stops.tolist(), choice.tolist())
    ):
        seg = values[start:stop]
        if how == 0:
            payload = (seg if share else seg.copy(),)
        elif how == 1:
            at = np.flatnonzero(heads[start:stop])
            payload = (seg[at], np.diff(np.append(at, stop - start)))
        else:
            payload = (
                lo[i : i + 1].copy(),
                (seg.astype(np.int64) - lo[i]).astype(_WIDTHS[int(widths[i])]),
            )
        chunks.append(EncodedChunk(encodings[how], payload, stop - start, values.dtype))
    return chunks


def decode_chunk(chunk: EncodedChunk) -> np.ndarray:
    """Decode any :class:`EncodedChunk` back to its original array."""
    if chunk.encoding is Encoding.PLAIN:
        return chunk.payload[0]
    if chunk.encoding is Encoding.RLE:
        decoded = rle_decode(*chunk.payload)
    elif chunk.encoding is Encoding.BITPACK:
        decoded = bitpack_decode(*chunk.payload)
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown encoding {chunk.encoding}")
    return decoded.astype(chunk.dtype, copy=False)
