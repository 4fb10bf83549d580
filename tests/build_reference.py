"""The per-block build: the reference the tests hold the leaf-ordered
builder (:func:`repro.storage.blocks.build_blocks`) to.

A layout is materialized by taking each block's rows, encoding every
column with each candidate encoding (:func:`rle_encode`,
:func:`bitpack_encode`) and keeping the smallest, computing
the block's min-max and distinct sets, and tightening the block's leaf
to the same rows.  Written here one block at a time, it is the obvious
shape of that loop.  The library does it in one leaf-ordered pass per
column instead; this loop is kept as the oracle that pass must agree
with chunk for chunk and bit for bit.
"""

from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.hypercube import Interval
from repro.core.node import NodeDescription
from repro.storage import Block, BlockStore, MinMaxIndex, Table
from repro.storage.columnar import EncodedChunk, Encoding
from repro.storage.minmax import ColumnStats

__all__ = [
    "ReferenceBlock",
    "assert_block_matches",
    "assert_stats_match",
    "bitpack_encode",
    "reference_blocks",
    "reference_chunk",
    "reference_merge",
    "reference_stats",
    "reference_tighten",
    "rle_encode",
]


class ReferenceBlock(NamedTuple):
    row_ids: Optional[np.ndarray]
    chunks: Dict[str, EncodedChunk]
    stats: Dict[str, ColumnStats]


def rle_encode(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(run_values, run_lengths)`` for a 1-D array."""
    values = np.asarray(values)
    n = len(values)
    if n == 0:
        return values[:0], np.empty(0, dtype=np.int64)
    change = np.empty(n, dtype=bool)
    change[0] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    starts = np.flatnonzero(change)
    run_values = values[starts]
    lengths = np.diff(np.append(starts, n)).astype(np.int64)
    return run_values, lengths


_WIDTH_DTYPES = (
    (8, np.uint8),
    (16, np.uint16),
    (32, np.uint32),
    (64, np.uint64),
)


def _width_dtype(max_delta: int) -> np.dtype:
    bits = max(int(max_delta).bit_length(), 1)
    for width, dtype in _WIDTH_DTYPES:
        if bits <= width:
            return np.dtype(dtype)
    return np.dtype(np.uint64)


def bitpack_encode(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Return ``(offset[1], packed)`` for an integer array: values as
    ``value - min`` in the smallest unsigned dtype wide enough for the
    range."""
    values = np.asarray(values)
    if not np.issubdtype(values.dtype, np.integer):
        raise TypeError(f"bitpack requires integers, got {values.dtype}")
    if len(values) == 0:
        return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.uint8)
    lo = int(values.min())
    hi = int(values.max())
    dtype = _width_dtype(hi - lo)
    packed = (values.astype(np.int64) - lo).astype(dtype)
    return np.array([lo], dtype=np.int64), packed


def reference_chunk(values: np.ndarray) -> EncodedChunk:
    """Build every candidate encoding and keep the smallest (the first
    on a tie, in PLAIN, RLE, BITPACK order)."""
    values = np.asarray(values)
    candidates = [
        EncodedChunk(Encoding.PLAIN, (values,), len(values), values.dtype)
    ]
    candidates.append(
        EncodedChunk(Encoding.RLE, rle_encode(values), len(values), values.dtype)
    )
    if np.issubdtype(values.dtype, np.integer):
        candidates.append(
            EncodedChunk(
                Encoding.BITPACK, bitpack_encode(values), len(values), values.dtype
            )
        )
    return min(candidates, key=lambda c: c.nbytes)


def reference_stats(
    table: Table, with_dictionaries: bool = True
) -> Dict[str, ColumnStats]:
    """Per-column min/max over the block's rows, and for categorical
    columns a ``max(|Dom|, max + 1)``-bit distinct set."""
    stats: Dict[str, ColumnStats] = {}
    for name in table.schema.column_names:
        arr = table.column(name)
        if len(arr) == 0:
            continue
        col = table.schema[name]
        distinct = None
        if col.is_categorical and with_dictionaries:
            dom = max(col.domain_size, int(arr.max()) + 1)
            distinct = np.zeros(dom, dtype=bool)
            distinct[np.unique(arr).astype(np.int64)] = True
        stats[name] = ColumnStats(float(arr.min()), float(arr.max()), distinct)
    return stats


def reference_tighten(
    description: NodeDescription, columns: Dict[str, np.ndarray]
) -> NodeDescription:
    """Sec. 3.2 tightening from the leaf's own rows: numeric intervals
    become their [min, max], categorical masks their distinct codes."""
    out = description.copy()
    if not columns or len(next(iter(columns.values()))) == 0:
        return out
    for col in description.schema.numeric_columns:
        arr = columns[col.name]
        out.hypercube = out.hypercube.with_interval(
            col.name, Interval(float(arr.min()), float(arr.max()), True, True)
        )
    for col in description.schema.categorical_columns:
        bits = np.zeros(col.domain_size, dtype=bool)
        bits[np.unique(columns[col.name].astype(np.int64))] = True
        out.categorical_masks[col.name] = bits
    return out


def _reference_block(
    rows: Table, row_ids: Optional[np.ndarray], with_dictionaries: bool
) -> ReferenceBlock:
    return ReferenceBlock(
        row_ids,
        {name: reference_chunk(arr) for name, arr in rows.columns().items()},
        reference_stats(rows, with_dictionaries),
    )


def reference_blocks(
    table: Table, block_ids: np.ndarray, with_dictionaries: bool = True
) -> Dict[int, ReferenceBlock]:
    """BID -> its block, one ``flatnonzero(ids == bid)`` mask per BID."""
    out = {}
    for bid in np.unique(block_ids).tolist():
        rows = np.flatnonzero(block_ids == bid)
        out[bid] = _reference_block(table.take(rows), rows, with_dictionaries)
    return out


def reference_merge(
    store: BlockStore, batch: Table, block_ids: np.ndarray
) -> Dict[int, ReferenceBlock]:
    """The blocks an ingest of ``batch`` (routed to ``block_ids``)
    rebuilds: each touched block's old rows, then its new ones."""
    base = store.logical_rows
    out = {}
    for bid in np.unique(block_ids).tolist():
        positions = np.flatnonzero(block_ids == bid)
        rows, ids = batch.take(positions), base + positions
        if bid in store:
            old = store.block(bid)
            rows = old.to_table().concat(rows)
            if old.row_ids is None:
                ids = None
            else:
                ids = np.concatenate([old.row_ids, ids])
        out[bid] = _reference_block(rows, ids, True)
    return out


def assert_block_matches(block: Block, expected: ReferenceBlock) -> None:
    """Chunks equal in encoding, payload bytes and dtypes; stats equal;
    row ids equal."""
    if expected.row_ids is None:
        assert block.row_ids is None
    else:
        np.testing.assert_array_equal(block.row_ids, expected.row_ids)
    assert block.num_rows == next(iter(expected.chunks.values())).num_values
    assert block._chunks.keys() == expected.chunks.keys()
    for name, want in expected.chunks.items():
        got = block._chunks[name]
        assert (got.encoding, got.num_values, got.dtype) == (
            want.encoding,
            want.num_values,
            want.dtype,
        ), name
        assert [(a.dtype, a.tobytes()) for a in got.payload] == [
            (a.dtype, a.tobytes()) for a in want.payload
        ], name
    assert block.encoded_nbytes == sum(c.nbytes for c in expected.chunks.values())
    assert_stats_match(block.minmax, expected.stats)


def assert_stats_match(
    index: MinMaxIndex, expected: Dict[str, ColumnStats]
) -> None:
    """The same columns, bounds and distinct bits."""
    assert set(index.columns()) == set(expected)
    for name, want in expected.items():
        got = index.column_stats(name)
        assert (got.minimum, got.maximum) == (want.minimum, want.maximum), name
        if want.distinct is None:
            assert got.distinct is None, name
        else:
            assert got.distinct.tolist() == want.distinct.tolist(), name
