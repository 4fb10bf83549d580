"""Unit tests for repro.storage.blocks."""

import re
from pathlib import Path

import numpy as np
import pytest

from repro.storage import Block, BlockStore, MinMaxIndex, SchemaError, Table
from repro.storage.table import group_rows

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


class TestBlock:
    def test_roundtrip_columns(self, mixed_table):
        block = Block(0, mixed_table)
        np.testing.assert_array_equal(
            block.read_column("age"), mixed_table.column("age")
        )

    def test_unknown_column_raises(self, mixed_table):
        block = Block(0, mixed_table)
        with pytest.raises(SchemaError):
            block.read_column("nope")

    def test_to_table_roundtrip(self, mixed_table):
        block = Block(0, mixed_table)
        out = block.to_table()
        for name in mixed_table.schema.column_names:
            np.testing.assert_array_equal(
                out.column(name), mixed_table.column(name)
            )

    def test_encoded_smaller_than_raw(self, mixed_table):
        block = Block(0, mixed_table)
        assert block.encoded_nbytes <= mixed_table.nbytes()

    def test_column_nbytes_subset(self, mixed_table):
        block = Block(0, mixed_table)
        some = block.column_nbytes(["age", "city"])
        assert 0 < some < block.encoded_nbytes

    def test_minmax_present(self, mixed_table):
        block = Block(0, mixed_table)
        assert block.minmax.bounds("age") is not None

    def test_len(self, mixed_table):
        assert len(Block(3, mixed_table)) == mixed_table.num_rows


class TestBlockStore:
    def test_from_assignment_partitions_rows(self, mixed_table):
        bids = (mixed_table.column("age") >= 50).astype(np.int64)
        store = BlockStore.from_assignment(mixed_table, bids)
        assert store.num_blocks == 2
        assert store.stored_rows == mixed_table.num_rows
        young = store.block(0).read_column("age")
        assert (young < 50).all()

    def test_from_assignment_length_mismatch(self, mixed_table):
        with pytest.raises(ValueError):
            BlockStore.from_assignment(mixed_table, np.zeros(3, dtype=np.int64))

    def test_from_assignment_negative_bid(self, mixed_table):
        bids = np.zeros(mixed_table.num_rows, dtype=np.int64)
        bids[0] = -1
        with pytest.raises(ValueError):
            BlockStore.from_assignment(mixed_table, bids)

    def test_descriptions_attached(self, mixed_table):
        bids = np.zeros(mixed_table.num_rows, dtype=np.int64)
        store = BlockStore.from_assignment(
            mixed_table, bids, descriptions={0: "everything"}
        )
        assert store.block(0).description == "everything"

    def test_duplicate_block_ids_rejected(self, mixed_table):
        b1 = Block(0, mixed_table)
        b2 = Block(0, mixed_table)
        with pytest.raises(ValueError):
            BlockStore(mixed_table.schema, [b1, b2])

    def test_block_lookup_missing(self, mixed_table):
        store = BlockStore.from_assignment(
            mixed_table, np.zeros(mixed_table.num_rows, dtype=np.int64)
        )
        with pytest.raises(KeyError):
            store.block(99)

    def test_blocks_subset(self, mixed_table):
        bids = np.arange(mixed_table.num_rows) % 4
        store = BlockStore.from_assignment(mixed_table, bids)
        subset = store.blocks([1, 3])
        assert [b.block_id for b in subset] == [1, 3]

    def test_min_block_size(self, mixed_table):
        bids = np.arange(mixed_table.num_rows) % 3
        store = BlockStore.from_assignment(mixed_table, bids)
        assert store.min_block_size() >= mixed_table.num_rows // 3 - 1

    def test_storage_overhead_without_replication(self, mixed_table):
        store = BlockStore.from_assignment(
            mixed_table, np.zeros(mixed_table.num_rows, dtype=np.int64)
        )
        assert store.storage_overhead() == 1.0

    def test_storage_overhead_with_replication(self, mixed_table):
        # Two blocks both holding all rows: logical rows stays the same.
        b1 = Block(0, mixed_table)
        b2 = Block(1, mixed_table)
        store = BlockStore(
            mixed_table.schema, [b1, b2], logical_rows=mixed_table.num_rows
        )
        assert store.storage_overhead() == 2.0

    def test_iteration_in_bid_order(self, mixed_table):
        blocks = [Block(2, mixed_table), Block(0, mixed_table), Block(1, mixed_table)]
        store = BlockStore(mixed_table.schema, blocks)
        assert [b.block_id for b in store] == [0, 1, 2]


# -- grouping rows by BID: one stable sort == one mask per BID -------------


def mask_grouped(table, block_ids):
    """The per-BID mask pass ``from_assignment`` used to make: BID ->
    (row ids, rows)."""
    return {
        int(bid): (np.flatnonzero(block_ids == bid), table.filter(block_ids == bid))
        for bid in np.unique(block_ids)
    }


def assignments(n):
    rng = np.random.default_rng(7)
    return {
        "unsorted-sparse": rng.choice([40, 3, 17, 900, 5], size=n),
        "single-block": np.full(n, 12),
        "sorted-runs": np.repeat(np.arange(5), -(-n // 5))[:n] * 3,
    }


GROUPING_MODULES = [
    "storage/blocks.py",
    "core/tree.py",
    "db/database.py",
    "baselines/bottom_up.py",
]


@pytest.mark.parametrize("module", GROUPING_MODULES)
def test_rows_are_grouped_by_one_sort(module):
    """No ``ids == bid`` pass per block is left where rows are grouped."""
    source = (SRC / module).read_text()
    assert "group_rows(" in source
    assert not re.search(r"==\s*(bid|group|leaf\.block_id)\b", source)


@pytest.mark.parametrize("kind", ["unsorted-sparse", "single-block", "sorted-runs"])
def test_group_rows_is_flatnonzero_per_id(kind):
    ids = assignments(1000)[kind]
    groups = list(group_rows(ids))
    assert [bid for bid, _ in groups] == sorted(set(ids.tolist()))
    for bid, rows in groups:
        np.testing.assert_array_equal(rows, np.flatnonzero(ids == bid))
        assert not rows.flags.writeable
    assert list(group_rows(np.empty(0, dtype=np.int64))) == []


@pytest.mark.parametrize("kind", ["unsorted-sparse", "single-block", "sorted-runs", "empty"])
@pytest.mark.parametrize("dictionaries", [True, False])
def test_from_assignment_equals_the_mask_reference(mixed_table, kind, dictionaries):
    if kind == "empty":
        table, bids = Table.empty(mixed_table.schema), np.empty(0, dtype=np.int64)
    else:
        table, bids = mixed_table, assignments(mixed_table.num_rows)[kind]
    store = BlockStore.from_assignment(table, bids, with_dictionaries=dictionaries)
    expected = mask_grouped(table, bids)
    assert list(store.block_ids) == sorted(expected)
    for block in store:
        row_ids, rows = expected[block.block_id]
        np.testing.assert_array_equal(block.row_ids, row_ids)
        reference = MinMaxIndex.build(rows, with_dictionaries=dictionaries)
        for name in table.schema.column_names:
            np.testing.assert_array_equal(block.read_column(name), rows.column(name))
            got, want = block.minmax.column_stats(name), reference.column_stats(name)
            assert (got.minimum, got.maximum) == (want.minimum, want.maximum)
            if want.distinct is None:
                assert got.distinct is None
            else:
                np.testing.assert_array_equal(got.distinct, want.distinct)
    assert store.logical_rows == table.num_rows
