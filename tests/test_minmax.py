"""Unit tests for repro.storage.minmax (SMA / zone-map indexes)."""

import numpy as np
import pytest

from repro.storage import MinMaxIndex, Schema, Table, categorical, numeric


@pytest.fixture
def block_table():
    schema = Schema(
        [numeric("x", (0, 100)), categorical("c", ["a", "b", "c", "d"])]
    )
    return Table(
        schema,
        {
            "x": np.array([10.0, 20.0, 30.0]),
            "c": np.array([0, 2, 2]),
        },
    )


class TestMinMaxIndex:
    def test_build_bounds(self, block_table):
        idx = MinMaxIndex.build(block_table)
        assert idx.bounds("x") == (10.0, 30.0)

    def test_build_dictionary_bits(self, block_table):
        idx = MinMaxIndex.build(block_table)
        stats = idx.column_stats("c")
        assert stats.distinct.tolist() == [True, False, True, False]

    def test_build_without_dictionaries(self, block_table):
        idx = MinMaxIndex.build(block_table, with_dictionaries=False)
        assert idx.column_stats("c").distinct is None

    def test_untracked_column(self, block_table):
        idx = MinMaxIndex.build(block_table, columns=["x"])
        assert idx.column_stats("c") is None
        assert idx.bounds("c") is None
        assert "c" not in idx

    def test_columns_listing(self, block_table):
        idx = MinMaxIndex.build(block_table)
        assert set(idx.columns()) == {"x", "c"}

    def test_empty_table_has_no_stats(self, mixed_schema):
        idx = MinMaxIndex.build(Table.empty(mixed_schema))
        assert idx.columns() == ()
