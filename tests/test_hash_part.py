"""Unit tests for repro.baselines.hash_part."""

import numpy as np
import pytest

from repro.baselines import HashPartitioner


class TestHashPartitioner:
    def test_bids_in_range(self, mixed_table):
        bids = HashPartitioner(columns=["city"], num_blocks=8).partition(
            mixed_table
        )
        assert bids.min() >= 0 and bids.max() < 8

    def test_equal_values_same_block(self, mixed_table):
        bids = HashPartitioner(columns=["city"], num_blocks=8).partition(
            mixed_table
        )
        city = mixed_table.column("city")
        for code in np.unique(city):
            assert len(np.unique(bids[city == code])) == 1

    def test_load_roughly_balanced(self, mixed_table):
        bids = HashPartitioner(
            columns=["age", "salary"], num_blocks=4
        ).partition(mixed_table)
        _, counts = np.unique(bids, return_counts=True)
        assert counts.min() > 0.5 * counts.mean()

    def test_deterministic(self, mixed_table):
        a = HashPartitioner(columns=["age"], num_blocks=4).partition(mixed_table)
        b = HashPartitioner(columns=["age"], num_blocks=4).partition(mixed_table)
        np.testing.assert_array_equal(a, b)

    def test_multi_column_differs_from_single(self, mixed_table):
        a = HashPartitioner(columns=["age"], num_blocks=8).partition(mixed_table)
        b = HashPartitioner(columns=["age", "city"], num_blocks=8).partition(
            mixed_table
        )
        assert (a != b).any()

    def test_invalid_args(self, mixed_table):
        with pytest.raises(ValueError):
            HashPartitioner(columns=[], num_blocks=4).partition(mixed_table)
        with pytest.raises(ValueError):
            HashPartitioner(columns=["age"], num_blocks=0).partition(mixed_table)

    def test_range_queries_cannot_prune(self, mixed_table):
        """The defining weakness: hashed blocks span full value ranges."""
        from repro.core import Query, column_lt
        from repro.engine import SPARK_PARQUET, ScanEngine
        from repro.storage import BlockStore

        bids = HashPartitioner(columns=["age"], num_blocks=6).partition(
            mixed_table
        )
        store = BlockStore.from_assignment(mixed_table, bids)
        engine = ScanEngine(store, SPARK_PARQUET)
        stats = engine.execute(Query(column_lt("salary", 50_000), name="q"))
        assert stats.blocks_scanned == store.num_blocks

    def test_hash_strategy_builds_without_options_on_a_wide_table(self):
        """``db.build_layout("hash")`` hashes every numeric column; the
        per-column salt used to overflow uint64 at the third one."""
        from repro.db import Database
        from repro.workloads.tpch import generate_table

        table = generate_table(3000, seed=0)
        assert len(table.schema.numeric_columns) >= 3
        db = Database.from_table(table, min_block_size=300)
        handle = db.build_layout("hash")
        assert handle.store.logical_rows == table.num_rows
        sql = "SELECT l_quantity FROM t WHERE l_quantity < 10 AND l_discount >= 0.05"
        mask = db.planner.plan(sql).query.predicate.evaluate(table.columns())
        assert mask.any()
        np.testing.assert_array_equal(
            db.collect_row_ids(sql), np.flatnonzero(mask)
        )
        assert db.execute(sql).stats.rows_returned == int(mask.sum())
