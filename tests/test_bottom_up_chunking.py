"""Tests for Bottom-Up group chunking (max_block_size)."""

import numpy as np
import pytest

from repro.baselines import BottomUpConfig, BottomUpPartitioner
from repro.baselines.bottom_up import _split_large_groups
from repro.core import CutRegistry


class TestSplitLargeGroups:
    def test_splits_to_cap(self):
        bids = np.zeros(10, dtype=np.int64)
        out = _split_large_groups(bids, max_block_size=3)
        _, counts = np.unique(out, return_counts=True)
        assert counts.max() <= 3
        assert counts.sum() == 10

    def test_preserves_group_boundaries(self):
        bids = np.array([0, 0, 0, 1, 1, 1], dtype=np.int64)
        out = _split_large_groups(bids, max_block_size=2)
        # Rows of different logical groups never share a physical block.
        for block in np.unique(out):
            rows = np.flatnonzero(out == block)
            assert len(np.unique(bids[rows])) == 1

    def test_dense_bids(self):
        bids = np.array([5, 5, 9, 9, 9], dtype=np.int64)
        out = _split_large_groups(bids, max_block_size=2)
        assert set(np.unique(out)) == set(range(out.max() + 1))

    def test_invalid_cap(self):
        with pytest.raises(ValueError):
            _split_large_groups(np.zeros(3, dtype=np.int64), 0)

    def test_chunks_are_balanced_not_runts(self):
        """413 rows under a 400 cap are 207 + 206, never 400 + 13."""
        out = _split_large_groups(np.zeros(413, dtype=np.int64), 400)
        _, counts = np.unique(out, return_counts=True)
        assert sorted(counts) == [206, 207]

    def test_floor_survives_a_ceiling_of_twice_the_floor(self):
        """Any group of >= b rows chunks into blocks within [b, 2b]."""
        b = 7
        for n in range(b, 12 * b):
            out = _split_large_groups(np.zeros(n, dtype=np.int64), 2 * b)
            _, counts = np.unique(out, return_counts=True)
            assert b <= counts.min() and counts.max() <= 2 * b, n

    def test_noop_when_under_cap(self):
        bids = np.array([0, 1, 2], dtype=np.int64)
        out = _split_large_groups(bids, max_block_size=10)
        assert len(np.unique(out)) == 3


class TestPartitionerChunking:
    def test_max_block_size_enforced(
        self, mixed_schema, mixed_table, mixed_workload
    ):
        registry = CutRegistry.from_workload(mixed_schema, mixed_workload)
        part = BottomUpPartitioner(
            registry,
            mixed_workload,
            BottomUpConfig(min_block_size=100, max_block_size=150),
        )
        bids = part.partition(mixed_table)
        _, counts = np.unique(bids, return_counts=True)
        assert counts.max() <= 150

    def test_chunking_increases_block_count(
        self, mixed_schema, mixed_table, mixed_workload
    ):
        registry = CutRegistry.from_workload(mixed_schema, mixed_workload)
        plain = BottomUpPartitioner(
            registry, mixed_workload, BottomUpConfig(min_block_size=100)
        ).partition(mixed_table)
        chunked = BottomUpPartitioner(
            registry,
            mixed_workload,
            BottomUpConfig(min_block_size=100, max_block_size=120),
        ).partition(mixed_table)
        assert len(np.unique(chunked)) >= len(np.unique(plain))

    def test_chunking_preserves_skipping(
        self, mixed_schema, mixed_table, mixed_workload
    ):
        """Splitting a group cannot reduce skipping (min-max indexes of
        sub-blocks are at least as tight)."""
        from repro.engine import SPARK_PARQUET, ScanEngine, WorkloadReport
        from repro.storage import BlockStore

        registry = CutRegistry.from_workload(mixed_schema, mixed_workload)

        def scanned(bids):
            store = BlockStore.from_assignment(mixed_table, bids)
            engine = ScanEngine(store, SPARK_PARQUET)
            report = WorkloadReport(
                "x", engine.execute_workload(mixed_workload)
            )
            return report.total_tuples_scanned

        plain = BottomUpPartitioner(
            registry, mixed_workload, BottomUpConfig(min_block_size=100)
        ).partition(mixed_table)
        chunked = BottomUpPartitioner(
            registry,
            mixed_workload,
            BottomUpConfig(min_block_size=100, max_block_size=120),
        ).partition(mixed_table)
        assert scanned(chunked) <= scanned(plain)


class TestStrategyDefaults:
    """``db.build_layout("bottom_up")`` with no options (ROADMAP 1c):
    clustering alone returned a handful of giant groups."""

    def test_blocks_within_floor_and_twice_floor_and_answers_exact(self):
        from repro.db import Database
        from repro.workloads import tpch_dataset

        ds = tpch_dataset(num_rows=20_000, seeds_per_template=2, seed=0)
        b = 200
        db = Database.from_table(ds.table, min_block_size=b)
        handle = db.build_layout("bottom_up", workload=ds.workload)
        sizes = np.array([block.num_rows for block in handle.store.blocks()])
        assert sizes.sum() == ds.table.num_rows
        assert b <= sizes.min() and sizes.max() <= 2 * b
        sql = "SELECT l_quantity FROM t WHERE l_quantity < 10 AND l_discount >= 0.05"
        columns = ds.table.columns()
        expected = np.flatnonzero(
            (columns["l_quantity"] < 10) & (columns["l_discount"] >= 0.05)
        )
        assert db.execute(sql).stats.rows_returned == len(expected)
        np.testing.assert_array_equal(db.collect_row_ids(sql), expected)
