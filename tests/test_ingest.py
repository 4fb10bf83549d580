"""Unit tests for repro.core.ingest (Problem 2: online ingestion)."""

import numpy as np
import pytest

from repro.core import (
    CutRegistry,
    GreedyConfig,
    IngestionPipeline,
    build_greedy_tree,
)
from repro.db import Database
from repro.storage import Table


@pytest.fixture
def learned_tree(mixed_schema, mixed_table, mixed_workload):
    registry = CutRegistry.from_workload(mixed_schema, mixed_workload)
    tree = build_greedy_tree(
        mixed_schema, registry, mixed_table, mixed_workload, GreedyConfig(100)
    )
    tree.freeze(mixed_table)
    return tree


def fresh_batches(mixed_schema, seed, num_batches=4, rows=500):
    """Future data drawn from the same distribution (Problem 2's
    assumption)."""
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(num_batches):
        batches.append(
            Table(
                mixed_schema,
                {
                    "age": rng.integers(0, 100, rows).astype(float),
                    "salary": rng.uniform(0, 200_000, rows),
                    "city": rng.integers(0, 4, rows),
                    "level": rng.integers(0, 3, rows),
                },
            )
        )
    return batches


class TestIngestionPipeline:
    def test_routes_every_row(self, learned_tree, mixed_schema):
        pipeline = IngestionPipeline(learned_tree)
        leaf_bids = {leaf.block_id for leaf in learned_tree.leaves()}
        for batch in fresh_batches(mixed_schema, seed=9):
            bids = pipeline.route(batch)
            assert len(bids) == batch.num_rows
            assert set(bids.tolist()) <= leaf_bids

    def test_finish_preserves_all_rows(
        self, mixed_schema, mixed_table, mixed_workload
    ):
        """After a run of ingests the final generation's store holds
        every original and every ingested row exactly once."""
        db = Database.from_table(mixed_table, min_block_size=100)
        db.build_layout("greedy", workload=mixed_workload)
        batches = fresh_batches(mixed_schema, seed=10)
        for batch in batches:
            db.ingest(batch)
        total = mixed_table.num_rows + sum(b.num_rows for b in batches)
        store = db.active_layout.store
        assert store.stored_rows == total
        row_ids = np.concatenate([block.row_ids for block in store])
        np.testing.assert_array_equal(np.sort(row_ids), np.arange(total))

    def test_ingested_rows_match_tree_routing(
        self, learned_tree, mixed_schema
    ):
        """Online routing equals offline bulk routing."""
        pipeline = IngestionPipeline(learned_tree)
        batch = fresh_batches(mixed_schema, seed=12, num_batches=1)[0]
        online = pipeline.route(batch)
        offline = learned_tree.route_to_blocks(batch)
        np.testing.assert_array_equal(online, offline)

    def test_blocks_keep_completeness_on_future_data(
        self, mixed_schema, mixed_table, mixed_workload
    ):
        """The learned partitioning function stays complete on unseen
        tuples from the same distribution (Problem 2): after two
        ingests every block holds exactly the rows the tree routes to
        its BID over the grown table."""
        db = Database.from_table(mixed_table, min_block_size=100)
        handle = db.build_layout("greedy", workload=mixed_workload)
        batches = fresh_batches(mixed_schema, seed=13, num_batches=2)
        for batch in batches:
            db.ingest(batch)
        grown = db.table
        assert grown.num_rows == mixed_table.num_rows + sum(
            b.num_rows for b in batches
        )
        bids = handle.tree.route_to_blocks(grown)
        store = db.active_layout.store
        assert store.stored_rows == grown.num_rows
        for block in store:
            np.testing.assert_array_equal(
                np.sort(block.row_ids),
                np.flatnonzero(bids == block.block_id),
            )

    def test_layout_quality_holds_on_future_data(
        self, learned_tree, mixed_schema, mixed_workload, mixed_table
    ):
        """Skipping quality on future same-distribution data is close
        to quality on the training data (the paper's core Problem 2
        assumption)."""
        from repro.core import leaf_sizes, scan_ratio

        train_ratio = scan_ratio(
            learned_tree, mixed_workload, leaf_sizes(learned_tree, mixed_table)
        )
        future = fresh_batches(mixed_schema, seed=15, num_batches=1, rows=4000)[0]
        future_ratio = scan_ratio(
            learned_tree, mixed_workload, leaf_sizes(learned_tree, future)
        )
        assert abs(future_ratio - train_ratio) < 0.15
