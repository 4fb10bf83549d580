"""Unit tests for routing: rows to BIDs, and queries to BIDs
(repro.core.router)."""

import numpy as np
import pytest

from repro.core import (
    CutRegistry,
    IngestionPipeline,
    QdTree,
    QueryRouter,
    column_eq,
    column_lt,
)


@pytest.fixture
def tree(mixed_schema, mixed_table):
    reg = CutRegistry(mixed_schema)
    reg.add(column_lt("age", 40))
    reg.add(column_eq("city", 1))
    t = QdTree(mixed_schema, reg)
    left, _ = t.apply_cut(t.root, column_lt("age", 40))
    t.apply_cut(left, column_eq("city", 1))
    t.assign_block_ids()
    return t


class TestDataRouter:
    def test_matches_direct_routing(self, tree, mixed_table):
        """Routing a table batch by batch, as the online data router
        does, gives the same BIDs as routing it whole."""
        pipeline = IngestionPipeline(tree)
        batches = [
            pipeline.route(mixed_table.slice(start, start + 100))
            for start in range(0, mixed_table.num_rows, 100)
        ]
        np.testing.assert_array_equal(
            np.concatenate(batches), tree.route_to_blocks(mixed_table)
        )


class TestQueryRouter:
    def test_route_records_latency(self, tree, mixed_workload):
        router = QueryRouter(tree)
        routed = router.route(mixed_workload[0])
        assert routed.latency_seconds >= 0

    def test_route_workload(self, tree, mixed_workload):
        router = QueryRouter(tree)
        results = router.route_workload(mixed_workload)
        assert len(results) == len(mixed_workload)
        assert all(r.latency_seconds >= 0 for r in results)

    def test_bids_prune(self, tree, mixed_workload, mixed_table):
        router = QueryRouter(tree)
        # "sf" query: city == 1 only fits the left-left leaf or the
        # age >= 40 leaf (which has a full mask).
        routed = router.route(mixed_workload[1])
        assert 0 < len(routed.block_ids) < len(tree.leaves()) + 1

    def test_rewrite_sql_contains_bids(self, tree, mixed_workload):
        router = QueryRouter(tree)
        routed = router.route(mixed_workload[0])
        sql = router.rewrite_sql(routed)
        assert "BID IN (" in sql
