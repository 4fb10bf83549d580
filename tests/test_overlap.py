"""Unit tests for repro.core.overlap (Sec. 6.2 data overlap)."""

import numpy as np
import pytest

from repro.core import (
    GreedyConfig,
    Hypercube,
    Interval,
    build_greedy_tree,
    build_overlap_layout,
    hypercubes_adjacent,
)
from repro.core.router import block_descriptions
from repro.workloads import overlap_dataset


class TestAdjacency:
    def test_adjacent_on_one_dim(self):
        a = Hypercube({"x": Interval(0, 5), "y": Interval(0, 10)})
        b = Hypercube({"x": Interval(5, 9, False, True), "y": Interval(0, 10)})
        assert hypercubes_adjacent(a, b, ["x", "y"])

    def test_not_adjacent_gap(self):
        a = Hypercube({"x": Interval(0, 4), "y": Interval(0, 10)})
        b = Hypercube({"x": Interval(5, 9), "y": Interval(0, 10)})
        assert not hypercubes_adjacent(a, b, ["x", "y"])

    def test_not_adjacent_two_dims_differ(self):
        a = Hypercube({"x": Interval(0, 5), "y": Interval(0, 5)})
        b = Hypercube({"x": Interval(5, 9), "y": Interval(5, 9)})
        assert not hypercubes_adjacent(a, b, ["x", "y"])

    def test_identical_not_adjacent(self):
        a = Hypercube({"x": Interval(0, 5)})
        assert not hypercubes_adjacent(a, a, ["x"])

    def test_exclusive_bounds_must_touch(self):
        a = Hypercube({"x": Interval(0, 5, True, False)})
        b = Hypercube({"x": Interval(5, 9, False, True)})
        # Neither side includes 5: no shared face.
        assert not hypercubes_adjacent(a, b, ["x"])
        c = Hypercube({"x": Interval(5, 9, True, True)})
        assert hypercubes_adjacent(a, c, ["x"])


class TestOverlapLayout:
    @pytest.fixture
    def layout(self):
        ds = overlap_dataset(cluster_size=500, seed=0)
        tree = build_greedy_tree(
            ds.schema,
            ds.registry(),
            ds.table,
            ds.workload,
            GreedyConfig(ds.min_block_size, allow_small_children=True),
        )
        return ds, build_overlap_layout(tree, ds.table, ds.min_block_size)

    def test_small_leaves_replicated(self, layout):
        _, ol = layout
        assert ol.replicated_rows > 0
        assert ol.host_blocks

    def test_storage_overhead_tiny(self, layout):
        _, ol = layout
        assert 1.0 < ol.store.storage_overhead() < 1.05

    def test_every_row_stored_somewhere(self, layout):
        ds, ol = layout
        stored = set()
        for bids in ol.assignments.values():
            stored.update(bids)
        total = sum(len(b) for b in ol.assignments.values())
        assert len(ol.assignments) == ds.table.num_rows
        assert total >= ds.table.num_rows

    def test_redundancy_pruning_drops_hosted_small_block(self, layout):
        ds, ol = layout
        for query in ds.workload:
            pruned = ol.blocks_for_query(query)
            raw = block_descriptions(None, ol.tree).matching(query.predicate)
            assert set(pruned) <= set(raw)

    def test_queries_never_lose_rows(self, layout):
        """Correctness: pruned block sets still cover all matching rows."""
        ds, ol = layout
        columns = ds.table.columns()
        for query in ds.workload:
            matches = np.flatnonzero(query.predicate.evaluate(columns))
            covered = set()
            for bid in ol.blocks_for_query(query):
                # Identify member rows via the assignment map.
                covered.update(
                    row for row, blist in ol.assignments.items() if bid in blist
                )
            assert set(int(m) for m in matches) <= covered

    def test_overlap_reduces_total_access(self):
        """The Fig. 4 payoff: replication strictly reduces scanned rows."""
        ds = overlap_dataset(cluster_size=500, seed=0)
        registry = ds.registry()
        plain = build_greedy_tree(
            ds.schema, registry, ds.table, ds.workload,
            GreedyConfig(ds.min_block_size),
        )
        from repro.core import leaf_sizes, per_query_accessed

        sizes = leaf_sizes(plain, ds.table)
        plain_total = int(
            per_query_accessed(plain, ds.workload, sizes).sum()
        )
        relaxed = build_greedy_tree(
            ds.schema, registry, ds.table, ds.workload,
            GreedyConfig(ds.min_block_size, allow_small_children=True),
        )
        ol = build_overlap_layout(relaxed, ds.table, ds.min_block_size)
        overlap_total = 0
        for query in ds.workload:
            for bid in ol.blocks_for_query(query):
                overlap_total += ol.store.block(bid).num_rows
        assert overlap_total < plain_total

    def test_no_small_leaves_is_identity(self, mixed_schema, mixed_table):
        """Trees without sub-b leaves come back without replication."""
        from repro.core import CutRegistry, QdTree, column_lt

        reg = CutRegistry(mixed_schema)
        reg.add(column_lt("age", 50))
        tree = QdTree(mixed_schema, reg)
        tree.apply_cut(tree.root, column_lt("age", 50))
        ol = build_overlap_layout(tree, mixed_table, min_block_size=10)
        assert ol.replicated_rows == 0
        assert ol.store.storage_overhead() == 1.0
