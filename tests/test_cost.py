"""Unit tests for repro.core.cost (the skipping model)."""

import pytest

from repro.core import (
    CutRegistry,
    QdTree,
    Query,
    Workload,
    column_ge,
    column_lt,
    leaf_sizes,
    per_query_accessed,
    scan_ratio,
    skipped_tuples,
    subtree_skips,
    tuples_accessed,
)
from repro.core.cost import access_percentage


@pytest.fixture
def cut_tree(mixed_schema, mixed_table):
    reg = CutRegistry(mixed_schema)
    reg.add(column_lt("age", 40))
    tree = QdTree(mixed_schema, reg)
    tree.apply_cut(tree.root, column_lt("age", 40))
    tree.assign_block_ids()
    return tree


@pytest.fixture
def age_workload():
    return Workload(
        [
            Query(column_lt("age", 20), name="young"),
            Query(column_ge("age", 70), name="old"),
        ]
    )


class TestLeafSizes:
    def test_sizes_sum_to_rows(self, cut_tree, mixed_table):
        sizes = leaf_sizes(cut_tree, mixed_table)
        assert sum(sizes.values()) == mixed_table.num_rows

    def test_every_leaf_present(self, cut_tree, mixed_table):
        sizes = leaf_sizes(cut_tree, mixed_table)
        assert set(sizes) == {l.node_id for l in cut_tree.leaves()}

    def test_sample_leaf_sizes(self, cut_tree, mixed_table):
        sizes = leaf_sizes(cut_tree, mixed_table)
        assert sum(sizes.values()) == 2000

    def test_sample_leaf_sizes_without_sample_raises(self, mixed_schema, age_workload):
        """No implicit sample: the tree carries none, sizes are an argument."""
        tree = QdTree(mixed_schema)
        with pytest.raises(TypeError):
            subtree_skips(tree, age_workload)


class TestAccessMetrics:
    def test_per_query_accessed_prunes(self, cut_tree, mixed_table, age_workload):
        sizes = leaf_sizes(cut_tree, mixed_table)
        accessed = per_query_accessed(cut_tree, age_workload, sizes)
        young_leaf = cut_tree.root.left.node_id
        old_leaf = cut_tree.root.right.node_id
        assert accessed[0] == sizes[young_leaf]
        assert accessed[1] == sizes[old_leaf]

    def test_totals_consistent(self, cut_tree, mixed_table, age_workload):
        sizes = leaf_sizes(cut_tree, mixed_table)
        accessed = tuples_accessed(cut_tree, age_workload, sizes)
        skipped = skipped_tuples(cut_tree, age_workload, sizes)
        assert accessed + skipped == mixed_table.num_rows * len(age_workload)

    def test_scan_ratio_bounds(self, cut_tree, mixed_table, age_workload):
        sizes = leaf_sizes(cut_tree, mixed_table)
        ratio = scan_ratio(cut_tree, age_workload, sizes)
        assert 0.0 < ratio < 1.0

    def test_scan_ratio_lower_bounded_by_selectivity(
        self, cut_tree, mixed_table, age_workload
    ):
        sizes = leaf_sizes(cut_tree, mixed_table)
        ratio = scan_ratio(cut_tree, age_workload, sizes)
        assert ratio >= age_workload.selectivity(mixed_table) - 1e-12

    def test_singleton_tree_scans_everything(
        self, mixed_schema, mixed_table, age_workload
    ):
        tree = QdTree(mixed_schema)
        tree.assign_block_ids()
        sizes = leaf_sizes(tree, mixed_table)
        assert scan_ratio(tree, age_workload, sizes) == 1.0

    def test_access_percentage(self, cut_tree, mixed_table, age_workload):
        pct = access_percentage(cut_tree, age_workload, mixed_table)
        sizes = leaf_sizes(cut_tree, mixed_table)
        assert pct == pytest.approx(
            100 * scan_ratio(cut_tree, age_workload, sizes)
        )

    def test_empty_workload_ratio_zero(self, cut_tree, mixed_table):
        sizes = leaf_sizes(cut_tree, mixed_table)
        assert scan_ratio(cut_tree, Workload([]), sizes) == 0.0


class TestSubtreeSkips:
    def test_root_equals_total_skips(self, cut_tree, mixed_table, age_workload):
        sizes = leaf_sizes(cut_tree, mixed_table)
        skips = subtree_skips(cut_tree, age_workload, sizes)
        assert skips[0] == skipped_tuples(cut_tree, age_workload, sizes)

    def test_internal_is_sum_of_children(self, cut_tree, mixed_table, age_workload):
        sizes = leaf_sizes(cut_tree, mixed_table)
        skips = subtree_skips(cut_tree, age_workload, sizes)
        root = cut_tree.root
        assert skips[root.node_id] == (
            skips[root.left.node_id] + skips[root.right.node_id]
        )

    def test_uses_sample_sizes_by_default(self, cut_tree, mixed_table, age_workload):
        """The sizes passed in are the ones used: doubling them doubles S(n)."""
        sizes = leaf_sizes(cut_tree, mixed_table)
        skips = subtree_skips(cut_tree, age_workload, sizes)
        doubled = subtree_skips(
            cut_tree, age_workload, {k: 2 * v for k, v in sizes.items()}
        )
        assert skips[0] > 0
        assert doubled[0] == 2 * skips[0]
