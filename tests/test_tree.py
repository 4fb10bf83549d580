"""Unit tests for repro.core.tree (QdTree)."""

import numpy as np
import pytest
from build_reference import reference_tighten

from repro.core import (
    ConstructionEnv,
    CutRegistry,
    QdTree,
    Workload,
    column_eq,
    column_ge,
    column_lt,
)
from repro.core.construct import Episode
from repro.core.router import block_descriptions
from repro.storage import Table


@pytest.fixture
def registry(mixed_schema):
    reg = CutRegistry(mixed_schema)
    reg.add(column_lt("age", 40))
    reg.add(column_ge("salary", 100_000))
    reg.add(column_eq("city", 1))
    return reg


@pytest.fixture
def small_tree(mixed_schema, registry):
    tree = QdTree(mixed_schema, registry)
    left, right = tree.apply_cut(tree.root, column_lt("age", 40))
    tree.apply_cut(left, column_eq("city", 1))
    return tree


class TestStructure:
    def test_singleton_tree(self, mixed_schema, registry):
        tree = QdTree(mixed_schema, registry)
        assert tree.num_nodes == 1
        assert tree.root.is_leaf
        assert tree.depth() == 0

    def test_apply_cut_creates_children(self, mixed_schema, registry):
        tree = QdTree(mixed_schema, registry)
        left, right = tree.apply_cut(tree.root, column_lt("age", 40))
        assert tree.num_nodes == 3
        assert not tree.root.is_leaf
        assert left.depth == right.depth == 1
        assert left.parent is tree.root

    def test_cannot_cut_internal_node(self, small_tree):
        with pytest.raises(ValueError):
            small_tree.apply_cut(small_tree.root, column_ge("salary", 100_000))

    def test_leaves_count(self, small_tree):
        assert len(small_tree.leaves()) == 3
        assert len(small_tree.internal_nodes()) == 2

    def test_bfs_order(self, small_tree):
        ids = [n.node_id for n in small_tree.iter_bfs()]
        assert ids[0] == 0
        assert len(ids) == small_tree.num_nodes

    def test_path_predicate(self, small_tree):
        leaf = small_tree.root.left.left
        pred = leaf.path_predicate()
        assert "age < 40" in repr(pred)
        assert "city = 1" in repr(pred)

    def test_path_predicate_negated_side(self, small_tree):
        leaf = small_tree.root.right
        assert "age >= 40" in repr(leaf.path_predicate())


class TestDataRouting:
    def test_every_row_reaches_exactly_one_leaf(self, small_tree, mixed_table):
        assignment = small_tree.route_table(mixed_table)
        leaf_ids = {leaf.node_id for leaf in small_tree.leaves()}
        assert set(np.unique(assignment)) <= leaf_ids
        assert len(assignment) == mixed_table.num_rows

    def test_routing_respects_cuts(self, small_tree, mixed_table):
        assignment = small_tree.route_table(mixed_table)
        right_leaf = small_tree.root.right
        rows = assignment == right_leaf.node_id
        assert (mixed_table.column("age")[rows] >= 40).all()

    def test_route_to_blocks_dense_bids(self, small_tree, mixed_table):
        bids = small_tree.route_to_blocks(mixed_table)
        assert set(np.unique(bids)) == {0, 1, 2}

    def test_completeness_property(self, small_tree, mixed_table):
        """Every record in a leaf satisfies the leaf's description and
        no record satisfying it lands elsewhere (paper Sec. 3.2)."""
        assignment = small_tree.route_table(mixed_table)
        columns = mixed_table.columns()
        for leaf in small_tree.leaves():
            desc_mask = leaf.description.matches_rows(columns)
            routed_mask = assignment == leaf.node_id
            np.testing.assert_array_equal(desc_mask, routed_mask)


class TestQueryRouting:
    def test_route_query_returns_intersecting_leaves(
        self, small_tree, mixed_table
    ):
        small_tree.assign_block_ids()
        bids = list(block_descriptions(None, small_tree).matching(column_ge("age", 80)))
        # Only the age >= 40 leaf intersects.
        right_bid = small_tree.root.right.block_id
        assert bids == [right_bid]

    def test_route_query_superset_of_matches(self, small_tree, mixed_table):
        """Routed blocks contain every matching row (no false negatives)."""
        small_tree.assign_block_ids()
        bids_per_row = small_tree.route_to_blocks(mixed_table)
        query = column_ge("salary", 150_000)
        matching_rows = query.evaluate(mixed_table.columns())
        routed = set(block_descriptions(None, small_tree).matching(query))
        needed = set(np.unique(bids_per_row[matching_rows]))
        assert needed <= routed


class TestFreeze:
    def test_freeze_tightens(self, small_tree, mixed_table):
        small_tree.freeze(mixed_table)
        right = small_tree.root.right
        iv = right.description.hypercube.interval("age")
        ages = mixed_table.column("age")
        assert iv.lo == ages[ages >= 40].min()
        assert iv.hi == ages.max()

    def test_freeze_improves_or_preserves_pruning(
        self, small_tree, mixed_table, mixed_workload
    ):
        leaves = block_descriptions(None, small_tree)
        before = {q.name: len(leaves.matching(q.predicate)) for q in mixed_workload}
        small_tree.freeze(mixed_table)
        leaves = block_descriptions(None, small_tree)
        for q in mixed_workload:
            after = len(leaves.matching(q.predicate))
            assert after <= before[q.name]

    def test_frozen_tree_rejects_growth(self, small_tree, mixed_table):
        small_tree.freeze(mixed_table)
        leaf = small_tree.leaves()[0]
        with pytest.raises(RuntimeError):
            small_tree.apply_cut(leaf, column_ge("salary", 100_000))

    @pytest.mark.parametrize("shape", ["three-leaves", "empty-leaf", "single-leaf", "no-rows"])
    def test_freeze_equals_the_mask_reference(self, mixed_schema, registry, mixed_table, shape):
        """Grouping rows by one sort tightens every leaf exactly as one
        ``bids == bid`` mask per leaf did; a leaf without rows keeps its
        description."""
        tree = QdTree(mixed_schema, registry)
        # Rows in salary order: each leaf's first row is its unique
        # minimum, so a row lost in grouping moves a tightened bound.
        table = mixed_table.take(np.argsort(mixed_table.column("salary")))
        if shape == "no-rows":
            table = Table.empty(mixed_schema)
        if shape in ("three-leaves", "no-rows"):
            left, _ = tree.apply_cut(tree.root, column_lt("age", 40))
            tree.apply_cut(left, column_eq("city", 1))
        elif shape == "empty-leaf":
            tree.apply_cut(tree.root, column_lt("age", -5))
        bids = tree.route_to_blocks(table)
        columns = table.columns()
        expected = {}
        for leaf in tree.leaves():
            rows = np.flatnonzero(bids == leaf.block_id)
            expected[leaf.block_id] = reference_tighten(
                leaf.description, {n: a[rows] for n, a in columns.items()}
            )
        np.testing.assert_array_equal(tree.freeze(table), bids)
        for leaf in tree.leaves():
            got, want = leaf.description, expected[leaf.block_id]
            assert got.hypercube == want.hypercube
            assert got.categorical_masks.keys() == want.categorical_masks.keys()
            for name, mask in want.categorical_masks.items():
                np.testing.assert_array_equal(got.categorical_masks[name], mask)
            np.testing.assert_array_equal(got.adv_true, want.adv_true)
            np.testing.assert_array_equal(got.adv_false, want.adv_false)


class TestSample:
    """The construction sample is walked by the environment, not the tree."""

    def test_attach_sample_propagates(self, mixed_schema, registry, mixed_table):
        env = ConstructionEnv(mixed_schema, registry, mixed_table, Workload([]), 1)
        episode = Episode(env)
        action = registry.index_of(column_lt("age", 40))
        left, right = episode.split(episode.tree.root, action)
        n_young = int((mixed_table.column("age") < 40).sum())
        assert episode.sizes[left.node_id] == n_young
        assert episode.sizes[right.node_id] == mixed_table.num_rows - n_young

    def test_sample_indices_partition(self, mixed_schema, registry, mixed_table):
        env = ConstructionEnv(mixed_schema, registry, mixed_table, Workload([]), 1)
        episode = Episode(env)
        action = registry.index_of(column_lt("age", 40))
        left, right = episode.split(episode.tree.root, action)
        assert set(episode.rows) == {left.node_id, right.node_id}
        merged = np.sort(
            np.concatenate([episode.rows[left.node_id], episode.rows[right.node_id]])
        )
        np.testing.assert_array_equal(merged, np.arange(mixed_table.num_rows))


class TestSerialization:
    def test_roundtrip_structure(self, small_tree, mixed_schema, registry):
        small_tree.assign_block_ids()
        data = small_tree.to_dict()
        rebuilt = QdTree.from_dict(data, mixed_schema, registry)
        assert rebuilt.num_nodes == small_tree.num_nodes
        assert len(rebuilt.leaves()) == len(small_tree.leaves())

    def test_roundtrip_routing_identical(
        self, small_tree, mixed_schema, registry, mixed_table
    ):
        small_tree.assign_block_ids()
        rebuilt = QdTree.from_dict(small_tree.to_dict(), mixed_schema, registry)
        np.testing.assert_array_equal(
            small_tree.route_table(mixed_table), rebuilt.route_table(mixed_table)
        )

    def test_roundtrip_block_ids(self, small_tree, mixed_schema, registry):
        small_tree.assign_block_ids()
        rebuilt = QdTree.from_dict(small_tree.to_dict(), mixed_schema, registry)
        original = {l.node_id: l.block_id for l in small_tree.leaves()}
        for leaf in rebuilt.leaves():
            assert leaf.block_id == original[leaf.node_id]

    def test_save_load_file(self, small_tree, mixed_schema, registry, tmp_path):
        small_tree.assign_block_ids()
        path = str(tmp_path / "tree.json")
        small_tree.save(path)
        loaded = QdTree.load(path, mixed_schema, registry)
        assert loaded.num_nodes == small_tree.num_nodes


class TestIntrospection:
    def test_cut_histogram(self, small_tree):
        hist = small_tree.cut_histogram()
        assert hist == {"age": 1, "city": 1}

    def test_cuts_by_depth(self, small_tree):
        by_depth = small_tree.cuts_by_depth()
        assert by_depth[0] == {"age": 1}
        assert by_depth[1] == {"city": 1}

    def test_leaf_descriptions_keyed_by_bid(self, small_tree):
        small_tree.assign_block_ids()
        descs = small_tree.leaf_descriptions()
        assert set(descs) == {0, 1, 2}
        assert any("age" in d for d in descs.values())
