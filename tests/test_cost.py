"""Unit tests for repro.core.cost (the skipping model)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AdvancedCut,
    And,
    CutRegistry,
    Not,
    Or,
    QdTree,
    Query,
    Workload,
    column_eq,
    column_ge,
    column_gt,
    column_in,
    column_le,
    column_lt,
    leaf_sizes,
    per_query_accessed,
    scan_ratio,
    skipped_tuples,
    subtree_skips,
    tuples_accessed,
)
from repro.core.cost import access_percentage
from repro.storage import Schema, categorical, numeric
from scalar_oracle import may_match


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


# -- the array model against the scalar oracle ---------------------------

PROPERTY_SCHEMA = Schema(
    [
        numeric("x", (0.0, 100.0)),
        numeric("y", (0.0, 100.0)),
        categorical("kind", ["a", "b", "c", "d"]),
    ]
)
#: tracked: the registry below registers both, so trees carry their bits
X_LT_Y = AdvancedCut("x<y", 0, lambda c: c["x"] < c["y"], ("x", "y"))
Y_GT_50 = AdvancedCut("y>50", 1, lambda c: c["y"] > 50, ("y",))
#: an index no tree here tracks: it must never prune
UNTRACKED = AdvancedCut("x>y", 7, lambda c: c["x"] > c["y"], ("x", "y"))

LITERALS = st.sampled_from([-5.0, 0.0, 10.0, 25.0, 50.0, 50.5, 75.0, 100.0, 120.0])


@st.composite
def atoms(draw, advanced=(X_LT_Y, Y_GT_50, UNTRACKED)):
    column = draw(st.sampled_from(["x", "y", "kind", "advanced"]))
    if column == "advanced":
        return draw(st.sampled_from(advanced))
    if column == "kind":
        codes = draw(st.lists(st.integers(-1, 5), min_size=1, max_size=3))
        return column_in("kind", sorted(set(float(c) for c in codes)))
    if draw(st.booleans()):
        return column_in(column, draw(st.lists(LITERALS, min_size=1, max_size=3)))
    builder = draw(st.sampled_from([column_lt, column_le, column_gt, column_ge, column_eq]))
    return builder(column, draw(LITERALS))


@st.composite
def predicates(draw, depth=2):
    kind = draw(st.sampled_from(["atom", "and", "or", "not"] if depth else ["atom"]))
    if kind == "atom":
        return draw(atoms())
    if kind == "not":
        return Not(draw(predicates(depth=depth - 1)))
    children = draw(st.lists(predicates(depth=depth - 1), min_size=2, max_size=3))
    return And(children) if kind == "and" else Or(children)


@st.composite
def cost_cases(draw):
    """A randomly grown tree, a workload and leaf sizes: some zero, some
    missing, and a leaf whose path cuts contradict each other (its
    sub-space is empty) holding rows anyway."""
    cuts = [draw(atoms((X_LT_Y, Y_GT_50))) for _ in range(draw(st.integers(1, 6)))]
    registry = CutRegistry(PROPERTY_SCHEMA, [X_LT_Y, Y_GT_50])
    tree = QdTree(PROPERTY_SCHEMA, registry)
    for _ in range(draw(st.integers(0, 8))):
        leaves = tree.leaves()
        leaf = leaves[draw(st.integers(0, len(leaves) - 1))]
        tree.apply_cut(leaf, cuts[draw(st.integers(0, len(cuts) - 1))])
    dead = tree.leaves()[draw(st.integers(0, len(tree.leaves()) - 1))]
    left, _ = tree.apply_cut(dead, column_lt("x", 30.0))
    dead, _ = tree.apply_cut(left, column_ge("x", 60.0))
    assert dead.description.hypercube.is_empty
    if draw(st.booleans()):
        tree.assign_block_ids()
    sizes = {}
    for leaf in tree.leaves():
        size = draw(st.one_of(st.none(), st.integers(0, 40)))
        if size is not None:
            sizes[leaf.node_id] = size
    sizes[dead.node_id] = draw(st.integers(1, 40))
    queries = draw(st.lists(predicates(), min_size=0, max_size=6))
    queries.append(column_lt("y", 50.0))  # one query the dead leaf's x can't rule out
    return tree, Workload([Query(q) for q in queries]), sizes


def oracle_accessed(tree, workload, sizes):
    return np.array(
        [
            sum(
                sizes.get(leaf.node_id, 0)
                for leaf in tree.leaves()
                if may_match(leaf.description, query.predicate)
            )
            for query in workload
        ],
        dtype=np.int64,
    )


def oracle_skips(tree, workload, sizes):
    skips = {}

    def visit(node):
        if node.is_leaf:
            missed = sum(
                not may_match(node.description, query.predicate) for query in workload
            )
            value = sizes.get(node.node_id, 0) * missed
        else:
            value = visit(node.left) + visit(node.right)
        skips[node.node_id] = value
        return value

    visit(tree.root)
    return skips


@given(cost_cases())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_array_cost_model_equals_the_scalar_oracle(case):
    """``per_query_accessed`` (``hits @ sizes``) and ``subtree_skips``
    (``size x missed queries`` per leaf, summed up) equal a loop of the
    scalar oracle over every (leaf, query) pair."""
    tree, workload, sizes = case
    accessed = per_query_accessed(tree, workload, sizes)
    assert accessed.dtype == np.int64
    np.testing.assert_array_equal(accessed, oracle_accessed(tree, workload, sizes))
    assert subtree_skips(tree, workload, sizes) == oracle_skips(tree, workload, sizes)
