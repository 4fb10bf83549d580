"""Unit tests for repro.core.node (semantic descriptions)."""

import numpy as np
import pytest

from repro.core import (
    AdvancedCut,
    NodeDescription,
    column_eq,
    column_ge,
    column_in,
    column_le,
    column_lt,
    conjunction,
    disjunction,
)
from repro.core.predicates import Not
from repro.core.router import PruningTable
from repro.storage import MinMaxIndex


def may_match(description, predicate):
    """The production matcher on one description: a one-row table."""
    table = PruningTable.from_rows(description.schema, [(0, description, None)])
    return bool(table.match(predicate)[0])


@pytest.fixture
def root_desc(mixed_schema):
    return NodeDescription.root(mixed_schema, num_advanced_cuts=2)


class TestRootDescription:
    def test_numeric_domains(self, root_desc):
        iv = root_desc.hypercube.interval("age")
        assert (iv.lo, iv.hi) == (0, 100)

    def test_categorical_masks_full(self, root_desc):
        assert root_desc.categorical_masks["city"].all()
        assert len(root_desc.categorical_masks["city"]) == 4

    def test_advanced_bits_set(self, root_desc):
        assert root_desc.adv_true.all() and root_desc.adv_false.all()
        assert len(root_desc.adv_true) == 2


class TestSplitRange:
    def test_range_cut_narrows_both_sides(self, root_desc):
        left, right = root_desc.split(column_lt("age", 40))
        assert left.hypercube.interval("age").hi == 40
        assert not left.hypercube.interval("age").hi_inclusive
        assert right.hypercube.interval("age").lo == 40
        assert right.hypercube.interval("age").lo_inclusive

    def test_sides_are_disjoint(self, root_desc):
        left, right = root_desc.split(column_le("age", 40))
        li = left.hypercube.interval("age")
        ri = right.hypercube.interval("age")
        assert not li.intersects(ri)

    def test_parent_untouched(self, root_desc):
        root_desc.split(column_lt("age", 40))
        assert root_desc.hypercube.interval("age").hi == 100

    def test_numeric_eq_cut(self, root_desc):
        left, right = root_desc.split(column_eq("age", 42))
        assert left.hypercube.interval("age").lo == 42
        assert left.hypercube.interval("age").hi == 42
        # Right keeps the hull (two-sided complement not representable).
        assert right.hypercube.interval("age").hi == 100


class TestSplitCategorical:
    def test_eq_cut_masks(self, root_desc, mixed_schema):
        sf = mixed_schema.encode_literal("city", "sf")
        left, right = root_desc.split(column_eq("city", sf))
        assert left.categorical_masks["city"].tolist() == [False, True, False, False]
        assert right.categorical_masks["city"].tolist() == [True, False, True, True]

    def test_in_cut_masks(self, root_desc, mixed_schema):
        codes = mixed_schema.encode_literals("city", ["nyc", "aus"])
        left, right = root_desc.split(column_in("city", codes))
        assert left.categorical_masks["city"].tolist() == [True, False, False, True]
        assert right.categorical_masks["city"].tolist() == [False, True, True, False]

    def test_nested_cuts_accumulate(self, root_desc, mixed_schema):
        codes = mixed_schema.encode_literals("city", ["nyc", "sf"])
        left, _ = root_desc.split(column_in("city", codes))
        left2, right2 = left.split(column_eq("city", 0))
        assert left2.categorical_masks["city"].tolist() == [True, False, False, False]
        assert right2.categorical_masks["city"].tolist() == [False, True, False, False]


class TestSplitAdvanced:
    def make_cut(self, index=0):
        return AdvancedCut("adv", index, lambda c: c["age"] > c["salary"])

    def test_split_sets_bits(self, root_desc):
        left, right = root_desc.split(self.make_cut())
        assert left.adv_true[0] and not left.adv_false[0]
        assert not right.adv_true[0] and right.adv_false[0]

    def test_other_bits_untouched(self, root_desc):
        left, right = root_desc.split(self.make_cut(index=0))
        assert left.adv_true[1] and left.adv_false[1]

    def test_out_of_range_index_raises(self, root_desc):
        with pytest.raises(IndexError):
            root_desc.split(self.make_cut(index=7))


class TestMayMatch:
    def test_range_pruning(self, root_desc):
        left, right = root_desc.split(column_lt("age", 40))
        q = column_ge("age", 60)
        assert not may_match(left, q)
        assert may_match(right, q)

    def test_categorical_pruning(self, root_desc, mixed_schema):
        sf = mixed_schema.encode_literal("city", "sf")
        nyc = mixed_schema.encode_literal("city", "nyc")
        left, right = root_desc.split(column_eq("city", sf))
        assert may_match(left, column_eq("city", sf))
        assert not may_match(left, column_eq("city", nyc))
        assert not may_match(right, column_eq("city", sf))

    def test_and_prunes_if_any_conjunct_cannot(self, root_desc):
        left, _ = root_desc.split(column_lt("age", 40))
        q = conjunction([column_lt("age", 30), column_ge("age", 50)])
        assert not may_match(left, q)

    def test_or_matches_if_any_disjunct_can(self, root_desc):
        left, _ = root_desc.split(column_lt("age", 40))
        q = disjunction([column_ge("age", 90), column_lt("age", 10)])
        assert may_match(left, q)

    def test_negated_equality(self, root_desc, mixed_schema):
        sf = mixed_schema.encode_literal("city", "sf")
        left, right = root_desc.split(column_eq("city", sf))
        q = Not(column_eq("city", sf))
        # Left holds only sf rows: cannot match "city != sf".
        assert not may_match(left, q)
        assert may_match(right, q)

    def test_advanced_bits_prune_both_polarities(self, root_desc):
        cut = AdvancedCut("adv", 0, lambda c: c["age"] > 0)
        left, right = root_desc.split(cut)
        assert may_match(left, cut)
        assert not may_match(left, cut.negate())
        assert not may_match(right, cut)
        assert may_match(right, cut.negate())

    def test_in_query_against_range(self, root_desc):
        left, _ = root_desc.split(column_lt("age", 40))
        assert may_match(left, column_in("age", [10, 80]))
        assert not may_match(left, column_in("age", [60, 80]))

    def test_empty_description_matches_nothing(self, root_desc):
        left, _ = root_desc.split(column_lt("age", 40))
        dead, _ = left.split(column_ge("age", 60))
        assert dead.hypercube.is_empty
        assert not may_match(dead, column_lt("age", 100))


class TestMatchesRows:
    def test_range_and_mask(self, root_desc, mixed_schema, mixed_table):
        sf = mixed_schema.encode_literal("city", "sf")
        left, _ = root_desc.split(column_lt("age", 40))
        left2, _ = left.split(column_eq("city", sf))
        mask = left2.matches_rows(mixed_table.columns())
        expected = (mixed_table.column("age") < 40) & (
            mixed_table.column("city") == sf
        )
        np.testing.assert_array_equal(mask, expected)

    def test_full_description_matches_everything(self, root_desc, mixed_table):
        assert root_desc.matches_rows(mixed_table.columns()).all()


class TestTighten:
    def test_tighten_shrinks_to_data(self, root_desc, mixed_table):
        sub = mixed_table.filter(mixed_table.column("age") < 20)
        tight = root_desc.tighten(MinMaxIndex.build(sub))
        iv = tight.hypercube.interval("age")
        assert iv.lo == sub.column("age").min()
        assert iv.hi == sub.column("age").max()

    def test_tighten_categorical_masks(self, root_desc, mixed_table):
        sub = mixed_table.filter(mixed_table.column("city") == 2)
        tight = root_desc.tighten(MinMaxIndex.build(sub))
        assert tight.categorical_masks["city"].tolist() == [
            False,
            False,
            True,
            False,
        ]

    def test_tighten_empty_is_noop(self, root_desc, mixed_schema):
        from repro.storage import Table

        empty = Table.empty(mixed_schema)
        tight = root_desc.tighten(MinMaxIndex.build(empty))
        assert tight.hypercube.interval("age").hi == 100

    def test_tighten_never_loses_rows(self, root_desc, mixed_table):
        """Tightened descriptions still match all their own rows."""
        sub = mixed_table.filter(mixed_table.column("salary") > 100_000)
        tight = root_desc.tighten(MinMaxIndex.build(sub))
        assert tight.matches_rows(sub.columns()).all()
