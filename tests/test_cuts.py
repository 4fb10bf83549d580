"""Unit tests for repro.core.cuts (registry + extraction)."""

import numpy as np
import pytest

from repro.core import (
    AdvancedCut,
    CutRegistry,
    Query,
    Workload,
    column_eq,
    column_gt,
    column_in,
    column_lt,
    conjunction,
    disjunction,
    extract_candidate_cuts,
)
from repro.storage import Table


class TestExtraction:
    def test_extracts_all_unary_predicates(self, mixed_schema):
        wl = Workload(
            [
                Query(
                    conjunction([column_lt("age", 30), column_eq("city", 1)]),
                    name="a",
                )
            ]
        )
        cuts = extract_candidate_cuts(wl, mixed_schema)
        assert column_lt("age", 30) in cuts
        assert column_eq("city", 1) in cuts
        assert len(cuts) == 2

    def test_duplicates_collapsed(self, mixed_schema):
        q = Query(column_lt("age", 30), name="a")
        wl = Workload([q, q, Query(column_lt("age", 30), name="b")])
        assert len(extract_candidate_cuts(wl, mixed_schema)) == 1

    def test_disjunction_leaves_extracted(self, mixed_schema):
        wl = Workload(
            [
                Query(
                    disjunction([column_lt("age", 10), column_gt("age", 90)]),
                    name="a",
                )
            ]
        )
        cuts = extract_candidate_cuts(wl, mixed_schema)
        assert len(cuts) == 2

    def test_unknown_column_raises(self, mixed_schema):
        wl = Workload([Query(column_lt("bogus", 1), name="a")])
        with pytest.raises(ValueError):
            extract_candidate_cuts(wl, mixed_schema)

    def test_advanced_cut_canonicalized_positive(self, mixed_schema):
        cut = AdvancedCut("a", 0, lambda c: c["age"] > 0, positive=False)
        wl = Workload([Query(cut, name="a")])
        cuts = extract_candidate_cuts(wl, mixed_schema)
        assert len(cuts) == 1
        assert cuts[0].positive


class TestRegistry:
    def test_add_idempotent(self, mixed_schema):
        reg = CutRegistry(mixed_schema)
        i = reg.add(column_lt("age", 30))
        j = reg.add(column_lt("age", 30))
        assert i == j
        assert len(reg) == 1

    def test_index_roundtrip(self, mixed_schema):
        reg = CutRegistry(mixed_schema)
        cut = column_eq("city", 2)
        idx = reg.add(cut)
        assert reg.cut(idx) == cut
        assert reg.index_of(cut) == idx

    def test_index_of_unregistered_raises(self, mixed_schema):
        reg = CutRegistry(mixed_schema)
        with pytest.raises(KeyError):
            reg.index_of(column_lt("age", 99))

    def test_unknown_column_rejected(self, mixed_schema):
        reg = CutRegistry(mixed_schema)
        with pytest.raises(ValueError):
            reg.add(column_lt("bogus", 1))

    def test_range_cut_on_categorical_rejected(self, mixed_schema):
        reg = CutRegistry(mixed_schema)
        with pytest.raises(ValueError):
            reg.add(column_lt("city", 2))

    def test_boolean_predicate_rejected(self, mixed_schema):
        reg = CutRegistry(mixed_schema)
        with pytest.raises(TypeError):
            reg.add(conjunction([column_lt("age", 1), column_lt("age", 2)]))

    def test_advanced_cut_indices_preserved(self, mixed_schema):
        cut0 = AdvancedCut("a", 0, lambda c: c["age"] > 0)
        cut2 = AdvancedCut("b", 2, lambda c: c["age"] > 1)
        reg = CutRegistry(mixed_schema, [cut0, cut2])
        assert reg.num_advanced_cuts == 3  # sized by max index + 1

    def test_conflicting_advanced_index_rejected(self, mixed_schema):
        cut0 = AdvancedCut("a", 0, lambda c: c["age"] > 0)
        other = AdvancedCut("b", 0, lambda c: c["age"] > 1)
        reg = CutRegistry(mixed_schema, [cut0])
        with pytest.raises(ValueError):
            reg.add(other)

    def test_from_workload(self, mixed_schema, mixed_workload):
        reg = CutRegistry.from_workload(mixed_schema, mixed_workload)
        assert len(reg) == 5  # age>=30, age<40, city=sf, level=senior, salary>=150k

    def test_evaluate_all_shape(self, mixed_schema, mixed_workload, mixed_table):
        reg = CutRegistry.from_workload(mixed_schema, mixed_workload)
        masks = reg.evaluate_all(mixed_table.columns(), mixed_table.num_rows)
        assert masks.shape == (mixed_table.num_rows, len(reg))
        assert masks.dtype == bool

    def test_evaluate_all_matches_individual(self, mixed_schema, mixed_table):
        reg = CutRegistry(mixed_schema)
        reg.add(column_lt("age", 40))
        masks = reg.evaluate_all(mixed_table.columns(), mixed_table.num_rows)
        np.testing.assert_array_equal(
            masks[:, 0], mixed_table.column("age") < 40
        )

    @pytest.mark.parametrize("num_rows", [0, 8191, 8192, 20_000])
    def test_evaluate_all_across_slabs(self, mixed_schema, num_rows):
        """Rows are filled a slab at a time; every slab edge lines up."""
        rng = np.random.default_rng(3)
        table = Table(
            mixed_schema,
            {
                "age": rng.integers(0, 100, num_rows).astype(float),
                "salary": rng.uniform(0, 200_000, num_rows),
                "city": rng.integers(0, 4, num_rows),
                "level": rng.integers(0, 3, num_rows),
            },
        )
        reg = CutRegistry(mixed_schema)
        for cut in (
            column_lt("age", 40),
            column_in("city", [0, 2]),
            AdvancedCut("rich-young", 0, lambda c: c["salary"] > 2000 * c["age"]),
        ):
            reg.add(cut)
        masks = reg.evaluate_all(table.columns(), num_rows)
        assert masks.shape == (num_rows, len(reg))
        for i, cut in enumerate(reg.cuts):
            np.testing.assert_array_equal(masks[:, i], cut.evaluate(table.columns()))

    def test_columns_used(self, mixed_schema, mixed_workload):
        reg = CutRegistry.from_workload(mixed_schema, mixed_workload)
        assert set(reg.columns_used()) == {"age", "city", "level", "salary"}
