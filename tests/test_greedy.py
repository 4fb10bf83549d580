"""Unit tests for repro.core.greedy (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import (
    ConstructionEnv,
    CutRegistry,
    GreedyConfig,
    Query,
    Workload,
    build_greedy_tree,
    column_lt,
    leaf_sizes,
    scan_ratio,
)
from repro.core.greedy import cut_gains
from repro.core.router import block_descriptions
from repro.workloads import disjunctive_dataset


class TestConstruction:
    def test_respects_min_leaf_size(self, mixed_schema, mixed_table, mixed_workload):
        reg = CutRegistry.from_workload(mixed_schema, mixed_workload)
        b = 100
        tree = build_greedy_tree(
            mixed_schema, reg, mixed_table, mixed_workload, GreedyConfig(b)
        )
        assert min(leaf_sizes(tree, mixed_table).values()) >= b

    def test_improves_over_single_block(
        self, mixed_schema, mixed_table, mixed_workload
    ):
        reg = CutRegistry.from_workload(mixed_schema, mixed_workload)
        tree = build_greedy_tree(
            mixed_schema, reg, mixed_table, mixed_workload, GreedyConfig(100)
        )
        sizes = leaf_sizes(tree, mixed_table)
        assert scan_ratio(tree, mixed_workload, sizes) < 1.0
        assert len(tree.leaves()) > 1

    def test_max_depth_cap(self, mixed_schema, mixed_table, mixed_workload):
        reg = CutRegistry.from_workload(mixed_schema, mixed_workload)
        tree = build_greedy_tree(
            mixed_schema,
            reg,
            mixed_table,
            mixed_workload,
            GreedyConfig(50, max_depth=1),
        )
        assert tree.depth() <= 1

    def test_invalid_b_rejected(self, mixed_schema, mixed_table, mixed_workload):
        reg = CutRegistry.from_workload(mixed_schema, mixed_workload)
        with pytest.raises(ValueError):
            build_greedy_tree(
                mixed_schema, reg, mixed_table, mixed_workload, GreedyConfig(0)
            )

    def test_block_ids_assigned(self, mixed_schema, mixed_table, mixed_workload):
        reg = CutRegistry.from_workload(mixed_schema, mixed_workload)
        tree = build_greedy_tree(
            mixed_schema, reg, mixed_table, mixed_workload, GreedyConfig(100)
        )
        assert all(l.block_id is not None for l in tree.leaves())


class TestGreedyPathology:
    """The paper's Fig. 3: greedy cannot exploit disjunctive queries."""

    def test_greedy_picks_only_disk_cut(self):
        ds = disjunctive_dataset(num_rows=20_000, seed=0)
        reg = ds.registry()
        tree = build_greedy_tree(
            ds.schema, reg, ds.table, ds.workload,
            GreedyConfig(ds.min_block_size),
        )
        hist = tree.cut_histogram()
        assert hist == {"disk": 1}

    def test_greedy_scan_ratio_matches_paper(self):
        ds = disjunctive_dataset(num_rows=20_000, seed=0)
        reg = ds.registry()
        tree = build_greedy_tree(
            ds.schema, reg, ds.table, ds.workload,
            GreedyConfig(ds.min_block_size),
        )
        sizes = leaf_sizes(tree, ds.table)
        ratio = scan_ratio(tree, ds.workload, sizes)
        # Paper reports 50.5%; sampling noise allows a small band.
        assert 0.48 < ratio < 0.53


class TestRelaxations:
    def test_allow_small_children_splits_tiny_regions(self):
        """With the Sec. 6.2 relaxation a sub-b region can be isolated."""
        rng = np.random.default_rng(0)
        from repro.storage import Schema, Table, numeric

        schema = Schema([numeric("x", (0.0, 1.0))])
        table = Table(schema, {"x": rng.uniform(0, 1, 10_000)})
        # Query selects ~0.5% of rows: below b = 100.
        wl = Workload([Query(column_lt("x", 0.005), name="tiny")])
        reg = CutRegistry.from_workload(schema, wl)
        strict = build_greedy_tree(
            schema, reg, table, wl, GreedyConfig(100)
        )
        relaxed = build_greedy_tree(
            schema, reg, table, wl, GreedyConfig(100, allow_small_children=True)
        )
        assert len(strict.leaves()) == 1  # cut illegal under strict b
        assert len(relaxed.leaves()) == 2

    def test_zero_gain_ablation_cuts_at_least_as_much(
        self, mixed_schema, mixed_table, mixed_workload
    ):
        reg = CutRegistry.from_workload(mixed_schema, mixed_workload)
        strict = build_greedy_tree(
            mixed_schema, reg, mixed_table, mixed_workload, GreedyConfig(100)
        )

        def zero_gain(episode, node, options):
            gains = cut_gains(episode, node, options)
            best = int(gains.argmax())
            return best if gains[best] >= 0 else None

        env = ConstructionEnv(mixed_schema, reg, mixed_table, mixed_workload, 100)
        eager = env.walk(zero_gain).tree
        assert len(eager.leaves()) >= len(strict.leaves())


class TestMonotonicity:
    def test_skipping_never_decreases_with_more_queries_served(
        self, mixed_schema, mixed_table
    ):
        """Greedy's objective C(T) is monotone along construction: the
        final tree skips at least as much as the singleton tree."""
        wl = Workload([Query(column_lt("age", 25), name="q")])
        reg = CutRegistry.from_workload(mixed_schema, wl)
        tree = build_greedy_tree(
            mixed_schema, reg, mixed_table, wl, GreedyConfig(100)
        )
        sizes = leaf_sizes(tree, mixed_table)
        assert scan_ratio(tree, wl, sizes) <= 1.0
        young = block_descriptions(None, tree).matching(column_lt("age", 25))
        assert len(young) < len(tree.leaves()) or len(tree.leaves()) == 1
