"""Unit tests for repro.rl.woodblock (the deep-RL agent)."""

import numpy as np
import pytest

from repro.core import CutRegistry, leaf_sizes, scan_ratio
from repro.rl import Woodblock, WoodblockConfig
from repro.workloads import disjunctive_dataset


@pytest.fixture(scope="module")
def small_setup():
    ds = disjunctive_dataset(num_rows=10_000, seed=0)
    registry = ds.registry()
    return ds, registry


def make_agent(ds, registry, **overrides):
    defaults = dict(
        min_leaf_size=ds.min_block_size,
        episodes=10,
        hidden_dim=32,
        seed=0,
    )
    defaults.update(overrides)
    return Woodblock(
        ds.schema, registry, ds.table, ds.workload, WoodblockConfig(**defaults)
    )


class TestLegality:
    def test_root_has_legal_cuts(self, small_setup):
        ds, registry = small_setup
        agent = make_agent(ds, registry)
        mask = agent.legal_actions(np.arange(ds.table.num_rows))
        assert mask.any()

    def test_small_node_has_no_legal_cuts(self, small_setup):
        ds, registry = small_setup
        agent = make_agent(ds, registry)
        mask = agent.legal_actions(np.arange(5))
        assert not mask.any()

    def test_relaxed_mode_allows_small_children(self, small_setup):
        ds, registry = small_setup
        strict = make_agent(ds, registry)
        relaxed = make_agent(ds, registry, allow_small_children=True)
        indices = np.arange(ds.table.num_rows)
        assert relaxed.legal_actions(indices).sum() >= (
            strict.legal_actions(indices).sum()
        )

    def test_empty_registry_rejected(self, small_setup):
        ds, _ = small_setup
        empty = CutRegistry(ds.schema)
        with pytest.raises(ValueError):
            Woodblock(
                ds.schema, empty, ds.table, ds.workload,
                WoodblockConfig(min_leaf_size=10),
            )

    def test_bad_min_leaf_size_rejected(self, small_setup):
        ds, registry = small_setup
        with pytest.raises(ValueError):
            make_agent(ds, registry, min_leaf_size=0)


class TestEpisodes:
    def test_episode_produces_valid_tree(self, small_setup):
        ds, registry = small_setup
        agent = make_agent(ds, registry)
        result = agent.run_episode()
        assert min(leaf_sizes(result.tree, ds.table).values()) >= 1
        assert 0.0 <= result.scan_ratio <= 1.0

    def test_episode_rewards_in_unit_interval(self, small_setup):
        ds, registry = small_setup
        agent = make_agent(ds, registry)
        result = agent.run_episode()
        assert (result.rewards >= 0).all() and (result.rewards <= 1).all()
        assert len(result.rewards) == len(result.transitions)

    def test_scan_ratio_consistent_with_cost_model(self, small_setup):
        ds, registry = small_setup
        agent = make_agent(ds, registry)
        result = agent.run_episode()
        sizes = leaf_sizes(result.tree, ds.table)
        independent = scan_ratio(result.tree, ds.workload, sizes)
        assert independent == pytest.approx(result.scan_ratio, abs=1e-9)

    def test_deterministic_episode_reproducible(self, small_setup):
        ds, registry = small_setup
        a1 = make_agent(ds, registry)
        a2 = make_agent(ds, registry)
        r1 = a1.run_episode(deterministic=True)
        r2 = a2.run_episode(deterministic=True)
        assert r1.scan_ratio == r2.scan_ratio
        assert r1.tree.num_nodes == r2.tree.num_nodes


class TestTraining:
    def test_train_returns_best_tree(self, small_setup):
        ds, registry = small_setup
        agent = make_agent(ds, registry, episodes=8)
        result = agent.train()
        assert result.best_tree is not None
        assert result.episodes_run == 8
        assert len(result.curve) == 8

    def test_best_ratio_monotone_in_curve(self, small_setup):
        ds, registry = small_setup
        agent = make_agent(ds, registry, episodes=10)
        result = agent.train()
        best = [p.best_scan_ratio for p in result.curve]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best, best[1:]))

    def test_best_ratio_is_min_of_episodes(self, small_setup):
        ds, registry = small_setup
        agent = make_agent(ds, registry, episodes=10)
        result = agent.train()
        episode_ratios = [p.episode_scan_ratio for p in result.curve]
        assert result.best_scan_ratio == pytest.approx(min(episode_ratios))

    def test_time_budget_respected(self, small_setup):
        ds, registry = small_setup
        agent = make_agent(ds, registry, episodes=10_000)
        result = agent.train(time_budget_seconds=1.0)
        assert result.episodes_run < 10_000

    def test_updates_happen(self, small_setup):
        ds, registry = small_setup
        agent = make_agent(ds, registry, episodes=8, episodes_per_update=4)
        result = agent.train()
        assert len(result.update_stats) == 2

    def test_seed_reproducibility(self, small_setup):
        ds, registry = small_setup
        r1 = make_agent(ds, registry, episodes=5, seed=7).train()
        r2 = make_agent(ds, registry, episodes=5, seed=7).train()
        assert r1.best_scan_ratio == pytest.approx(r2.best_scan_ratio)

    def test_beats_greedy_on_disjunctive_workload(self, small_setup):
        """The headline Fig. 3 result: RL escapes the greedy trap."""
        from repro.core import GreedyConfig, build_greedy_tree

        ds, registry = small_setup
        greedy = build_greedy_tree(
            ds.schema, registry, ds.table, ds.workload,
            GreedyConfig(ds.min_block_size),
        )
        g_ratio = scan_ratio(
            greedy, ds.workload, leaf_sizes(greedy, ds.table)
        )
        agent = make_agent(ds, registry, episodes=40, seed=3)
        result = agent.train()
        assert result.best_scan_ratio < g_ratio


class TestCheckpointing:
    def test_save_load_roundtrip(self, small_setup, tmp_path):
        ds, registry = small_setup
        agent = make_agent(ds, registry, episodes=5)
        agent.train()
        path = str(tmp_path / "policy.npz")
        agent.save_policy(path)
        fresh = make_agent(ds, registry, episodes=5)
        fresh.load_policy(path)
        r1 = agent.run_episode(deterministic=True)
        r2 = fresh.run_episode(deterministic=True)
        assert r1.scan_ratio == pytest.approx(r2.scan_ratio)
        assert r1.tree.num_nodes == r2.tree.num_nodes

    def test_load_mismatched_shape_fails(self, small_setup, tmp_path):
        ds, registry = small_setup
        agent = make_agent(ds, registry)
        path = str(tmp_path / "policy.npz")
        agent.save_policy(path)
        other = make_agent(ds, registry, hidden_dim=16)
        with pytest.raises(ValueError):
            other.load_policy(path)
