"""The construction environment (repro.core.construct) and its two policies.

Three layers of guarantees:

1. **Bit-identical construction** — greedy trees equal the goldens
   captured before Algorithm 1 and Woodblock shared one walk
   (``tests/golden/greedy_trees.json``: ``QdTree.to_dict()`` stored
   column-wise); Woodblock is deterministic for a seed.
2. **Incremental == from scratch** — after any random legal walk the
   environment's hit vectors, sizes, ``S(n)`` and scan ratio equal a
   recomputation through ``may_match`` / ``repro.core.cost``, and its
   row sets equal ``tree.route_table``.
3. **One statement of each rule** — enforced structurally, by reading
   the sources: the policies contain no legality test, hit loop or
   mask indexing, and a built tree carries no construction state.
"""

import gc
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ConstructionEnv,
    CutRegistry,
    GreedyConfig,
    QdTree,
    build_greedy_tree,
    leaf_sizes,
    scan_ratio,
    subtree_skips,
)
from repro.core.construct import Episode
from repro.core.node import NodeDescription, QdNode
from repro.core.predicates import Predicate
from repro.db import Database
from repro.rl import Woodblock, WoodblockConfig
from repro.workloads import disjunctive_dataset, tpch_dataset

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"
GOLDEN = json.loads((ROOT / "tests" / "golden" / "greedy_trees.json").read_text())
NODE_KEYS = ("id", "depth", "parent", "block_id", "cut", "left", "right")


@pytest.fixture(scope="module")
def tpch():
    return tpch_dataset(num_rows=20_000, seeds_per_template=2, seed=0)


def columnar(tree: QdTree) -> dict:
    """``tree.to_dict()`` with the node entries stored column-wise."""
    data = tree.to_dict()
    return {
        "num_advanced_cuts": data["num_advanced_cuts"],
        **{key: [e.get(key) for e in data["nodes"]] for key in NODE_KEYS},
    }


# ----------------------------------------------------------------------
# 1. Bit-identical construction
# ----------------------------------------------------------------------


class TestGreedyGoldens:
    @pytest.mark.parametrize("relaxed", [False, True], ids=["strict", "relaxed"])
    def test_mixed(self, mixed_schema, mixed_table, mixed_workload, relaxed):
        registry = CutRegistry.from_workload(mixed_schema, mixed_workload)
        tree = build_greedy_tree(
            mixed_schema,
            registry,
            mixed_table,
            mixed_workload,
            GreedyConfig(100, allow_small_children=relaxed),
        )
        assert columnar(tree) == GOLDEN[f"mixed-{'relaxed' if relaxed else 'strict'}"]

    @pytest.mark.parametrize("relaxed", [False, True], ids=["strict", "relaxed"])
    def test_tpch(self, tpch, relaxed):
        tree = build_greedy_tree(
            tpch.schema,
            tpch.registry(),
            tpch.table,
            tpch.workload,
            GreedyConfig(tpch.min_block_size, allow_small_children=relaxed),
        )
        assert columnar(tree) == GOLDEN[f"tpch-{'relaxed' if relaxed else 'strict'}"]


def test_woodblock_same_seed_twice_is_identical():
    ds = disjunctive_dataset(num_rows=10_000, seed=0)

    def train():
        agent = Woodblock(
            ds.schema,
            ds.registry(),
            ds.table,
            ds.workload,
            WoodblockConfig(ds.min_block_size, episodes=6, hidden_dim=32, seed=3),
        )
        rewards = [agent.run_episode().rewards.tolist() for _ in range(2)]
        result = agent.train()
        return (
            rewards,
            result.best_tree.to_dict(),
            result.best_scan_ratio,
            [(p.episode, p.episode_scan_ratio, p.best_scan_ratio) for p in result.curve],
            agent.rng.bit_generator.state,
        )

    assert train() == train()


# ----------------------------------------------------------------------
# 2. Incremental bookkeeping == from-scratch recomputation
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def walk_envs(tpch):
    table = tpch.table.take(np.arange(3000))
    registry = tpch.registry()
    return {
        relaxed: ConstructionEnv(
            tpch.schema, registry, table, tpch.workload, 150, relaxed
        )
        for relaxed in (False, True)
    }


class TestIncrementalEqualsFromScratch:
    @given(st.integers(0, 10_000), st.booleans(), st.integers(0, 12))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_after_any_random_legal_walk(self, walk_envs, seed, relaxed, max_splits):
        env = walk_envs[relaxed]
        rng = np.random.default_rng(seed)
        budget = [max_splits]

        def choose_random(episode, node, options):
            if budget[0] == 0:
                return None
            budget[0] -= 1
            return int(rng.choice(np.flatnonzero(options.legal)))

        episode = env.walk(choose_random)
        tree, sample, workload = episode.tree, env.sample, env.workload

        for node in tree.nodes():
            np.testing.assert_array_equal(
                episode.hits[node.node_id],
                [node.description.may_match(q.predicate) for q in workload],
            )
        sizes = leaf_sizes(tree, sample)
        leaf_ids = {leaf.node_id for leaf in tree.leaves()}
        assert {i: episode.sizes[i] for i in leaf_ids} == sizes
        assert episode.subtree_skips() == subtree_skips(tree, workload, sizes)
        assert episode.scan_ratio() == pytest.approx(
            scan_ratio(tree, workload, sizes), abs=1e-12
        )
        assert set(episode.rows) == leaf_ids
        assignment = tree.route_table(sample)
        for leaf_id, rows in episode.rows.items():
            np.testing.assert_array_equal(rows, np.flatnonzero(assignment == leaf_id))
        b = env.min_leaf_size
        if relaxed:
            assert all(n >= 1 for n in sizes.values())
        else:
            assert all(n >= b for n in sizes.values())


def test_scored_child_hits_equal_applied_child_hits(walk_envs):
    """What a chooser scores (``child_hits``) is what ``split`` installs."""
    env = walk_envs[False]
    scored, applied = Episode(env), Episode(env)
    action = int(np.flatnonzero(env.legal_cuts(scored.rows[0]).legal)[0])
    expected = scored.child_hits(scored.tree.root, action)
    for episode in (scored, applied):
        left, right = episode.split(episode.tree.root, action)
        np.testing.assert_array_equal(episode.hits[left.node_id], expected[0])
        np.testing.assert_array_equal(episode.hits[right.node_id], expected[1])


# ----------------------------------------------------------------------
# 3. Structural guards
# ----------------------------------------------------------------------

POLICY_FILES = [SRC / "core" / "greedy.py", SRC / "rl" / "woodblock.py"]


@pytest.mark.parametrize("path", POLICY_FILES, ids=lambda p: p.name)
def test_policies_state_no_mdp_rule(path):
    source = path.read_text()
    assert "may_match(" not in source
    assert "cut_masks[" not in source
    assert not re.search(r"\bif\b[^\n]*allow_small_children", source)
    assert "evaluate_all" not in source


def test_nothing_imports_greedy_privates():
    for path in SRC.rglob("*.py"):
        assert not re.search(
            r"from\s+\S*core\.greedy\s+import\s+[^\n]*\b_", path.read_text()
        ), path
    for path in (SRC / "rl").glob("*.py"):
        for line in path.read_text().splitlines():
            if re.match(r"\s*from\s+\.\.core\S*\s+import", line):
                assert not re.search(r"import\s+.*\b_\w+", line), (path, line)


def test_tree_carries_no_construction_state():
    assert "sample_indices" not in QdNode.__slots__
    for name in ("attach_sample", "sample_columns", "_sample_columns"):
        assert not hasattr(QdTree, name)


def test_built_layout_tree_reaches_no_arrays_but_description_masks(tpch):
    db = Database.from_table(tpch.table, min_block_size=tpch.min_block_size)
    handle = db.build_layout("greedy", workload=tpch.workload)
    seen, stack, arrays = set(), list(handle.tree.nodes()), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (NodeDescription, type)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            arrays.append(obj)
        elif isinstance(obj, (QdNode, Predicate, list, tuple, dict, frozenset)):
            stack.extend(gc.get_referents(obj))
    assert arrays == []
    assert not any(
        isinstance(v, np.ndarray) for v in vars(handle.tree).values()
    )

