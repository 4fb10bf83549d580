"""The construction environment (repro.core.construct) and its two policies.

Three layers of guarantees:

1. **Bit-identical construction** — greedy trees equal the goldens
   captured before Algorithm 1 and Woodblock shared one walk
   (``tests/golden/greedy_trees.json``: ``QdTree.to_dict()`` stored
   column-wise); Woodblock is deterministic for a seed.
2. **Incremental == from scratch** — after any random legal walk the
   environment's hit vectors, sizes, ``S(n)`` and scan ratio equal a
   recomputation through the scalar oracle / ``repro.core.cost``, and
   its row sets equal ``tree.route_table``; at every node of such walks
   the candidate children scored in one table equal
   ``description.split`` + the scalar oracle cut by cut.
3. **One statement of each rule** — enforced structurally, by reading
   the sources and counting calls: the policies contain no legality
   test, hit loop or mask indexing, a walk makes no scalar hit test,
   and a built tree carries no construction state.
"""

import gc
import itertools
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AdvancedCut,
    ColumnPredicate,
    ConstructionEnv,
    CutRegistry,
    GreedyConfig,
    Not,
    Op,
    QdTree,
    Query,
    Workload,
    build_greedy_tree,
    column_eq,
    column_in,
    column_lt,
    leaf_sizes,
    scan_ratio,
    subtree_skips,
)
from repro.core.construct import Episode
from repro.core.greedy import choose_max_gain
from repro.core.hypercube import Hypercube, Interval
from repro.core.node import NodeDescription, QdNode
from repro.core.predicates import Predicate
from repro.core.router import PruningTable
from repro.db import Database
from repro.rl import Woodblock, WoodblockConfig
from repro.storage import Schema, categorical, numeric
from repro.workloads import disjunctive_dataset, tpch_dataset
from scalar_oracle import may_match

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


#: Cuts and queries the TPC-H workload does not propose, so a walk meets
#: every kind of cut side: numeric ``=`` (the right side keeps the
#: parent's hull), numeric ``IN`` (the left side is the literals' hull),
#: a literal below the domain (an empty left side) and a new categorical
#: ``IN``.  The workload's own cuts add ranges, categorical ``=``/``IN``
#: and advanced cuts.
EXTRA_CUTS = [
    column_eq("l_quantity", 10),
    column_in("l_quantity", [5, 17, 40]),
    column_lt("l_quantity", -5),
    column_in("l_shipmode", [2, 3, 6]),
]
EXTRA_QUERIES = [
    Query(column_eq("l_quantity", 10)),
    Query(Not(column_eq("l_quantity", 10))),
    Query(column_in("l_quantity", [17, 30])),
    Query(Not(column_in("l_shipmode", [2, 3]))),
]


@pytest.fixture(scope="module")
def walk_envs(tpch):
    table = tpch.table.take(np.arange(3000))
    registry = tpch.registry()
    for cut in EXTRA_CUTS:
        registry.add(cut)
    workload = Workload(list(tpch.workload) + EXTRA_QUERIES)
    return {
        relaxed: ConstructionEnv(tpch.schema, registry, table, workload, 150, relaxed)
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
                [may_match(node.description, q.predicate) for q in workload],
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
    """What a chooser scores (``child_hits``, every legal cut at once)
    is what ``split`` installs — also when nothing was scored."""
    env = walk_envs[False]
    scored, applied = Episode(env), Episode(env)
    actions = np.flatnonzero(env.legal_cuts(scored.rows[0]).legal)
    i = len(actions) // 2
    left_hits, right_hits = scored.child_hits(scored.tree.root, actions)
    for episode in (scored, applied):
        left, right = episode.split(episode.tree.root, int(actions[i]))
        np.testing.assert_array_equal(episode.hits[left.node_id], left_hits[i])
        np.testing.assert_array_equal(episode.hits[right.node_id], right_hits[i])


def names_the_cut(predicate: Predicate, cut: Predicate) -> bool:
    """Does ``predicate`` reference ``cut``'s column (advanced slot)?"""
    for leaf in predicate.leaves():
        if isinstance(cut, AdvancedCut):
            if isinstance(leaf, AdvancedCut) and leaf.index == cut.index:
                return True
        elif isinstance(leaf, ColumnPredicate) and leaf.column in cut.referenced_columns():
            return True
    return False


def side_kind(env, cut: Predicate, side: int, child: NodeDescription):
    """Which case of the narrowing rule one cut side exercises."""
    if child.hypercube.is_empty:
        return "empty side"
    if isinstance(cut, AdvancedCut):
        return "advanced"
    numeric = env.schema[cut.column].is_numeric
    if cut.op is Op.EQ and numeric and side == 1:
        return "numeric = keeps the hull"
    if cut.op is Op.IN:
        return "numeric IN hull" if numeric and side == 0 else "categorical IN"
    return None


class TestBatchedCandidateHits:
    """At every node of a random legal walk, the hits of all candidate
    children scored in one table equal the scalar rule they replaced:
    ``description.split(cut)``, then ``may_match`` for each query the
    node may hold and the cut names — every other query keeps the
    node's hit.  For a legal cut that is plain from-scratch
    ``may_match`` of the child."""

    @given(st.integers(0, 10_000), st.booleans(), st.integers(0, 6))
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_equal_scalar_split_then_may_match(self, walk_envs, seed, relaxed, max_splits):
        env = walk_envs[relaxed]
        cuts = env.registry.cuts
        preds = [q.predicate for q in env.workload]
        named = np.array([[names_the_cut(p, cut) for p in preds] for cut in cuts])
        rng = np.random.default_rng(seed)
        budget = [max_splits]
        kinds = set()

        def choose_checking(episode, node, options):
            parent = episode.hits[node.node_id]
            batched = episode.child_hits(node, np.arange(len(cuts)))
            for action, cut in enumerate(cuts):
                changes = parent & named[action]
                for side, child in enumerate(node.description.split(cut)):
                    scratch = np.array([may_match(child, p) for p in preds])
                    got = batched[side][action]
                    np.testing.assert_array_equal(got, np.where(changes, scratch, parent))
                    if options.legal[action]:
                        np.testing.assert_array_equal(got, scratch)
                    if changes.any():
                        kinds.add(side_kind(env, cut, side, child))
            if budget[0] == 0:
                return None
            budget[0] -= 1
            return int(rng.choice(np.flatnonzero(options.legal)))

        env.walk(choose_checking)
        assert kinds >= {
            "empty side",
            "advanced",
            "numeric = keeps the hull",
            "numeric IN hull",
            "categorical IN",
        }


def test_narrowed_is_the_scalar_meet_row_by_row():
    """``PruningTable.narrowed`` against ``Interval.intersect``, mask AND
    and bit AND — every interval over bounds 1..3 with every pair of
    inclusive flags met with every other, so each tie rule is hit."""
    schema = Schema([numeric("x", (0, 4)), categorical("k", ["a", "b", "c"])])
    intervals = [
        Interval(lo, hi, lo_inc, hi_inc)
        for lo, hi in itertools.combinations_with_replacement((1.0, 2.0, 3.0), 2)
        for lo_inc, hi_inc in itertools.product((True, False), repeat=2)
    ]
    masks = [np.array(bits) for bits in itertools.product((False, True), repeat=3)]
    bits = [np.array(b) for b in itertools.product((False, True), repeat=2)]
    descriptions = [
        NodeDescription(
            schema,
            Hypercube({"x": iv}),
            {"k": masks[i % len(masks)]},
            bits[i % len(bits)],
            bits[(i // len(bits)) % len(bits)],
        )
        for i, iv in enumerate(intervals)
    ]
    sides = PruningTable.from_rows(
        schema, [(i, d, None) for i, d in enumerate(descriptions)]
    )
    for node in descriptions:
        own = PruningTable.from_rows(schema, [(0, node, None)])
        children = own.narrowed(sides, np.arange(len(descriptions)))
        assert children.bids == tuple(range(len(descriptions)))
        for i, side in enumerate(descriptions):
            meet = node.hypercube.interval("x").intersect(side.hypercube.interval("x"))
            assert children.alive[i] == (not meet.is_empty)
            if not meet.is_empty:
                assert (
                    children.lo["x"][i],
                    children.hi["x"][i],
                    children.lo_inclusive["x"][i],
                    children.hi_inclusive["x"][i],
                ) == (meet.lo, meet.hi, meet.lo_inclusive, meet.hi_inclusive)
            np.testing.assert_array_equal(
                children.categorical["k"][i],
                node.categorical_masks["k"] & side.categorical_masks["k"],
            )
            np.testing.assert_array_equal(children.adv_true[i], node.adv_true & side.adv_true)
            np.testing.assert_array_equal(
                children.adv_false[i], node.adv_false & side.adv_false
            )


@pytest.mark.parametrize("policy", ["greedy", "woodblock"])
def test_a_walk_makes_no_scalar_hit_test_and_one_split_per_internal_node(tpch, monkeypatch, policy):
    """The root's hit vector — one one-row table, matched once per
    query — is the only single-sub-space hit test of a build: every
    other match scores a node's candidate children at once.  ``split``
    runs once per registered cut (its two sides, when the environment
    is made) and once per internal node (``apply_cut``)."""
    calls = {"one-row match": 0, "split": 0}
    split, match = NodeDescription.split, PruningTable.match

    def counted_split(self, cut):
        calls["split"] += 1
        return split(self, cut)

    def counted_match(self, predicate):
        calls["one-row match"] += len(self.bids) == 1
        return match(self, predicate)

    monkeypatch.setattr(NodeDescription, "split", counted_split)
    monkeypatch.setattr(PruningTable, "match", counted_match)
    registry = tpch.registry()
    if policy == "greedy":
        env = ConstructionEnv(
            tpch.schema, registry, tpch.table, tpch.workload, tpch.min_block_size
        )
        walk = lambda: env.walk(choose_max_gain).tree  # noqa: E731
    else:
        agent = Woodblock(
            tpch.schema,
            registry,
            tpch.table,
            tpch.workload,
            WoodblockConfig(tpch.min_block_size, hidden_dim=16, seed=1),
        )
        walk = lambda: agent.run_episode().tree  # noqa: E731
    assert calls == {"one-row match": len(tpch.workload), "split": len(registry)}
    tree = walk()
    if policy == "greedy":
        assert columnar(tree) == GOLDEN["tpch-strict"]
    assert calls == {
        "one-row match": len(tpch.workload),
        "split": len(registry) + len(tree.internal_nodes()),
    }


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

