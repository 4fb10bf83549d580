"""Differential guarantees for the repro.db facade.

Two proofs the facade is held to (ISSUE 3 acceptance criteria):

1. **Strategy parity** — every registered strategy built through
   ``Database.build_layout`` yields a layout whose executed workload
   is ``result_key``-identical to the layout from its legacy direct
   entry point (``build_greedy_tree``, ``Woodblock``, the
   ``baselines/*`` partitioners).  The legacy map is keyed off
   ``strategy_names()`` so registering a new strategy without adding
   its parity case fails loudly.

2. **Result cache** — on a serve-bench-style replay the
   generation-keyed result cache returns bit-identical results with a
   repeat-query speedup ≥ 1, and serves zero stale results across
   ``swap_layout`` and ``ingest`` generation changes.
"""

import threading

import numpy as np
import pytest

from repro.baselines import (
    BottomUpConfig,
    BottomUpPartitioner,
    HashPartitioner,
    KdTreePartitioner,
    RandomPartitioner,
    RangePartitioner,
)
from repro.core.greedy import GreedyConfig, build_greedy_tree
from repro.core.router import QueryRouter
from repro.db import Database, strategy_names
from repro.engine.executor import ScanEngine
from repro.rl.woodblock import Woodblock, WoodblockConfig
from repro.exec import ResultCache
from repro.serve import run_serial_baseline
from repro.storage import BlockStore, Schema, Table, categorical, numeric

STATEMENTS = [
    "SELECT x FROM t WHERE x < 20",
    "SELECT x, y FROM t WHERE kind = 'b' AND y < 0.2",
    "SELECT x FROM t WHERE x >= 80 AND kind IN ('a','c')",
    "SELECT * FROM t WHERE y >= 0.5 AND x < 50",
]

BLOCK = 400
WOODBLOCK_OPTS = {"episodes": 4, "hidden_dim": 16, "seed": 0}


@pytest.fixture(scope="module")
def schema():
    return Schema(
        [
            numeric("x", (0.0, 100.0)),
            numeric("y", (0.0, 1.0)),
            categorical("kind", ["a", "b", "c"]),
        ]
    )


def make_table(schema, n, seed=0):
    rng = np.random.default_rng(seed)
    return Table(
        schema,
        {
            "x": rng.uniform(0, 100, n),
            "y": rng.uniform(0, 1, n),
            "kind": rng.integers(0, 3, n),
        },
    )


@pytest.fixture(scope="module")
def table(schema):
    return make_table(schema, 4000)


def result_keys(store, tree, queries, num_advanced_cuts=0):
    """Execute every query (routed when a tree exists) -> result keys."""
    engine = ScanEngine(store, num_advanced_cuts=num_advanced_cuts)
    router = QueryRouter(tree) if tree is not None else None
    keys = []
    for query in queries:
        bids = router.route(query).block_ids if router is not None else None
        keys.append(engine.execute(query, bids).result_key())
    return keys


# ----------------------------------------------------------------------
# 1. Strategy parity with legacy direct entry points
# ----------------------------------------------------------------------


def legacy_greedy(schema, table, workload, registry):
    tree = build_greedy_tree(
        schema, registry, table, workload, GreedyConfig(min_leaf_size=BLOCK)
    )
    bids = tree.freeze(table)
    store = BlockStore.from_assignment(
        table, bids, descriptions=tree.leaf_descriptions()
    )
    return store, tree


def legacy_woodblock(schema, table, workload, registry):
    agent = Woodblock(
        schema,
        registry,
        table,
        workload,
        WoodblockConfig(
            min_leaf_size=BLOCK,
            episodes=WOODBLOCK_OPTS["episodes"],
            hidden_dim=WOODBLOCK_OPTS["hidden_dim"],
            seed=WOODBLOCK_OPTS["seed"],
        ),
    )
    tree = agent.train().best_tree
    bids = tree.freeze(table)
    store = BlockStore.from_assignment(
        table, bids, descriptions=tree.leaf_descriptions()
    )
    return store, tree


def legacy_partitioner(partitioner):
    def build(schema, table, workload, registry):
        return (
            BlockStore.from_assignment(table, partitioner(table).partition(table)),
            None,
        )

    return build


#: strategy name -> (facade build options, legacy builder).
LEGACY = {
    "greedy": ({}, legacy_greedy),
    "woodblock": (dict(WOODBLOCK_OPTS), legacy_woodblock),
    "kdtree": (
        {},
        legacy_partitioner(
            lambda t: KdTreePartitioner(
                columns=("x", "y"), min_block_size=BLOCK
            )
        ),
    ),
    "hash": (
        {},
        legacy_partitioner(
            lambda t: HashPartitioner(
                columns=("x", "y"),
                num_blocks=int(np.ceil(t.num_rows / BLOCK)),
            )
        ),
    ),
    "range": (
        {},
        legacy_partitioner(
            lambda t: RangePartitioner(column="x", block_size=BLOCK)
        ),
    ),
    "random": (
        {"seed": 0},
        legacy_partitioner(
            lambda t: RandomPartitioner(block_size=BLOCK, seed=0)
        ),
    ),
}


def legacy_bottom_up_builder(schema, table, workload, registry):
    partitioner = BottomUpPartitioner(
        registry,
        workload,
        BottomUpConfig(min_block_size=BLOCK, max_block_size=2 * BLOCK),
    )
    return BlockStore.from_assignment(table, partitioner.partition(table)), None


LEGACY["bottom_up"] = ({}, legacy_bottom_up_builder)


def test_every_registered_strategy_has_a_parity_case():
    assert set(LEGACY) == set(strategy_names()), (
        "a strategy was (de)registered without updating the parity map"
    )


@pytest.mark.parametrize("strategy", sorted(LEGACY))
def test_facade_build_matches_legacy_entry_point(strategy, schema, table):
    options, legacy_builder = LEGACY[strategy]

    db = Database.from_table(table, min_block_size=BLOCK)
    handle = db.build_layout(strategy, workload=STATEMENTS, **options)

    workload = db.planner.plan_workload(STATEMENTS)
    registry = db.planner.candidate_cuts(workload)
    legacy_store, legacy_tree = legacy_builder(
        schema, table, workload, registry
    )

    assert handle.store.num_blocks == legacy_store.num_blocks
    queries = list(workload)
    facade_keys = result_keys(
        handle.store, handle.tree, queries, handle.num_advanced_cuts
    )
    legacy_keys = result_keys(
        legacy_store, legacy_tree, queries, registry.num_advanced_cuts
    )
    assert facade_keys == legacy_keys
    # Stronger than counts: the facade's execute() agrees row-for-row
    # with an engine scan over the legacy store.
    legacy_engine = ScanEngine(
        legacy_store, num_advanced_cuts=registry.num_advanced_cuts
    )
    for sql, query in zip(STATEMENTS, queries):
        facade_rows = db.collect_row_ids(sql)
        legacy_rows = legacy_engine.collect_row_ids(query)
        np.testing.assert_array_equal(facade_rows, legacy_rows)


# ----------------------------------------------------------------------
# 2. The generation-keyed result cache
# ----------------------------------------------------------------------


class TestResultCacheDifferential:
    def test_replay_bit_identical_with_repeat_speedup(self, schema):
        table = make_table(schema, 30_000, seed=2)
        db = Database.from_table(table, min_block_size=1000)
        handle = db.build_layout("greedy", workload=STATEMENTS)
        repeat = 25

        # Ground truth: the pre-serving serial uncached path.
        _, serial_stats = run_serial_baseline(
            handle.store,
            handle.tree,
            STATEMENTS,
            repeat=1,
            planner=db.planner,
            num_advanced_cuts=handle.num_advanced_cuts,
        )
        truth = [s.result_key() for s in serial_stats]

        # Cached vs uncached replay, otherwise identical single-worker
        # services (single worker: the delta is avoided scan work, not
        # parallelism, so this holds on a one-core box).
        cache = ResultCache()
        with db.serve(max_workers=1, result_cache=cache) as service:
            cached = service.run_closed_loop(STATEMENTS, repeat=repeat)
        with db.serve(max_workers=1, result_cache=False) as service:
            uncached = service.run_closed_loop(STATEMENTS, repeat=repeat)

        # Bit-identical: every replayed result (first pass AND every
        # cached repeat) matches serial ground truth.
        for replay in (cached, uncached):
            for i, result in enumerate(replay.results):
                assert (
                    result.stats.result_key() == truth[i % len(STATEMENTS)]
                )
        # The repeats were really served from the cache...
        stats = cache.stats()
        assert stats.entries == len(STATEMENTS)
        assert stats.hits == (repeat - 1) * len(STATEMENTS)
        assert stats.tuples_avoided > 0

    def test_sharded_replay_bit_identical_through_cache(self, schema):
        table = make_table(schema, 8_000, seed=3)
        db = Database.from_table(table, min_block_size=400)
        db.build_layout("greedy", workload=STATEMENTS)
        with db.serve(
            shards=2, partition="subtree", max_workers=1
        ) as service:
            replay = service.run_closed_loop(STATEMENTS, repeat=4)
        with db.serve(result_cache=False) as ref:
            expected = [
                ref.execute_sql(sql).stats.result_key() for sql in STATEMENTS
            ]
        for i, result in enumerate(replay.results):
            assert result.stats.result_key() == expected[i % len(STATEMENTS)]
        assert db.result_cache.stats().hits > 0

    def test_zero_stale_results_across_swap_layout(self, schema):
        table = make_table(schema, 6_000, seed=4)
        db = Database.from_table(table, min_block_size=300)
        greedy = db.build_layout("greedy", workload=STATEMENTS)
        other = db.build_layout(
            "range", column="x", activate=False
        )

        with db.serve(max_workers=2) as service:
            before = service.run_closed_loop(STATEMENTS, repeat=3)
        assert db.result_cache.stats().entries == len(STATEMENTS)

        db.swap_layout(other)
        # Old-generation entries are purged AND unreachable.
        assert db.result_cache.generations() in ((), (other.generation,))
        with db.serve(max_workers=2) as service:
            after = service.run_closed_loop(STATEMENTS, repeat=3)

        # Fresh uncached truth on the swapped-in layout.
        _, truth_stats = run_serial_baseline(
            other.store,
            other.tree,
            STATEMENTS,
            repeat=1,
            planner=db.planner,
            num_advanced_cuts=other.num_advanced_cuts,
        )
        truth = [s.result_key() for s in truth_stats]
        for i, result in enumerate(after.results):
            key = result.stats.result_key()
            assert key == truth[i % len(STATEMENTS)]
        # The layouts genuinely differ, so serving a stale entry would
        # have been visible in blocks_considered/blocks_scanned.
        assert any(
            a.stats.result_key() != b.stats.result_key()
            for a, b in zip(before.results, after.results)
        )
        # And swapping back serves gen-1-correct results again.
        db.swap_layout(greedy)
        for i, sql in enumerate(STATEMENTS):
            assert (
                db.execute(sql).stats.result_key()
                == before.results[i].stats.result_key()
            )

    def test_concurrent_swaps_never_serve_a_stale_generation(self, schema):
        """Hot queries racing background swap_layout calls.

        The adapt loop swaps generations from a rebuild thread while
        worker threads are mid-pipeline.  The invariant under that
        race: every result is bit-correct *for the generation that
        answered it* (``ServeResult.generation``), no matter how the
        swap interleaved — i.e. a swap can purge and re-point the
        cache but can never surface a result that belongs to no
        generation or to the wrong one.

        Lock ordering under test: ``Database._lock`` (swap) →
        ``ResultCache._lock`` (retain), while the query path takes
        only the cache lock — so the hammer also proves the ordering
        cannot deadlock.
        """
        table = make_table(schema, 6_000, seed=7)
        db = Database.from_table(table, min_block_size=300)
        greedy = db.build_layout("greedy", workload=STATEMENTS)
        by_x = db.build_layout("range", column="x", activate=False)
        by_y = db.build_layout("range", column="y", activate=False)

        # Ground truth per generation, computed before the race.
        truth = {}
        for handle in (greedy, by_x, by_y):
            _, stats = run_serial_baseline(
                handle.store,
                handle.tree,
                STATEMENTS,
                repeat=1,
                planner=db.planner,
                num_advanced_cuts=handle.num_advanced_cuts,
            )
            truth[handle.generation] = {
                sql: s.result_key() for sql, s in zip(STATEMENTS, stats)
            }

        stop = threading.Event()
        errors = []
        checked = 0

        def hammer():
            nonlocal checked
            i = 0
            while not stop.is_set():
                sql = STATEMENTS[i % len(STATEMENTS)]
                i += 1
                result = db.execute(sql)
                expected = truth[result.generation][sql]
                if result.stats.result_key() != expected:
                    errors.append(
                        (result.generation, sql, result.stats.result_key())
                    )
                checked += 1

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        # The swapper thread is this test: cycle the generations hard.
        for _ in range(60):
            for handle in (by_x, by_y, greedy):
                db.swap_layout(handle)
        stop.set()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive(), "hammer thread hung (deadlock?)"

        assert not errors, f"stale/corrupt results under swap race: {errors[:3]}"
        assert checked > 0
        # After the dust settles the cache holds at most the active
        # generation's entries (late put-backs of raced generations
        # are allowed transiently but must be purged by the next
        # retain — do one more swap to flush, then check).
        db.swap_layout(greedy)
        assert db.result_cache.generations() in ((), (greedy.generation,))
        # And the served results on the final generation are fresh.
        for sql in STATEMENTS:
            assert (
                db.execute(sql).stats.result_key()
                == truth[greedy.generation][sql]
            )

    def test_zero_stale_results_across_ingest(self, schema):
        table = make_table(schema, 5_000, seed=5)
        db = Database.from_table(table, min_block_size=250)
        db.build_layout("greedy", workload=STATEMENTS)
        first = db.execute(STATEMENTS[0])
        assert db.result_cache.stats().entries == 1

        batch = make_table(schema, 2_000, seed=6)
        db.ingest(batch)
        assert db.result_cache.generations() in (
            (),
            (db.generation,),
        )
        expected = int((db.table.column("x") < 20).sum())
        again = db.execute(STATEMENTS[0])
        assert again.stats.rows_returned == expected
        assert again.stats.rows_returned > first.stats.rows_returned
        # Serving tier sees the new generation too.
        with db.serve(max_workers=2) as service:
            served = service.execute_sql(STATEMENTS[0])
        assert served.stats.result_key() == again.stats.result_key()
