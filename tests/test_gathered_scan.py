"""The gathered scan ≡ the per-block scan, and what a served statement
leaves behind.

:class:`repro.engine.ScanEngine` reads every survivor's filter columns
in one batched call and evaluates the predicate once per slab of
concatenated blocks.  ``scan_reference`` keeps the per-block loop it
replaced; the property test below holds the engine to it field for
field (every :class:`QueryStats` field but ``wall_seconds``) and row id
for row id — over PLAIN, RLE and BITPACK chunks, empty survivor lists,
1-row blocks, blocks larger than a slab, survivors filling a slab
exactly, ``IN`` / ``NOT`` / ``OR`` / advanced cuts, and a buffer pool
small enough to evict in the middle of a scan.

The second half pins the memory a never-seen statement leaves in a
serving tier: interned survivor tuples, least-recently-used memos, the
compact ``stage_seconds`` mapping and a tracemalloc bound per
statement.
"""

import gc
import tracemalloc
from dataclasses import replace
from typing import List
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Query
from repro.core.predicates import (
    AdvancedCut,
    And,
    ColumnPredicate,
    Not,
    Op,
    Or,
    TruePredicate,
    column_ge,
    column_in,
    column_lt,
)
from repro.core.router import block_descriptions
from repro.db import Database
from repro.engine import COMMERCIAL_DBMS, SPARK_PARQUET, ScanEngine
from repro.engine import executor
from repro.exec import RouteMemo
from repro.exec.pipeline import StageSeconds
from repro.serve import BlockCache
from repro.sql import SqlPlanner
from repro.storage import BlockStore, Schema, Table, categorical, numeric
from repro.storage.columnar import Encoding
from scan_reference import reference_row_ids, reference_scan

KINDS = ["a", "b", "c", "d", "e"]

X_LT_Y = AdvancedCut("x<y", 0, lambda c: c["x"] < c["y"], ("x", "y"))


def schema() -> Schema:
    return Schema(
        [
            numeric("x", (0.0, 100.0)),
            numeric("y", (0.0, 100.0)),
            categorical("kind", KINDS),
        ]
    )


def make_store(sizes: List[int], seed: int) -> BlockStore:
    """Blocks of the given row counts over contiguous rows: ``x`` is
    random floats (PLAIN chunks), ``y`` steps every 37 rows (RLE
    chunks), ``kind`` holds small codes (BITPACK chunks)."""
    n = sum(sizes)
    rng = np.random.default_rng(seed)
    table = Table(
        schema(),
        {
            "x": rng.integers(0, 101, n).astype(float) + rng.uniform(0, 0.5, n),
            "y": (np.arange(n) // 37 % 101).astype(float),
            "kind": rng.integers(0, len(KINDS), n),
        },
    )
    return BlockStore.from_assignment(table, np.repeat(np.arange(len(sizes)), sizes))


# -- random predicates ----------------------------------------------------

literal = st.integers(-5, 105).map(float)
code = st.integers(0, len(KINDS) - 1).map(float)
atoms = st.one_of(
    st.builds(
        lambda c, op, v: ColumnPredicate(c, op, [v]),
        st.sampled_from(["x", "y"]),
        st.sampled_from([Op.LT, Op.LE, Op.GT, Op.GE, Op.EQ]),
        literal,
    ),
    st.builds(column_in, st.just("y"), st.lists(literal, min_size=1, max_size=4)),
    st.builds(column_in, st.just("kind"), st.lists(code, min_size=1, max_size=3)),
    st.just(X_LT_Y),
    st.just(X_LT_Y.negate()),
    st.just(TruePredicate()),
)
predicates = st.recursive(
    atoms,
    lambda children: st.one_of(
        children.map(Not),
        st.lists(children, min_size=1, max_size=3).map(And),
        st.lists(children, min_size=2, max_size=3).map(Or),
    ),
    max_leaves=6,
)


@st.composite
def scans(draw):
    sizes = draw(
        st.lists(
            st.one_of(st.integers(1, 3), st.integers(4, 90), st.integers(91, 260)),
            min_size=1,
            max_size=10,
        )
    )
    survivors = draw(
        st.lists(st.sampled_from(range(len(sizes))), unique=True, max_size=len(sizes))
    )
    survivors.sort()
    rows = [sizes[bid] for bid in survivors] or [1]
    # slabs that survivors fill exactly, that one block overflows, and
    # plain small and default sizes
    slab = draw(
        st.sampled_from(
            [sum(rows), sum(rows[: len(rows) // 2 + 1]), max(rows) - 1, 1, 64,
             executor._SLAB_ROWS]
        ).map(lambda s: max(s, 1))
    )
    return (
        sizes,
        tuple(survivors),
        slab,
        draw(predicates),
        draw(st.sampled_from([None, 1, 3, 1 << 20])),  # pool: off / tiny / ample
        draw(st.sampled_from([SPARK_PARQUET, COMMERCIAL_DBMS])),
        draw(st.integers(0, 3)),
    )


class TestGatherEqualsPerBlockLoop:
    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(scans())
    def test_stats_and_row_ids_equal_the_reference(self, case):
        sizes, survivors, slab, predicate, pool_blocks, profile, seed = case
        store = make_store(sizes, seed)
        cache = None
        if pool_blocks is not None:
            # a budget of a few decoded ``x`` columns evicts mid-scan
            cache = BlockCache(pool_blocks * 8 * max(sizes))
        engine = ScanEngine(
            store,
            profile,
            num_advanced_cuts=1,
            column_reader=cache.read_blocks if cache is not None else None,
        )
        query = Query(predicate, name="q", template="t", columns=("x",))
        expected = reference_scan(engine, query, survivors, 7)
        expected_ids = reference_row_ids(engine, query, survivors)
        with mock.patch.object(executor, "_SLAB_ROWS", slab):
            for _ in range(2):  # cold, then through whatever the pool kept
                stats = engine.execute_pruned(query, survivors, 7)
                assert replace(stats, wall_seconds=0.0) == expected
                ids = engine.collect_row_ids(query, survivors, pruned=True)
                np.testing.assert_array_equal(ids, expected_ids)
                assert ids.dtype == np.int64
            pruned = engine.execute(query)
        survivors_all = block_descriptions(
            store, num_advanced_cuts=1, dictionaries=profile.block_dictionaries
        ).matching(predicate)
        assert replace(pruned, wall_seconds=0.0) == replace(
            reference_scan(engine, query, survivors_all, store.num_blocks),
            wall_seconds=0.0,
        )
        if cache is not None:
            assert cache.stats().cached_bytes <= cache.budget_bytes

    def test_the_fixture_covers_every_chunk_encoding(self):
        store = make_store([1, 40, 120, 260], seed=0)
        encodings = {
            block._chunks[name].encoding
            for block in store
            for name in ("x", "y", "kind")
        }
        assert encodings == {Encoding.PLAIN, Encoding.RLE, Encoding.BITPACK}

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.lists(st.integers(1, 50), max_size=30),
        st.integers(1, 120),
    )
    def test_slabs_partition_the_blocks_greedily(self, rows, slab):
        with mock.patch.object(executor, "_SLAB_ROWS", slab):
            bounds = executor.slab_bounds(np.array(rows, dtype=np.int64))
        # consecutive ranges covering every block exactly once
        edges = [0] + [stop for _, stop in bounds]
        assert [start for start, _ in bounds] == edges[:-1]
        assert edges[-1] == len(rows)
        for start, stop in bounds:
            assert stop > start
            filled = sum(rows[start:stop])
            assert filled <= slab or stop - start == 1
            # greedy: the next block would not have fit
            if stop < len(rows):
                assert filled + rows[stop] > slab


class TestColumnFreePredicate:
    """``TRUE`` references no column: every survivor row matches."""

    @pytest.mark.parametrize("predicate", [TruePredicate(), Not(TruePredicate())])
    def test_scan_and_row_ids(self, predicate):
        store = make_store([5, 1, 30], seed=1)
        engine = ScanEngine(store)
        query = Query(predicate, name="all")
        holds = not isinstance(predicate, Not)
        stats = engine.execute_pruned(query, (0, 2), 3)
        assert stats.tuples_scanned == 35
        assert stats.rows_returned == (35 if holds else 0)
        ids = engine.collect_row_ids(query, (0, 2), pruned=True)
        expected = np.r_[0:5, 6:36] if holds else np.empty(0, dtype=np.int64)
        np.testing.assert_array_equal(ids, expected)
        full = engine.execute(query)
        assert full.rows_returned == (36 if holds else 0)


# ----------------------------------------------------------------------
# What a served statement leaves behind
# ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def served_db():
    rng = np.random.default_rng(0)
    n = 40_000
    table = Table(
        schema(),
        {
            "x": rng.uniform(0, 100, n),
            "y": rng.uniform(0, 100, n),
            "kind": rng.integers(0, len(KINDS), n),
        },
    )
    db = Database.from_table(table, min_block_size=100)
    db.build_layout(
        "greedy",
        workload=[f"SELECT x FROM t WHERE x >= {lo} AND x < {lo + 10}" for lo in range(0, 100, 10)]
        + [f"SELECT y FROM t WHERE y < {v}" for v in range(5, 100, 10)],
    )
    return db


def never_seen(seed: int, count: int) -> List[str]:
    """Statements with fresh literals that keep most blocks."""
    literals = np.random.default_rng(seed).uniform(0, 30, (count, 2)).tolist()
    return [
        f"SELECT x, y FROM t WHERE x >= {lo!r} AND y >= {hi / 9!r}"
        for lo, hi in literals
    ]


class TestRetainedPerStatement:
    def test_tracemalloc_bound_per_never_seen_statement(self, served_db):
        """Bytes a never-seen statement leaves behind once collected:
        the service's memos and result cache (~2.1 KB here), and the
        reply a client keeps (~0.3 KB).  Before survivor interning,
        slotted stats and results and the compact ``stage_seconds``
        they were ~2.9 KB and ~0.57 KB."""
        count = 400
        with served_db.serve(max_workers=1) as svc:
            for sql in never_seen(1, 200):  # lazily built state settles
                svc.execute_sql(sql)
            statements = never_seen(2, count)
            gc.collect()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                replies = [svc.execute_sql(sql) for sql in statements]
                gc.collect()
                with_replies = tracemalloc.get_traced_memory()[0] - before
                del replies
                gc.collect()
                service = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert service / count < 2500
        assert (with_replies - service) / count < 450

    def test_equal_survivor_sets_share_one_tuple(self, served_db):
        table = served_db.active_layout.router()._table
        a = table.matching(column_ge("x", -5.0))
        b = table.matching(And([column_ge("x", -1.0), column_lt("y", 150.0)]))
        assert a == tuple(table.bids) and a is b
        with served_db.serve(max_workers=1, result_cache=False) as svc:
            r1 = svc.execute_sql("SELECT x FROM t WHERE x >= -5")
            r2 = svc.execute_sql("SELECT x FROM t WHERE x >= -1 AND y < 150")
        assert r1.routed_block_ids is r2.routed_block_ids

    def test_lru_memos_keep_a_re_hit_entry_past_their_cap(self, served_db):
        memo = RouteMemo(cap=2)
        preds = [column_lt("x", float(v)) for v in range(3)]
        for p in preds[:2]:
            memo.get_or_compute(p, lambda p=p: p)
        assert memo.get_or_compute(preds[0], lambda: "recomputed") is preds[0]
        memo.get_or_compute(preds[2], lambda: preds[2])
        assert memo.get_or_compute(preds[0], lambda: "recomputed") is preds[0]
        assert memo.get_or_compute(preds[1], lambda: "recomputed") == "recomputed"

        planner = SqlPlanner(schema())
        planner.MEMO_CAP = 2
        sql = [f"SELECT x FROM t WHERE x < {v}" for v in range(3)]
        first = planner.plan(sql[0])
        planner.plan(sql[1])
        planner.plan(sql[0])
        planner.plan(sql[2])
        assert planner.plan(sql[0]) is first

    def test_stage_seconds_is_a_read_only_mapping_equal_to_the_dict(self, served_db):
        with served_db.serve(max_workers=1) as svc:
            result = svc.execute_sql("SELECT x FROM t WHERE x < 12.5")
        ss = result.stage_seconds
        assert isinstance(ss, StageSeconds)
        as_dict = dict(ss.items())
        assert list(as_dict) == ["queue", "plan", "route", "result_cache", "scan", "merge"]
        assert len(ss) == len(as_dict)
        assert ss == as_dict and as_dict == ss
        assert all(ss[key] == value for key, value in as_dict.items())
        with pytest.raises(KeyError):
            ss["nope"]
        with pytest.raises(TypeError):
            ss["scan"] = 0.0
        again = StageSeconds(as_dict)
        assert again._keys is ss._keys  # one key tuple per stage sequence


# ----------------------------------------------------------------------
# Shard scans run on the coordinator's worker
# ----------------------------------------------------------------------


class TestInlineShardScans:
    def test_shard_scans_run_on_the_calling_thread(self, served_db):
        import threading

        with served_db.serve(shards=2, result_cache=False) as svc:
            seen = []
            for shard in svc.shards:
                scan = shard.engine.execute_pruned

                def traced(*args, _scan=scan):
                    seen.append(threading.current_thread())
                    return _scan(*args)

                shard.engine.execute_pruned = traced
            result = svc.execute_sql("SELECT x FROM t WHERE x < 60")
        assert len(seen) == 2 and set(seen) == {threading.current_thread()}
        assert result.stats.blocks_scanned > 0
