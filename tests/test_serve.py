"""Tests for the repro.serve query-serving subsystem."""

import threading

import numpy as np
import pytest

from repro.db import Database
from repro.engine import ScanEngine
from repro.serve import (
    AdmissionRejected,
    BlockCache,
    LayoutService,
    Scheduler,
    ServingMetrics,
)
from repro.sql import SqlPlanner
from repro.storage import BlockStore, Schema, Table, numeric
from repro.workloads import disjunctive_dataset


@pytest.fixture(scope="module")
def layout():
    ds = disjunctive_dataset(num_rows=20_000, seed=0)
    db = Database.from_table(ds.table, min_block_size=ds.min_block_size)
    return db.build_layout("greedy", workload=ds.workload)


STATEMENTS = [
    "SELECT * FROM t WHERE cpu < 0.4",
    "SELECT cpu FROM t WHERE cpu >= 0.3 AND disk < 0.6",
    "SELECT disk FROM t WHERE disk >= 0.8",
    "SELECT * FROM t WHERE cpu < 0.2 OR disk < 0.1",
]


def service_for(layout, **kwargs):
    return LayoutService(layout.store, layout.tree, **kwargs)


class TestServiceCorrectness:
    def test_single_query_matches_engine(self, layout):
        planner = SqlPlanner(layout.store.schema)
        engine = ScanEngine(layout.store)
        with service_for(layout, cache_budget_bytes=None) as svc:
            served = svc.execute_sql(STATEMENTS[0])
        direct = engine.execute(
            planner.plan(STATEMENTS[0]).query, served.routed_block_ids
        )
        assert served.stats.rows_returned == direct.rows_returned
        assert served.stats.result_key()[2:] == direct.result_key()[2:]

    def test_concurrent_results_identical_to_serial(self, layout):
        """N threads x M repeats produce the same QueryStats aggregates
        (and per-query result keys) as serial uncached execution."""
        repeat = 6
        with service_for(layout, cache_budget_bytes=None, max_workers=1) as svc:
            serial = svc.run_closed_loop(STATEMENTS, repeat=repeat)
        with service_for(layout, max_workers=8) as svc:
            threaded = svc.run_closed_loop(STATEMENTS, repeat=repeat)

        serial_keys = sorted(r.stats.result_key() for r in serial.results)
        threaded_keys = sorted(r.stats.result_key() for r in threaded.results)
        assert serial_keys == threaded_keys

        s, t = serial.snapshot, threaded.snapshot
        assert (s.blocks_scanned, s.tuples_scanned, s.rows_returned) == (
            t.blocks_scanned,
            t.tuples_scanned,
            t.rows_returned,
        )

    def test_repeated_workload_hits_cache(self, layout):
        with service_for(layout) as svc:
            svc.run_closed_loop(STATEMENTS, repeat=5)
            snap = svc.snapshot()
        assert snap.cache is not None
        assert snap.cache_hit_rate > 0
        assert snap.cache.served_bytes > 0
        # Decoded work is bounded by the unique (block, column) pairs.
        assert snap.cache.decoded_bytes < snap.bytes_read

    def test_routing_memo_reused(self, layout, count_routes):
        repeat = 4
        with service_for(layout) as svc:
            assert svc.router is not None
            walks = count_routes(svc.router)
            svc.run_closed_loop(STATEMENTS, repeat=repeat)
            assert len(svc.pipeline.stage("route").memo) == len(STATEMENTS)
            # The tree was walked roughly once per unique predicate:
            # concurrent first arrivals may race the memo fill (benign
            # duplicate computation), but far fewer walks happen than
            # the total query count.
            assert len(STATEMENTS) <= len(walks) < repeat * len(STATEMENTS)

    def test_routing_memo_serial_walks_once(self, layout, count_routes):
        """Without concurrency the memo is deterministic: exactly one
        tree walk per unique predicate."""
        with service_for(layout) as svc:
            assert svc.router is not None
            walks = count_routes(svc.router)
            for _ in range(4):
                for sql in STATEMENTS:
                    svc.execute_sql(sql)
            assert len(walks) == len(STATEMENTS)

    def test_replay_snapshot_covers_only_its_window(self, layout):
        """Back-to-back replays on one service: each ReplayResult's
        cache stats must describe that replay, not the service's
        lifetime, so bytes_decoded never exceeds the window's
        bytes_read."""
        with service_for(layout) as svc:
            first = svc.run_closed_loop(STATEMENTS, repeat=3)
            second = svc.run_closed_loop(STATEMENTS, repeat=3)
        assert first.snapshot.cache is not None
        assert second.snapshot.cache is not None
        assert second.snapshot.bytes_decoded <= second.snapshot.bytes_read
        # Everything was hot by the second replay: no decode work left.
        assert second.snapshot.cache.misses == 0
        assert second.snapshot.cache.hit_rate == 1.0

    def test_open_loop_sheds_or_completes(self, layout):
        with service_for(layout, max_workers=2, queue_depth=1) as svc:
            replay = svc.run_open_loop(
                STATEMENTS, target_qps=10_000.0, repeat=3
            )
        assert replay.completed + replay.rejected == replay.issued
        assert replay.completed >= 1


class TestAdvancedCutAlignment:
    def test_shared_planner_keeps_advanced_slots_aligned(self):
        """Serving a subset of an advanced-cut workload must reuse the
        build planner; a fresh planner would hand the same comparison a
        different slot index and prune on the wrong possibility bits."""
        import numpy as np

        from repro.core.cuts import CutRegistry
        from repro.storage import Schema, Table, numeric

        rng = np.random.default_rng(7)
        schema = Schema(
            [
                numeric("a", (0.0, 1.0)),
                numeric("b", (0.0, 1.0)),
                numeric("c", (0.0, 1.0)),
            ]
        )
        table = Table(
            schema, {n: rng.uniform(size=8000) for n in ("a", "b", "c")}
        )
        build_statements = [
            "SELECT * FROM t WHERE a < b",
            "SELECT * FROM t WHERE b < c",
        ]
        planner = SqlPlanner(schema)
        workload = planner.plan_workload(build_statements)
        registry = CutRegistry.from_workload(schema, workload)
        layout = Database.from_table(table, min_block_size=500).build_layout(
            "greedy", workload=workload, registry=registry
        )

        # Serve ONLY the second statement — out of build order.
        served_sql = build_statements[1]
        truth = int(workload[1].predicate.evaluate(table.columns()).sum())
        with LayoutService(
            layout.store,
            layout.tree,
            num_advanced_cuts=registry.num_advanced_cuts,
            planner=planner,
        ) as svc:
            result = svc.execute_sql(served_sql)
        assert result.stats.rows_returned == truth


class TestBlockCache:
    @pytest.fixture()
    def store(self):
        schema = Schema([numeric("x", (0.0, 1.0)), numeric("y", (0.0, 1.0))])
        rng = np.random.default_rng(1)
        table = Table(
            schema,
            {"x": rng.uniform(size=4000), "y": rng.uniform(size=4000)},
        )
        return BlockStore.from_assignment(
            table, np.repeat(np.arange(8), 500)
        )

    def test_lru_eviction_respects_budget(self, store):
        one_column_bytes = store.block(0).decoded_nbytes(["x"])
        cache = BlockCache(budget_bytes=3 * one_column_bytes)
        for block in store:
            cache.read_columns(block, ["x"])
        stats = cache.stats()
        assert stats.cached_bytes <= cache.budget_bytes
        assert stats.entries == 3
        assert stats.evictions == len(store) - 3

    def test_lru_keeps_recently_used(self, store):
        one = store.block(0).decoded_nbytes(["x"])
        cache = BlockCache(budget_bytes=2 * one)
        cache.read_columns(store.block(0), ["x"])
        cache.read_columns(store.block(1), ["x"])
        cache.read_columns(store.block(0), ["x"])  # refresh 0
        cache.read_columns(store.block(2), ["x"])  # evicts 1
        hits_before = cache.stats().hits
        cache.read_columns(store.block(0), ["x"])
        assert cache.stats().hits == hits_before + 1
        misses_before = cache.stats().misses
        cache.read_columns(store.block(1), ["x"])
        assert cache.stats().misses == misses_before + 1

    def test_hot_block_between_cold_pairs_exact_lru_counts(self, store):
        """One hot block re-read between pairs of one-shot cold blocks,
        with room for two columns: strict LRU evicts the hot column
        before its next touch, so every read misses.  The counts pin
        the eviction order exactly; the served arrays stay the
        block's own values."""
        one = store.block(0).decoded_nbytes(["x"])
        cache = BlockCache(budget_bytes=2 * one)
        cold = [store.block(bid) for bid in range(1, len(store))]
        reads = []
        for i in range(30):
            reads.append(store.block(0))
            reads += [cold[(2 * i) % len(cold)], cold[(2 * i + 1) % len(cold)]]
        for block in reads:
            np.testing.assert_array_equal(
                cache.read_columns(block, ["x"])["x"], block.read_column("x")
            )
        stats = cache.stats()
        assert (stats.hits, stats.misses, stats.evictions) == (0, 90, 88)
        assert sorted(cache._entries) == [(3, "x"), (4, "x")]

    def test_oversized_entry_is_decode_through(self, store):
        cache = BlockCache(budget_bytes=10)  # smaller than any column
        out = cache.read_columns(store.block(0), ["x"])
        assert len(out["x"]) == 500
        assert cache.stats().entries == 0

    def test_cached_arrays_are_readonly_and_correct(self, store):
        cache = BlockCache(budget_bytes=1 << 20)
        first = cache.read_columns(store.block(0), ["x", "y"])
        again = cache.read_columns(store.block(0), ["x", "y"])
        assert not again["x"].flags.writeable
        np.testing.assert_array_equal(first["x"], again["x"])
        np.testing.assert_array_equal(
            again["y"], store.block(0).read_column("y")
        )

    def test_cache_does_not_freeze_block_payload(self, store):
        """Freezing must apply to the cache's view only — for PLAIN
        chunks the decoded array IS the block's payload, and freezing
        it would poison reads outside the cache."""
        cache = BlockCache(budget_bytes=1 << 20)
        cache.read_columns(store.block(0), ["x"])
        fresh = store.block(0).read_column("x")
        fresh[0] = 0.5  # must stay writable
        assert fresh[0] == 0.5

    def test_invalidate(self, store):
        cache = BlockCache(budget_bytes=1 << 20)
        cache.read_columns(store.block(0), ["x", "y"])
        cache.read_columns(store.block(1), ["x"])
        assert cache.invalidate(0) == 2
        assert cache.stats().entries == 1
        assert cache.invalidate() == 1
        assert cache.stats().cached_bytes == 0

    def test_eviction_deterministic_under_equal_recency_ties(self, store):
        """Columns read by one call are equally recent; eviction among
        them must not depend on the order the caller listed the names,
        so two runs of the same workload leave identical cache state."""
        one = store.block(0).decoded_nbytes(["x"])

        def run(names_first_call):
            cache = BlockCache(budget_bytes=3 * one)
            cache.read_columns(store.block(0), names_first_call)
            cache.read_columns(store.block(1), ["x"])  # forces 1 eviction
            cache.read_columns(store.block(2), ["x"])  # forces another
            stats = cache.stats()
            survivors = sorted(cache._entries)
            return stats.evictions, survivors, stats.cached_bytes

        forward = run(["x", "y"])
        backward = run(["y", "x"])
        assert forward == backward
        # The tie-break is sorted-name order: within block 0's batch,
        # "x" is older than "y", so "x" is the first LRU victim.
        evictions, survivors, _ = forward
        assert evictions == 1
        assert (0, "x") not in survivors
        assert (0, "y") in survivors

    def test_duplicate_names_counted_once(self, store):
        cache = BlockCache(budget_bytes=1 << 20)
        out = cache.read_columns(store.block(0), ["x", "x", "y"])
        assert set(out) == {"x", "y"}
        stats = cache.stats()
        assert stats.hits + stats.misses == 2

    def test_concurrent_readers_consistent(self, store):
        cache = BlockCache(budget_bytes=1 << 20)
        errors = []

        def work():
            try:
                for block in store:
                    out = cache.read_columns(block, ["x"])
                    expected = block.read_column("x")
                    np.testing.assert_array_equal(out["x"], expected)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats.hits + stats.misses == 8 * len(store)


class TestScheduler:
    def test_bounded_admission_rejects_when_full(self):
        release = threading.Event()
        with Scheduler(max_workers=1, queue_depth=1) as sched:
            f1 = sched.submit(release.wait)
            f2 = sched.submit(release.wait)
            with pytest.raises(AdmissionRejected):
                sched.submit(release.wait, block=False)
            release.set()
            f1.result(timeout=5)
            f2.result(timeout=5)
        stats = sched.stats()
        assert stats.submitted == 2
        assert stats.completed == 2
        assert stats.rejected == 1

    def test_slots_recycle_after_completion(self):
        with Scheduler(max_workers=2, queue_depth=0) as sched:
            futures = [sched.submit(lambda: 42) for _ in range(20)]
            assert [f.result(timeout=5) for f in futures] == [42] * 20
        assert sched.stats().completed == 20

    def test_submit_after_shutdown_raises(self):
        sched = Scheduler(max_workers=1)
        sched.close()
        with pytest.raises(RuntimeError):
            sched.submit(lambda: None)


class TestServingMetrics:
    def test_empty_window_snapshot_is_all_zeros(self):
        """snapshot() before any query must return zeros (percentiles
        included), never raise on the zero-length latency sample."""
        metrics = ServingMetrics()
        snap = metrics.snapshot()
        assert snap.queries == 0
        assert snap.qps == 0.0
        assert snap.window_seconds == 0.0
        assert (
            snap.latency_mean_ms,
            snap.latency_p50_ms,
            snap.latency_p95_ms,
            snap.latency_p99_ms,
        ) == (0.0, 0.0, 0.0, 0.0)
        assert "p95" in snap.report()  # report renders the zeros too

    def test_empty_window_snapshot_keeps_cache_stats(self):
        cache = BlockCache(budget_bytes=1 << 20)
        snap = ServingMetrics().snapshot(cache.stats())
        assert snap.cache is not None
        assert snap.cache_hit_rate == 0.0

    def test_percentiles_and_counts(self):
        metrics = ServingMetrics()
        from repro.engine import QueryStats

        for i, ms in enumerate([1.0, 2.0, 3.0, 4.0]):
            metrics.record(
                ms / 1000.0,
                QueryStats(
                    query_name=f"q{i}",
                    template="",
                    blocks_considered=4,
                    blocks_scanned=2,
                    tuples_scanned=100,
                    rows_returned=10,
                    columns_read=1,
                    modeled_ms=1.0,
                    wall_seconds=ms / 1000.0,
                    bytes_read=800,
                ),
            )
        snap = metrics.snapshot()
        assert snap.queries == 4
        assert snap.latency_p50_ms == pytest.approx(2.5)
        assert snap.latency_p99_ms <= 4.0
        assert snap.tuples_scanned == 400
        assert snap.bytes_read == 3200
        assert snap.bytes_decoded == 3200  # no cache attached
        assert "p95" in snap.report()

    def test_reset_starts_new_window(self):
        metrics = ServingMetrics()
        from repro.engine import QueryStats

        stats = QueryStats("q", "", 1, 1, 1, 1, 1, 1.0, 0.001)
        metrics.record(0.001, stats)
        metrics.reset()
        assert metrics.snapshot().queries == 0


class TestPlannerReuse:
    def test_repeated_statements_memoized(self, layout):
        planner = SqlPlanner(layout.store.schema)
        a = planner.plan(STATEMENTS[0])
        b = planner.plan(STATEMENTS[0])
        assert a is b

    def test_advanced_registry_stable_across_replans(self, layout):
        planner = SqlPlanner(layout.store.schema)
        sql = "SELECT * FROM t WHERE cpu < disk"
        planner.plan(sql)
        size = len(planner.advanced_registry)
        planner.plan(sql)
        assert len(planner.advanced_registry) == size

    def test_concurrent_planning_consistent(self, layout):
        planner = SqlPlanner(layout.store.schema)
        results = []

        def work():
            for sql in STATEMENTS:
                results.append(planner.plan(sql))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(results) == 8 * len(STATEMENTS)
        by_sql = {}
        for planned in results:
            by_sql.setdefault(planned.query.name, set()).add(id(planned))
        # Each distinct statement resolved to exactly one planned object.
        assert all(len(ids) == 1 for ids in by_sql.values())


class TestStoreFixes:
    def test_block_lookup_and_membership(self, layout):
        store = layout.store
        first = store.block_ids[0]
        assert store.block(first).block_id == first
        assert first in store
        assert -1 not in store
        assert store.bid_set == frozenset(store.block_ids)
        with pytest.raises(KeyError):
            store.block(10_000)

    def test_blocks_ignores_unknown_bids(self, layout):
        store = layout.store
        got = store.blocks([store.block_ids[0], 10_000])
        assert [b.block_id for b in got] == [store.block_ids[0]]

    def test_blocks_considered_deduped_against_store(self, layout):
        engine = ScanEngine(layout.store)
        planner = SqlPlanner(layout.store.schema)
        query = planner.plan(STATEMENTS[0]).query
        present = list(layout.store.block_ids[:2])
        stats = engine.execute(query, present + [10_000, 10_001, 10_000])
        assert stats.blocks_considered == len(present)
