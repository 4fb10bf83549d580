"""Concurrency stress tests for the serving tier.

Hammers :class:`ShardedLayoutService` (its coordinator scheduler) and
:class:`BlockCache` from many client threads mixing repeated and
unique statements, and asserts the invariants that make concurrent
serving trustworthy:

* no lost or duplicated results — every submission produces exactly
  one result, and every result's row count matches ground truth;
* the buffer pool never exceeds its byte budget, sampled live while
  writers are racing, not just at the end;
* scheduler counters reconcile: admitted = completed + in-flight, and
  everything offered is either admitted or shed.
"""

import threading
import time

import numpy as np
import pytest

from repro.db import Database
from repro.serve import (
    AdmissionRejected,
    BlockCache,
    Scheduler,
    SchedulerStats,
    ShardedLayoutService,
)
from repro.sql import SqlPlanner
from repro.storage import BlockStore, Schema, Table, numeric
from repro.workloads import disjunctive_dataset

NUM_CLIENTS = 8


@pytest.fixture(scope="module")
def layout():
    ds = disjunctive_dataset(num_rows=20_000, seed=0)
    db = Database.from_table(ds.table, min_block_size=ds.min_block_size)
    return db.build_layout("greedy", workload=ds.workload)


REPEATED = [
    "SELECT * FROM t WHERE cpu < 0.4",
    "SELECT cpu FROM t WHERE cpu >= 0.3 AND disk < 0.6",
    "SELECT disk FROM t WHERE disk >= 0.8",
    "SELECT * FROM t WHERE cpu < 0.2 OR disk < 0.1",
]


def unique_statement(client: int, i: int) -> str:
    """A statement no other client issues (fresh literals -> fresh
    predicate fingerprint -> routing-memo miss path)."""
    lo = 1.0 + client * 7.0 + (i % 5) * 0.9
    return f"SELECT * FROM t WHERE cpu >= {lo:.3f} AND cpu <= {lo + 6.5:.3f}"


def drain(service, timeout: float = 5.0) -> None:
    """Wait for the scheduler's done-callbacks to settle: a future's
    result can be observable a beat before its completion callback has
    decremented the in-flight counter."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if service.scheduler.stats().in_flight == 0:
            return
        time.sleep(0.002)
    raise AssertionError("scheduler counters did not drain")


def ground_truth_rows(layout, sql: str) -> int:
    query = SqlPlanner(layout.store.schema).plan(sql).query
    ids = []
    for block in layout.store:
        data = block.read_columns(sorted(query.predicate.referenced_columns()))
        ids.append(block.row_ids[query.predicate.evaluate(data)])
    return len(np.unique(np.concatenate(ids))) if ids else 0


@pytest.mark.slow
@pytest.mark.parametrize("partition", ["rr", "subtree"])
def test_hammer_sharded_service(layout, partition):
    """>= 8 client threads through the scatter-gather stack: no lost or
    duplicated results, truth-exact row counts, reconciled counters."""
    rounds = 6
    # Budget small enough that eviction happens under load.
    budget = 256 * 1024
    with ShardedLayoutService(
        layout.store,
        layout.tree,
        num_shards=4,
        partition=partition,
        cache_budget_bytes=budget,
        max_workers=2,
    ) as service:
        per_shard_budget = budget // 4
        results = [None] * NUM_CLIENTS
        errors = []
        over_budget = []
        stop_sampling = threading.Event()

        def sample_cache():
            while not stop_sampling.is_set():
                for shard in service.shards:
                    stats = shard.cache.stats()
                    if stats.cached_bytes > per_shard_budget:
                        over_budget.append(stats)
                stop_sampling.wait(0.001)

        def client(idx: int):
            try:
                futures = []
                for r in range(rounds):
                    for sql in REPEATED:
                        futures.append((sql, service.submit_sql(sql)))
                    sql = unique_statement(idx, r)
                    futures.append((sql, service.submit_sql(sql)))
                results[idx] = [(sql, f.result(timeout=30)) for sql, f in futures]
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        sampler = threading.Thread(target=sample_cache)
        sampler.start()
        clients = [
            threading.Thread(target=client, args=(i,))
            for i in range(NUM_CLIENTS)
        ]
        for t in clients:
            t.start()
        for t in clients:
            t.join()
        stop_sampling.set()
        sampler.join()

        assert not errors
        # No lost results: every client got one result per submission.
        per_client = rounds * (len(REPEATED) + 1)
        assert all(len(r) == per_client for r in results)
        # No duplicated/corrupted results: row counts are truth-exact
        # for every statement, repeated and unique alike.
        truth = {}
        for client_results in results:
            for sql, served in client_results:
                if sql not in truth:
                    truth[sql] = ground_truth_rows(layout, sql)
                assert served.stats.rows_returned == truth[sql], sql

        # Cache stayed under budget at every sampled instant and at rest.
        assert not over_budget
        for shard in service.shards:
            assert shard.cache.stats().cached_bytes <= per_shard_budget

        # Scheduler counters reconcile.
        drain(service)
        coord = service.scheduler.stats()
        total = NUM_CLIENTS * per_client
        assert coord.submitted == total
        assert coord.submitted == coord.completed + coord.in_flight
        assert coord.in_flight == 0
        assert coord.offered == coord.submitted + coord.rejected
        # Coordinator metrics saw every query exactly once.
        assert service.snapshot().queries == total


@pytest.mark.slow
def test_open_loop_admitted_equals_completed_plus_shed(layout):
    """Open-loop overload: every offered query is either admitted (and
    then completed) or shed — never lost, never double-counted."""
    with ShardedLayoutService(
        layout.store,
        layout.tree,
        num_shards=2,
        partition="rr",
        max_workers=2,
        queue_depth=1,
    ) as service:
        replay = service.run_open_loop(
            REPEATED, target_qps=10_000.0, repeat=20
        )
        drain(service)
        coord = service.scheduler.stats()
    offered = len(REPEATED) * 20
    assert replay.issued == offered
    assert replay.completed + replay.rejected == offered
    assert replay.completed >= 1
    assert coord.submitted == replay.completed  # admitted == completed
    assert coord.rejected == replay.rejected  # shed
    assert coord.in_flight == 0


@pytest.mark.slow
def test_hammer_block_cache_budget_never_exceeded():
    """Raw BlockCache under 8 racing readers with a tiny budget: the
    byte budget holds at every sampled instant, and hit/miss counters
    account for every read exactly once."""
    schema = Schema([numeric("x", (0.0, 1.0)), numeric("y", (0.0, 1.0))])
    rng = np.random.default_rng(3)
    n = 16_000
    table = Table(
        schema, {"x": rng.uniform(size=n), "y": rng.uniform(size=n)}
    )
    store = BlockStore.from_assignment(table, np.repeat(np.arange(16), n // 16))
    one_column = store.block(0).decoded_nbytes(["x"])
    cache = BlockCache(budget_bytes=3 * one_column)

    iterations = 40
    errors = []
    over_budget = []
    column_reads = [0] * NUM_CLIENTS
    stop = threading.Event()

    def sampler():
        while not stop.is_set():
            stats = cache.stats()
            if stats.cached_bytes > cache.budget_bytes:
                over_budget.append(stats)
            stop.wait(0.0005)

    def reader(seed: int):
        local = np.random.default_rng(seed)
        try:
            for _ in range(iterations):
                block = store.block(int(local.integers(0, 16)))
                names = ["x", "y"] if local.integers(0, 2) else ["x"]
                out = cache.read_columns(block, names)
                column_reads[seed] += len(names)
                for name in names:
                    np.testing.assert_array_equal(
                        out[name], block.read_column(name)
                    )
        except Exception as exc:  # pragma: no cover
            errors.append(exc)

    sampling = threading.Thread(target=sampler)
    sampling.start()
    readers = [
        threading.Thread(target=reader, args=(i,)) for i in range(NUM_CLIENTS)
    ]
    for t in readers:
        t.start()
    for t in readers:
        t.join()
    stop.set()
    sampling.join()

    assert not errors
    assert not over_budget
    stats = cache.stats()
    assert stats.cached_bytes <= cache.budget_bytes
    # Every (read, column) accounted exactly once as hit or miss.
    assert stats.hits + stats.misses == sum(column_reads)


def small_layout():
    """A tiny tree-less layout: enough blocks to scan, fast to build."""
    from repro.db import Database

    schema = Schema([numeric("x", (0.0, 1.0)), numeric("y", (0.0, 1.0))])
    rng = np.random.default_rng(9)
    n = 6_000
    table = Table(
        schema, {"x": rng.uniform(size=n), "y": rng.uniform(size=n)}
    )
    db = Database.from_table(table, min_block_size=300)
    db.build_layout("range", column="x")
    return db


def saturate(service, statements, burst: int) -> int:
    """Fire a non-blocking burst; returns how many were shed."""
    futures = []
    shed = 0
    for i in range(burst):
        try:
            futures.append(
                service.submit_sql(statements[i % len(statements)], block=False)
            )
        except AdmissionRejected:
            shed += 1
    for f in futures:
        f.result(timeout=30)
    return shed


SHED_STATEMENTS = [
    "SELECT * FROM t WHERE x < 0.7",
    "SELECT y FROM t WHERE y >= 0.2 AND x < 0.9",
]


def test_shed_counters_reconcile_single_service():
    """Saturating burst through the pipeline-backed LayoutService:
    every offered query is admitted or shed, admitted == completed
    after the drain, and nothing stays in flight."""
    db = small_layout()
    burst = 120
    with db.serve(
        max_workers=1, queue_depth=2, result_cache=False
    ) as service:
        shed = saturate(service, SHED_STATEMENTS, burst)
        drain(service)
        stats = service.scheduler.stats()
    assert shed > 0, "burst never saturated the queue"
    assert stats.rejected == shed
    assert stats.in_flight == 0
    assert stats.submitted == stats.completed  # admitted == completed
    assert stats.offered == stats.completed + stats.rejected
    assert stats.offered == burst


def test_shed_counters_reconcile_sharded_service():
    """Same reconciliation through the sharded coordinator: it sheds,
    and its workers scan the shards themselves."""
    db = small_layout()
    burst = 120
    with db.serve(
        shards=2,
        partition="rr",
        max_workers=2,
        queue_depth=1,
        result_cache=False,
    ) as service:
        shed = saturate(service, SHED_STATEMENTS, burst)
        drain(service)
        coord = service.scheduler.stats()
    assert shed > 0, "burst never saturated the coordinator queue"
    assert coord.rejected == shed
    assert coord.in_flight == 0
    assert coord.submitted == coord.completed  # admitted == completed
    assert coord.offered == coord.completed + coord.rejected
    assert coord.offered == burst


def _reconciles(stats, offered: int) -> None:
    """Every offered unit is shed or admitted; everything admitted
    completed, failed or is still in flight."""
    assert stats.offered == stats.submitted + stats.rejected == offered
    assert stats.submitted == stats.completed + stats.failed + stats.in_flight


def test_scheduler_books_failures_apart_from_successes(monkeypatch):
    """Succeeding, raising and shed work on a plain scheduler: a
    future that raised is ``failed``, never ``completed``; a pool that
    refuses the work leaves nothing counted and no slot held."""
    gate = threading.Event()

    def work(ok: bool) -> int:
        gate.wait(10)
        if not ok:
            raise ValueError("boom")
        return 1

    scheduler = Scheduler(max_workers=1, queue_depth=2)
    futures, shed = [], 0
    for i in range(10):
        try:
            futures.append(scheduler.submit(work, i % 2 == 0, block=False))
        except AdmissionRejected:
            shed += 1
    gate.set()
    futures += [scheduler.submit(work, i % 3 == 0) for i in range(9)]
    raised = sum(f.exception(timeout=10) is not None for f in futures)
    with monkeypatch.context() as patch:
        patch.setattr(
            scheduler._pool, "submit", lambda *a, **k: 1 / 0
        )
        with pytest.raises(ZeroDivisionError):
            scheduler.submit(work, True)
    futures.append(scheduler.submit(work, True))  # the slot came back
    scheduler.close()
    stats = scheduler.stats()
    assert shed > 0 and raised > 0
    assert stats.rejected == shed
    assert stats.failed == raised
    assert stats.completed == len(futures) - raised
    assert stats.in_flight == 0
    _reconciles(stats, offered=len(futures) + shed)


def test_failed_counters_reconcile_sharded_service():
    """Good, unplannable and shed statements through the sharded
    coordinator: the raising ones land in the coordinator's
    ``failed``, and its counters still reconcile."""
    db = small_layout()
    statements = SHED_STATEMENTS + ["SELECT nope FROM t WHERE nope < 1"]
    futures, shed = [], 0
    with db.serve(
        shards=2,
        partition="rr",
        max_workers=2,
        queue_depth=1,
        result_cache=False,
    ) as service:
        for i in range(90):
            try:
                futures.append(
                    service.submit_sql(statements[i % 3], block=False)
                )
            except AdmissionRejected:
                shed += 1
        futures += [service.submit_sql(sql) for sql in statements]
        raised = sum(f.exception(timeout=30) is not None for f in futures)
        drain(service)
        coord = service.scheduler.stats()
    assert shed > 0 and raised > 0
    assert coord.failed == raised
    assert coord.rejected == shed
    _reconciles(coord, offered=len(futures) + shed)


def test_merged_scheduler_counters_reconcile():
    parts = [
        SchedulerStats(
            submitted=10, completed=8, rejected=2, max_in_flight=4, in_flight=2
        ),
        SchedulerStats(
            submitted=5, completed=5, rejected=0, max_in_flight=2, in_flight=0
        ),
    ]
    merged = SchedulerStats.merged(parts)
    assert merged.submitted == 15
    assert merged.completed == 13
    assert merged.in_flight == 2
    assert merged.submitted == merged.completed + merged.in_flight
    assert merged.offered == 17
