"""The repro.adapt control plane: log capture, drift detection,
inline re-optimization with hot swap.

Acceptance proofs:

* **Closed loop** — under a drifting replay the adaptive service
  performs ≥1 inline rebuild + generation swap with bit-identical
  query results throughout, and blocks scanned on the post-drift mix
  drop to ≤70% of the frozen layout (avoided work, not wall-clock).
* **Crash safety** — a rebuild that raises after its candidate was
  built drops the candidate and books a rejection.
"""

import numpy as np
import pytest

from repro.adapt import (
    AdaptPolicy,
    DriftDetector,
    QueryLog,
    WorkloadSignature,
    divergence,
    offline_blocks_cost,
    template_key,
)
from repro.db import Database
from repro.serve import run_serial_baseline
from repro.storage import Schema, Table, categorical, numeric

X_SQL = [
    f"SELECT x FROM t WHERE x >= {lo} AND x < {lo + 5}"
    for lo in (5, 20, 35, 50, 65, 80)
]
Y_SQL = [
    f"SELECT y FROM t WHERE y >= {lo:.2f} AND y < {lo + 0.05:.2f}"
    for lo in (0.05, 0.20, 0.35, 0.50, 0.65, 0.80)
]


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


def make_db(schema, rows=12_000, seed=0, block=500):
    return Database.from_table(
        make_table(schema, rows, seed), min_block_size=block
    )


# ----------------------------------------------------------------------
# Signatures & divergence
# ----------------------------------------------------------------------


class TestSignature:
    def test_template_key_ignores_literals(self, schema):
        db = make_db(schema, rows=1000)
        q1 = db.planner.plan(X_SQL[0]).query
        q2 = db.planner.plan(X_SQL[3]).query
        assert template_key(q1) == template_key(q2) == "x < & x >="
        qy = db.planner.plan(Y_SQL[0]).query
        assert template_key(qy) != template_key(q1)

    def test_labelled_build_workload_matches_unlabelled_live_traffic(
        self, schema
    ):
        """Regression: workload generators label their queries
        (``template=``) but live SQL-planned traffic never does; the
        template key must come from the predicate shape on BOTH sides
        or identical statements would read as permanently drifted."""
        db = make_db(schema, rows=1000)
        labelled = [
            db.planner.plan(sql, template=f"T{i}").query
            for i, sql in enumerate(X_SQL)
        ]
        unlabelled = [db.planner.plan(sql).query for sql in X_SQL]
        assert (
            divergence(
                WorkloadSignature.from_queries(labelled),
                WorkloadSignature.from_queries(unlabelled),
            )
            == 0.0
        )

    def test_signature_normalizes_and_weights(self, schema):
        db = make_db(schema, rows=1000)
        queries = [db.planner.plan(sql).query for sql in X_SQL[:2] + Y_SQL[:1]]
        sig = WorkloadSignature.from_queries(queries)
        assert sig.weight == 3
        assert abs(sum(sig.templates.values()) - 1.0) < 1e-9
        assert abs(sig.templates["x < & x >="] - 2 / 3) < 1e-9
        assert abs(sig.columns["y"] - 1 / 3) < 1e-9

    def test_divergence_bounds(self, schema):
        db = make_db(schema, rows=1000)
        x_sig = WorkloadSignature.from_queries(
            [db.planner.plan(sql).query for sql in X_SQL]
        )
        y_sig = WorkloadSignature.from_queries(
            [db.planner.plan(sql).query for sql in Y_SQL]
        )
        assert divergence(x_sig, x_sig) == 0.0
        assert divergence(x_sig, y_sig) == 1.0  # disjoint templates
        assert divergence(x_sig, WorkloadSignature()) == 0.0  # no evidence

    def test_json_round_trip(self, schema):
        db = make_db(schema, rows=1000)
        sig = WorkloadSignature.from_queries(
            [db.planner.plan(sql).query for sql in X_SQL + Y_SQL]
        )
        back = WorkloadSignature.from_json(sig.to_json())
        assert back == sig

    def test_signature_persists_through_save_open(self, schema, tmp_path):
        db = make_db(schema, rows=2000)
        handle = db.build_layout("greedy", workload=X_SQL)
        assert handle.workload_signature is not None
        db.save(tmp_path / "layout")
        reopened = Database.open(tmp_path / "layout")
        restored = reopened.active_layout.workload_signature
        assert restored == handle.workload_signature
        assert divergence(restored, handle.workload_signature) == 0.0


# ----------------------------------------------------------------------
# The query log and its RecordStage feeds
# ----------------------------------------------------------------------


class TestQueryLog:
    def test_ring_is_bounded(self):
        from repro.adapt import QueryRecord

        log = QueryLog(capacity=4)
        for i in range(10):
            log.append(
                QueryRecord(
                    sql=f"q{i}",
                    template="t",
                    filter_columns=("x",),
                    generation=1,
                    blocks_considered=1,
                    blocks_scanned=1,
                    tuples_scanned=1,
                    bytes_read=1,
                    rows_returned=1,
                )
            )
        assert len(log) == 4
        assert log.total_recorded == 10
        assert [r.sql for r in log.window()] == ["q6", "q7", "q8", "q9"]

    def test_generation_attributed_without_result_cache(self, schema):
        """Regression: the answering generation must be stamped on
        results and log records even when result caching is off —
        attribution is what makes hot swaps auditable."""
        db = make_db(schema, rows=2000)
        db.build_layout("greedy", workload=X_SQL)
        log = QueryLog()
        with db.serve(result_cache=False, record_sink=log) as service:
            result = service.execute_sql(X_SQL[0])
        assert result.generation == db.generation == 1
        assert log.window()[0].generation == 1

    def test_serial_baseline_populates_log(self, schema):
        db = make_db(schema, rows=3000)
        handle = db.build_layout("greedy", workload=X_SQL)
        log = QueryLog()
        run_serial_baseline(
            handle.store,
            handle.tree,
            X_SQL,
            planner=db.planner,
            num_advanced_cuts=handle.num_advanced_cuts,
            record_sink=log,
        )
        assert len(log) == len(X_SQL)
        record = log.window()[0]
        assert record.template == "x < & x >="
        assert record.blocks_scanned > 0 and not record.cached

    def test_single_layout_service_populates_log(self, schema):
        db = make_db(schema, rows=3000)
        db.build_layout("greedy", workload=X_SQL)
        log = QueryLog()
        with db.serve(record_sink=log) as service:
            service.run_closed_loop(X_SQL, repeat=2)
        assert len(log) == 2 * len(X_SQL)
        # The repeat pass hit the result cache; records say so and
        # still carry the original realized costs.
        cached = [r for r in log.window() if r.cached]
        assert cached and all(r.blocks_scanned > 0 for r in cached)
        assert all(r.generation == db.generation for r in log.window())

    def test_sharded_coordinator_populates_log(self, schema):
        db = make_db(schema, rows=3000)
        db.build_layout("greedy", workload=X_SQL)
        log = QueryLog()
        with db.serve(shards=2, record_sink=log) as service:
            service.run_closed_loop(X_SQL, repeat=1)
        assert len(log) == len(X_SQL)  # coordinator records once

    def test_multi_layout_service_populates_log(self, schema):
        db = make_db(schema, rows=3000)
        db.build_layout("range", column="x", label="by-x")
        db.build_layout("range", column="y", label="by-y", activate=False)
        log = QueryLog()
        with db.serve_multi(record_sink=log) as service:
            for sql in X_SQL + Y_SQL:
                service.execute_sql(sql)
        assert len(log) == len(X_SQL) + len(Y_SQL)
        assert {r.winner for r in log.window()} == {"by-x", "by-y"}

    def test_signature_and_statements_views(self, schema):
        db = make_db(schema, rows=3000)
        db.build_layout("greedy", workload=X_SQL)
        log = QueryLog()
        with db.serve(record_sink=log) as service:
            service.run_closed_loop(X_SQL + X_SQL[:1], repeat=1)
        sig = log.signature()
        assert set(sig.templates) == {"x < & x >="}
        top_sql, top_count = log.statements()[0]
        assert top_sql == X_SQL[0] and top_count == 2


# ----------------------------------------------------------------------
# Drift detection
# ----------------------------------------------------------------------


class TestDriftDetector:
    def test_fires_only_past_threshold_and_evidence(self, schema):
        db = make_db(schema, rows=3000)
        handle = db.build_layout("greedy", workload=X_SQL)
        detector = DriftDetector(
            handle.workload_signature,
            window=32,
            threshold=0.5,
            min_records=8,
        )
        log = QueryLog()
        with db.serve(record_sink=log) as service:
            for sql in X_SQL:
                service.execute_sql(sql)
            assert not detector.drifted(log)  # same mix, and < min_records? (6 < 8)
            service.run_closed_loop(X_SQL, repeat=2)
            assert not detector.drifted(log)  # same mix, enough evidence
            assert detector.last_score < 0.1
            # Now the mix shifts entirely onto y templates.
            service.run_closed_loop(Y_SQL, repeat=6)
        assert detector.drifted(log)
        assert detector.last_score > 0.5

    def test_rebase_rearms(self, schema):
        db = make_db(schema, rows=3000)
        handle = db.build_layout("greedy", workload=X_SQL)
        detector = DriftDetector(
            handle.workload_signature, window=32, threshold=0.4, min_records=8
        )
        log = QueryLog()
        with db.serve(record_sink=log) as service:
            service.run_closed_loop(Y_SQL, repeat=6)
        assert detector.drifted(log)
        detector.rebase(log.signature(32))
        assert not detector.drifted(log)
        assert detector.last_score < 0.1


# ----------------------------------------------------------------------
# The closed adaptation loop (ISSUE acceptance)
# ----------------------------------------------------------------------


ADAPT_POLICY = AdaptPolicy(
    log_capacity=1024,
    window=60,
    threshold=0.4,
    min_records=24,
    check_every=6,
    min_improvement=0.1,
    strategy="greedy",
)


@pytest.mark.adapt
class TestClosedLoop:
    def test_drift_triggers_rebuild_swap_and_saves_blocks(self, schema):
        """The tentpole proof: shift the filter-column distribution
        mid-replay; the detector fires, an inline rebuild + swap
        happens, results stay bit-identical, and post-swap blocks
        scanned on the new mix is ≤70% of the frozen layout's."""
        db = make_db(schema, rows=20_000, seed=3)
        frozen = db.build_layout("greedy", workload=X_SQL)

        # Ground truth rows per statement (layout-independent).
        expected_rows = {
            sql: int(
                db.planner.plan(sql)
                .query.predicate.evaluate(db.table.columns())
                .sum()
            )
            for sql in X_SQL + Y_SQL
        }

        with db.auto_adapt(policy=ADAPT_POLICY) as service:
            before = service.run_closed_loop(X_SQL, repeat=5)
            assert service.generation == frozen.generation
            assert not service.events  # stationary: no rebuild
            after = service.run_closed_loop(Y_SQL, repeat=12)
            swaps = [e for e in service.events if e.kind == "swap"]
            assert swaps, (
                f"no swap happened: drift={service.detector.last_score}, "
                f"events={service.events}"
            )
            assert service.generation != frozen.generation
            final = service.run_closed_loop(Y_SQL, repeat=2)

        # Bit-identical results throughout: every replayed result
        # returned exactly the rows the table says it should, before,
        # during and after the swap.
        for replay, statements in (
            (before, X_SQL),
            (after, Y_SQL),
            (final, Y_SQL),
        ):
            for i, result in enumerate(replay.results):
                sql = statements[i % len(statements)]
                assert result.stats.rows_returned == expected_rows[sql]

        # Avoided-work acceptance: the post-drift mix on the adapted
        # layout costs ≤ 70% of the frozen layout's blocks.
        adapted = db.active_layout
        y_queries = [(db.planner.plan(sql).query, 1) for sql in Y_SQL]
        frozen_cost = offline_blocks_cost(frozen, y_queries)
        adapted_cost = offline_blocks_cost(adapted, y_queries)
        assert adapted_cost <= 0.70 * frozen_cost, (
            f"adapted layout scans {adapted_cost} blocks on the "
            f"post-drift mix vs frozen {frozen_cost}"
        )
        # The swap really went through the generation lifecycle: the
        # result cache holds only the new generation.
        assert db.result_cache.generations() in (
            (),
            (adapted.generation,),
        )
        # And the displaced incumbent was dropped from the database
        # (each generation pins a full table copy; a long-running
        # loop must not grow one per swap).  The caller-held `frozen`
        # handle stays usable, as exercised above.
        assert frozen not in db.layouts()

    def test_inline_rebuild_is_repeatable_and_serves_the_next_statement(
        self, schema
    ):
        """The rebuild runs inside the query whose check saw drift, so
        two fresh runs of one statement sequence swap at the same
        statement, and the statement right after it is answered by
        the new generation."""

        def run():
            db = make_db(schema, rows=12_000, seed=3)
            db.build_layout("greedy", workload=X_SQL)
            generations, swaps_after = [], []
            with db.auto_adapt(policy=ADAPT_POLICY) as service:
                for sql in X_SQL * 5 + Y_SQL * 12:
                    generations.append(service.execute_sql(sql).generation)
                    swaps_after.append(
                        sum(e.kind == "swap" for e in service.events)
                    )
                events = service.events
            return generations, swaps_after, events

        generations, swaps_after, events = run()
        assert (generations, swaps_after, events) == run()
        swaps = [e for e in events if e.kind == "swap"]
        assert swaps, f"no swap inside the sequence: {events}"
        trigger = swaps_after.index(1)
        assert trigger + 1 < len(generations)
        assert generations[trigger] != swaps[0].generation
        assert generations[trigger + 1] == swaps[0].generation

    def test_one_scheduler_counts_every_statement_across_swaps(self, schema):
        db = make_db(schema, rows=12_000, seed=3)
        frozen = db.build_layout("greedy", workload=X_SQL)
        with db.auto_adapt(policy=ADAPT_POLICY) as service:
            before = service.run_closed_loop(X_SQL, repeat=5)
            after = service.run_closed_loop(Y_SQL, repeat=12)
            assert service.generation != frozen.generation
        # close() drained the pool, so every done-callback has counted.
        stats = service.scheduler.stats()
        assert stats.completed == before.completed + after.completed
        assert stats.completed == len(X_SQL) * 5 + len(Y_SQL) * 12

    def test_swapping_query_leaves_no_old_generation_cache_entry(self, schema):
        """The statement whose check swaps the layout publishes its
        result before the swap purges the cache, so after a stream of
        never-seen statements only the active generation holds
        entries."""
        fresh_y = [
            f"SELECT y FROM t WHERE y >= {lo:.3f} AND y < {lo + 0.05:.3f}"
            for lo in np.linspace(0.01, 0.9, 120)
        ]
        db = make_db(schema, rows=12_000, seed=3)
        frozen = db.build_layout("greedy", workload=X_SQL)
        with db.auto_adapt(policy=ADAPT_POLICY) as service:
            for sql in X_SQL * 5 + fresh_y:
                service.execute_sql(sql)
            assert any(e.kind == "swap" for e in service.events)
        assert db.generation != frozen.generation
        assert db.result_cache.generations() == (db.generation,)

    def test_insufficient_improvement_discards_candidate(self, schema):
        """A drift whose rebuilt candidate cannot beat the incumbent
        is rejected, the candidate generation is dropped, and serving
        stays on the incumbent."""
        db = make_db(schema, rows=8_000, seed=4)
        frozen = db.build_layout("greedy", workload=X_SQL)
        # Impossible bar: no candidate wins by 99%.
        policy = AdaptPolicy(
            log_capacity=1024,
            window=48,
            threshold=0.4,
            min_records=24,
            check_every=6,
            min_improvement=0.99,
        )
        with db.auto_adapt(policy=policy) as service:
            service.run_closed_loop(Y_SQL, repeat=10)
            stats = service.reoptimizer.stats()
            assert stats.rebuilds >= 1
            assert stats.swaps == 0
            assert all(e.kind == "rejected" for e in stats.events)
            assert service.generation == frozen.generation
        assert db.active_layout is frozen
        assert len(db.layouts()) == 1  # rejected candidates dropped

    def test_crashed_decision_drops_its_candidate(self, schema, monkeypatch):
        """A rebuild that raises after ``build_layout`` returned must
        not leave the candidate generation (a full table copy)
        registered; the ledger books it as a rejected rebuild."""
        from repro.adapt import reoptimize

        db = make_db(schema, rows=4_000, seed=13)
        frozen = db.build_layout("greedy", workload=X_SQL)
        calls = []

        def crash_on_candidate(handle, weighted_queries):
            calls.append(handle)
            if len(calls) == 2:
                raise RuntimeError("injected")
            return offline_blocks_cost(handle, weighted_queries)

        monkeypatch.setattr(reoptimize, "offline_blocks_cost", crash_on_candidate)
        # An evidence floor the replay never reaches: only adapt_now()
        # rebuilds.
        policy = AdaptPolicy(min_records=1_000, window=64)
        with db.auto_adapt(policy=policy, result_cache=False) as service:
            service.run_closed_loop(Y_SQL, repeat=2)
            assert service.reoptimizer.adapt_now() is None
            stats = service.reoptimizer.stats()
        assert len(calls) == 2
        assert db.layouts() == (frozen,)
        assert db.active_layout is frozen
        assert stats.rejected == 1 and stats.swaps == 0
        assert stats.last_error == "RuntimeError: injected"

    def test_result_cache_false_disables_caching(self, schema):
        db = make_db(schema, rows=4_000, seed=11)
        db.build_layout("greedy", workload=X_SQL)
        with db.auto_adapt(result_cache=False) as service:
            service.run_closed_loop(X_SQL, repeat=3)
            assert service.result_cache is None
        assert len(db.result_cache) == 0

    def test_window_snapshot_survives_mid_replay_cache_swap(self, schema):
        """A hot swap replaces the buffer pool mid-window; the replay
        snapshot must fall back to the new pool's stats instead of
        reporting negative deltas against the retired pool's."""
        db = make_db(schema, rows=4_000, seed=12)
        db.build_layout("greedy", workload=X_SQL)
        with db.auto_adapt() as service:
            service.run_closed_loop(X_SQL, repeat=3)
            stale_before = service._cache_stats()  # big counters
            service._install(db.active_layout)  # fresh pool, zeroed
            snap = service._window_snapshot(stale_before)
            assert snap.cache.hits >= 0 and snap.cache.misses >= 0

    def test_report_carries_adapt_counters(self, schema):
        db = make_db(schema, rows=6_000, seed=5)
        db.build_layout("greedy", workload=X_SQL)
        with db.auto_adapt(policy=ADAPT_POLICY) as service:
            service.run_closed_loop(Y_SQL, repeat=12)
            report = service.report()
        assert "drift score" in report
        assert "adaptation" in report
        assert "swaps" in report
        snap = service.snapshot()
        assert snap.adapt is not None
        assert snap.adapt.swaps == sum(
            1 for e in service.events if e.kind == "swap"
        )


# ----------------------------------------------------------------------
# Drift stress (slow CI job)
# ----------------------------------------------------------------------


@pytest.mark.slow
@pytest.mark.adapt
def test_drift_stress_concurrent_submissions(schema):
    """The closed loop under concurrent scheduler traffic: drifting
    load submitted through the pool while a worker rebuilds and swaps
    generations — every future resolves, every result is row-exact,
    and at least one swap lands."""
    db = make_db(schema, rows=30_000, seed=10)
    db.build_layout("greedy", workload=X_SQL)
    expected_rows = {
        sql: int(
            db.planner.plan(sql)
            .query.predicate.evaluate(db.table.columns())
            .sum()
        )
        for sql in X_SQL + Y_SQL
    }
    policy = AdaptPolicy(
        log_capacity=2048,
        window=80,
        threshold=0.4,
        min_records=32,
        check_every=8,
        min_improvement=0.1,
    )
    with db.auto_adapt(policy=policy, max_workers=4) as service:
        futures = []
        for _ in range(4):
            for sql in X_SQL:
                futures.append((sql, service.submit_sql(sql)))
        # Drifted traffic keeps flowing in waves (a first check may
        # fire on a window still mixed with x-queries and get its
        # candidate rejected; sustained drift must still converge to
        # a swap).
        for _ in range(5):
            for _ in range(10):
                for sql in Y_SQL:
                    futures.append((sql, service.submit_sql(sql)))
            for sql, future in futures:
                result = future.result(timeout=120)
                assert result.stats.rows_returned == expected_rows[sql]
            futures.clear()
            if any(e.kind == "swap" for e in service.events):
                break
        swaps = [e for e in service.events if e.kind == "swap"]
        assert swaps, f"no swap under sustained drift: {service.events}"
        # Post-swap traffic still row-exact and served by the new gen.
        late = service.execute_sql(Y_SQL[0])
        assert late.stats.rows_returned == expected_rows[Y_SQL[0]]
        assert late.generation == service.generation
