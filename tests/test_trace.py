"""Trace-integrity tests: every admitted query leaves exactly one
trace, spans reconcile with ``QueryStats``/``MetricsSnapshot``, the
accounting holds under an 8-thread hammer and across a generation
hot-swap, and tracing-off runs stay bit-identical."""

import json

import numpy as np
import pytest

from repro.adapt import AdaptPolicy
from repro.db import Database
from repro.obs import Tracer
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


def make_db(schema, rows=8_000, seed=0, block=500):
    rng = np.random.default_rng(seed)
    table = Table(
        schema,
        {
            "x": rng.uniform(0, 100, rows),
            "y": rng.uniform(0, 1, rows),
            "kind": rng.integers(0, 3, rows),
        },
    )
    return Database.from_table(table, min_block_size=block)


def _uncached(traces):
    return [t for t in traces if not t.attrs["cached"]]


# ----------------------------------------------------------------------
# One trace per admitted query, spans reconcile with stats
# ----------------------------------------------------------------------


class TestTraceIntegrity:
    def test_one_trace_per_query_with_full_span_set(self, schema):
        db = make_db(schema)
        db.build_layout("greedy", workload=X_SQL)
        tracer = Tracer()
        with db.serve(tracer=tracer) as svc:
            replay = svc.run_closed_loop(X_SQL, repeat=3)
        traces = tracer.query_traces()
        assert len(traces) == replay.issued == 18
        assert len({t.trace_id for t in traces}) == len(traces)
        for trace in traces:
            names = [s.name for s in trace.spans]
            for required in ("queue", "plan", "route", "result_cache",
                            "merge"):
                assert required in names, (trace.trace_id, names)
            # Cached hits short-circuit before the scan stage runs
            # real work, but the span still exists (zero-ish time).
            assert "scan" in names

    def test_trace_attrs_reconcile_with_snapshot(self, schema):
        """Trace-level counters sum to the window snapshot exactly:
        scan work over uncached traces, rows over all traces."""
        db = make_db(schema)
        db.build_layout("greedy", workload=X_SQL)
        tracer = Tracer()
        with db.serve(tracer=tracer) as svc:
            replay = svc.run_closed_loop(X_SQL, repeat=4)
        traces = tracer.query_traces()
        snap = replay.snapshot
        assert snap.queries == len(traces)
        assert snap.blocks_scanned == sum(
            t.attrs["blocks_scanned"] for t in _uncached(traces)
        )
        assert snap.tuples_scanned == sum(
            t.attrs["tuples_scanned"] for t in _uncached(traces)
        )
        assert snap.rows_returned == sum(
            t.attrs["rows_returned"] for t in traces
        )

    def test_trace_matches_serve_result_stats(self, schema):
        db = make_db(schema)
        db.build_layout("greedy", workload=X_SQL)
        tracer = Tracer()
        with db.serve(tracer=tracer, result_cache=False) as svc:
            result = svc.execute_sql(X_SQL[0])
        (trace,) = tracer.query_traces()
        assert trace.name == X_SQL[0]
        assert trace.attrs["blocks_scanned"] == result.stats.blocks_scanned
        assert trace.attrs["rows_returned"] == result.stats.rows_returned
        assert trace.attrs["generation"] == result.generation
        assert trace.attrs["latency_seconds"] == pytest.approx(
            result.latency_seconds
        )

    def test_sharded_child_spans_sum_to_merged_stats(self, schema):
        db = make_db(schema)
        db.build_layout("greedy", workload=X_SQL)
        tracer = Tracer()
        with db.serve(shards=2, tracer=tracer) as svc:
            svc.run_closed_loop(X_SQL, repeat=2)
        for trace in _uncached(tracer.query_traces()):
            children = trace.child_spans("scatter_scan")
            assert children, trace.trace_id
            for field in ("blocks_scanned", "tuples_scanned",
                          "bytes_read", "rows_returned"):
                assert trace.attrs[field] == sum(
                    c.attrs[field] for c in children
                ), (trace.trace_id, field)

    def test_multi_layout_trace_names_the_winner(self, schema):
        db = make_db(schema)
        db.build_layout("range", column="x", label="by-x")
        db.build_layout("range", column="y", label="by-y", activate=False)
        tracer = Tracer()
        with db.serve_multi(tracer=tracer) as svc:
            replay = svc.run_closed_loop(X_SQL + Y_SQL, repeat=2)
        traces = tracer.query_traces()
        assert len(traces) == replay.issued
        for trace in traces:
            arb = trace.span("arbitrate")
            assert arb is not None
            assert arb.attrs["winner"] == trace.attrs["winner"]
            assert trace.attrs["winner"] in ("by-x", "by-y")
        # Trace totals reconcile with the snapshot in the arbitrated
        # topology too.
        snap = replay.snapshot
        assert snap.blocks_scanned == sum(
            t.attrs["blocks_scanned"] for t in _uncached(traces)
        )
        assert snap.rows_returned == sum(
            t.attrs["rows_returned"] for t in traces
        )
        assert dict(snap.layout_wins)

    def test_eight_thread_hammer_loses_nothing(self, schema):
        db = make_db(schema)
        db.build_layout("greedy", workload=X_SQL)
        tracer = Tracer()
        with db.serve(max_workers=8, tracer=tracer) as svc:
            replay = svc.run_closed_loop(X_SQL + Y_SQL, repeat=8)
        traces = tracer.query_traces()
        assert len(traces) == replay.issued == 96
        assert len({t.trace_id for t in traces}) == 96
        assert tracer.dropped == 0
        snap = replay.snapshot
        assert snap.blocks_scanned == sum(
            t.attrs["blocks_scanned"] for t in _uncached(traces)
        )

    def test_ring_capacity_drops_oldest_but_counts(self, schema):
        db = make_db(schema, rows=2_000)
        db.build_layout("greedy", workload=X_SQL)
        tracer = Tracer(capacity=4)
        with db.serve(tracer=tracer) as svc:
            svc.run_closed_loop(X_SQL, repeat=2)  # 12 queries
        assert len(tracer.query_traces()) == 4
        assert tracer.finished == 12
        assert tracer.dropped == 8


# ----------------------------------------------------------------------
# Generation hot-swap: queries and control plane share a timeline
# ----------------------------------------------------------------------


class TestAdaptTracing:
    @pytest.mark.adapt
    def test_traces_survive_generation_hot_swap(self, schema):
        policy = AdaptPolicy(
            log_capacity=1024,
            window=60,
            threshold=0.4,
            min_records=24,
            check_every=6,
            min_improvement=0.1,
            strategy="greedy",
        )
        db = make_db(schema, rows=16_000, seed=3)
        frozen = db.build_layout("greedy", workload=X_SQL)
        tracer = Tracer()
        with db.auto_adapt(policy=policy, tracer=tracer) as service:
            service.run_closed_loop(X_SQL, repeat=4)
            service.run_closed_loop(Y_SQL, repeat=12)
            swapped = service.generation != frozen.generation
            final = service.run_closed_loop(Y_SQL, repeat=1)

        assert swapped, "drifted workload should have triggered a swap"
        assert final.completed == len(Y_SQL)
        controls = {t.name for t in tracer.control_traces()}
        assert {"drift_check", "rebuild", "generation_swap"} <= controls
        # The swap trace carries the generation it installed.
        swap = [
            t for t in tracer.control_traces()
            if t.name == "generation_swap"
        ][-1]
        assert swap.attrs["generation"] == service.generation
        # Query traces exist from BOTH generations — the tracer
        # followed the facade across the hot-swap.
        generations = {
            t.attrs["generation"] for t in tracer.query_traces()
        }
        assert {frozen.generation, service.generation} <= generations
        # Every drift check recorded a drifted verdict and a score.
        for t in tracer.control_traces():
            if t.name == "drift_check":
                assert "drifted" in t.attrs and "score" in t.attrs


# ----------------------------------------------------------------------
# stage_seconds accounting (satellite: no stage unaccounted)
# ----------------------------------------------------------------------


class TestStageSeconds:
    def test_every_stage_and_queue_appear_and_sum_to_latency(self, schema):
        db = make_db(schema)
        db.build_layout("greedy", workload=X_SQL)
        with db.serve() as svc:
            replay = svc.run_closed_loop(X_SQL, repeat=2)
        for result in replay.results:
            ss = result.stage_seconds
            for key in ("queue", "plan", "route", "result_cache",
                        "scan", "merge"):
                assert key in ss, (result.sql, sorted(ss))
            undotted = sum(
                v for k, v in ss.items() if "." not in k
            )
            # The undotted keys account (almost) all of the latency:
            # only loop overhead between stages is unattributed.
            assert undotted <= result.latency_seconds + 1e-9
            assert undotted >= 0.5 * result.latency_seconds

    def test_sharded_scan_carries_per_shard_attribution(self, schema):
        db = make_db(schema)
        db.build_layout("greedy", workload=X_SQL)
        with db.serve(shards=2, result_cache=False) as svc:
            replay = svc.run_closed_loop(X_SQL, repeat=1)
        shard_keys = set()
        for result in replay.results:
            keys = {k for k in result.stage_seconds if k.startswith("scan.shard")}
            shard_keys |= keys
            # Dotted keys are sub-attributions of "scan", not extra
            # stages: each is bounded by total wall time.
            for k in keys:
                assert result.stage_seconds[k] >= 0.0
        assert shard_keys, "sharded replay never attributed a shard scan"

    def test_results_bit_identical_with_and_without_tracer(self, schema):
        db = make_db(schema)
        db.build_layout("greedy", workload=X_SQL)
        with db.serve(result_cache=False) as svc:
            plain_keys = sorted(
                r.stats.result_key()
                for r in svc.run_closed_loop(X_SQL, repeat=2).results
            )
        with db.serve(result_cache=False, tracer=Tracer()) as svc:
            traced_keys = sorted(
                r.stats.result_key()
                for r in svc.run_closed_loop(X_SQL, repeat=2).results
            )
        assert plain_keys == traced_keys


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------


class TestExports:
    def test_jsonl_lines_parse_and_round_trip(self, schema, tmp_path):
        db = make_db(schema)
        db.build_layout("greedy", workload=X_SQL)
        tracer = Tracer()
        with db.serve(tracer=tracer) as svc:
            svc.run_closed_loop(X_SQL, repeat=1)
        path = tmp_path / "run.jsonl"
        count = tracer.write_jsonl(path)
        lines = path.read_text().splitlines()
        assert count == len(lines) == len(tracer.query_traces())
        for line in lines:
            doc = json.loads(line)
            assert doc["kind"] == "query"
            assert doc["trace_id"].startswith("q")
            assert {s["name"] for s in doc["spans"]} >= {"plan", "merge"}

    def test_chrome_trace_is_perfetto_shaped(self, schema, tmp_path):
        db = make_db(schema)
        db.build_layout("greedy", workload=X_SQL)
        tracer = Tracer()
        policy = AdaptPolicy(
            window=8, threshold=0.99, min_records=4, check_every=2
        )
        with db.auto_adapt(policy=policy, tracer=tracer) as svc:
            svc.run_closed_loop(X_SQL, repeat=2)
        assert tracer.control_traces(), "no drift check ever fired"
        path = tmp_path / "run.trace.json"
        count = tracer.write_chrome_trace(path)
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        assert len(events) == count > 0
        assert doc["metadata"]["exported_unix"] > 0
        pids = {e["pid"] for e in events}
        assert 1 in pids  # query lanes
        assert 2 in pids  # control plane (drift checks ran)
        for event in events:
            assert event["ph"] == "X"
            assert event["dur"] >= 0
            assert isinstance(event["tid"], int)
