"""Tests for repro.obs: clock, stats base, metrics registry."""

import json
import time
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exec import ResultCacheStats

from repro.obs import MetricsRegistry, Sample, now, plain, wall_time
from repro.serve.cache import CacheStats
from repro.serve.metrics import MetricsSnapshot, ServingMetrics
from repro.serve.scheduler import SchedulerStats


# ----------------------------------------------------------------------
# Clock
# ----------------------------------------------------------------------


class TestClock:
    def test_now_is_monotonic(self):
        samples = [now() for _ in range(100)]
        assert all(b >= a for a, b in zip(samples, samples[1:]))

    def test_wall_time_is_epoch(self):
        assert abs(wall_time() - time.time()) < 5.0


# ----------------------------------------------------------------------
# The Stats base: one declaration, derived since / merged / rows
# ----------------------------------------------------------------------

counts = st.integers(min_value=0, max_value=10**9)


def _stats_of(cls, values):
    """``cls`` with its numeric fields filled from ``values`` in
    declaration order."""
    names = [f.name for f in fields(cls)]
    return cls(**dict(zip(names, values)))


def _n_fields(cls):
    return st.lists(
        counts, min_size=len(fields(cls)), max_size=len(fields(cls))
    )


#: Per class: the fields the deleted hand-written ``since`` kept at the
#: later snapshot's value (everything else subtracted).
KEPT_BY_SINCE = {
    CacheStats: {"entries", "cached_bytes", "budget_bytes"},
    ResultCacheStats: {"entries", "row_id_entries", "row_id_bytes"},
    SchedulerStats: {"in_flight", "max_in_flight"},
}


class TestStatsBase:
    @pytest.mark.parametrize("cls", sorted(KEPT_BY_SINCE, key=lambda c: c.__name__))
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_since_matches_the_hand_written_formula(self, cls, data):
        later = _stats_of(cls, data.draw(_n_fields(cls)))
        earlier = _stats_of(cls, data.draw(_n_fields(cls)))
        delta = later.since(earlier)
        assert type(delta) is cls
        for f in fields(cls):
            got = getattr(delta, f.name)
            if f.name in KEPT_BY_SINCE[cls]:
                assert got == getattr(later, f.name), f.name
            else:
                assert got == getattr(later, f.name) - getattr(
                    earlier, f.name
                ), f.name

    @pytest.mark.parametrize("cls", [CacheStats, SchedulerStats])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_merged_sums_every_field(self, cls, data):
        parts = [
            _stats_of(cls, values)
            for values in data.draw(st.lists(_n_fields(cls), max_size=4))
        ]
        merged = cls.merged(parts)
        for f in fields(cls):
            assert getattr(merged, f.name) == sum(
                getattr(p, f.name) for p in parts
            ), f.name

    def test_rows_come_from_the_field_declarations(self):
        rows = list(CacheStats(hits=3, entries=2).rows())
        assert ("repro_cache_hits_total", 3, "Buffer-pool hits", "counter") in rows
        assert ("repro_cache_entries", 2, "Resident entries", "gauge") in rows
        # Fields declared without a metric name are kept, not exported.
        exported = {row[0] for row in ResultCacheStats(invalidated=9).rows()}
        assert exported == {
            "repro_result_cache_hits_total",
            "repro_result_cache_misses_total",
            "repro_result_cache_entries",
            "repro_result_cache_tuples_avoided_total",
        }

    def test_labelled_field_expands_into_one_row_per_key(self):
        snap = MetricsSnapshot(layout_wins=(("by-x", 4), ("by-y", 1)))
        wins = [r for r in snap.rows() if r[0] == "repro_serve_layout_wins_total"]
        assert [(r[1], r[4]) for r in wins] == [
            (4, {"layout": "by-x"}),
            (1, {"layout": "by-y"}),
        ]
        # ...and is left alone by since(): a tuple is not a delta.
        assert snap.since(MetricsSnapshot()).layout_wins == snap.layout_wins


# ----------------------------------------------------------------------
# Exports
# ----------------------------------------------------------------------


def _view(reg, rows, **labels):
    reg.register_view("test", labels, lambda: rows)


class TestExports:
    def test_invalid_names_rejected(self):
        with pytest.raises(ValueError):
            Sample.of("0bad", 1)
        with pytest.raises(ValueError):
            Sample.of("repro_ok_total", 1, {"bad-label": 1})

    def test_prometheus_text_shape(self):
        reg = MetricsRegistry()
        _view(
            reg,
            [("repro_q_total", 3, "Queries served", "counter")],
            service="a",
        )
        text = reg.to_prometheus_text()
        assert "# HELP repro_q_total Queries served" in text
        assert "# TYPE repro_q_total counter" in text
        assert 'repro_q_total{service="a"} 3' in text
        assert text.endswith("\n")

    def test_row_labels_join_the_view_labels(self):
        reg = MetricsRegistry()
        _view(
            reg,
            [("repro_wins_total", 2, "", "counter", {"layout": "by-x"})],
            service="a",
        )
        assert (
            'repro_wins_total{layout="by-x",service="a"} 2'
            in reg.to_prometheus_text()
        )

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        _view(reg, [("repro_q_total", 1, "", "counter")], q='say "hi"\n')
        text = reg.to_prometheus_text()
        assert 'q="say \\"hi\\"\\n"' in text

    def test_zero_counters_still_exported(self):
        """A resource that has done nothing yet still exports its
        series, so dashboards see they exist."""
        reg = MetricsRegistry()
        ServingMetrics().publish(reg)
        assert "repro_serve_errors_total 0" in reg.to_prometheus_text()

    def test_json_export_round_trips(self):
        reg = MetricsRegistry()
        _view(reg, [("repro_q_total", 2, "Queries", "counter")], s="x")
        doc = json.loads(json.dumps(reg.to_json()))
        fam = doc["repro_q_total"]
        assert fam["type"] == "counter"
        assert fam["samples"] == [
            {"name": "repro_q_total", "labels": {"s": "x"}, "value": 2.0}
        ]

    def test_collector_yields_samples_at_export(self):
        reg = MetricsRegistry()
        state = {"v": 1}
        reg.register_collector(
            lambda: [Sample.of("repro_live", state["v"], kind="gauge")]
        )
        assert "repro_live 1" in reg.to_prometheus_text()
        state["v"] = 9
        assert "repro_live 9" in reg.to_prometheus_text()

    def test_failing_collector_is_counted_not_fatal(self):
        reg = MetricsRegistry()

        def boom():
            raise RuntimeError("collector bug")

        reg.register_collector(boom, name="boom")
        text = reg.to_prometheus_text()
        assert "repro_collector_errors 1" in text

    def test_serving_metrics_publish_is_a_thin_view(self):
        """ServingMetrics stays authoritative; the registry reflects
        the live snapshot at each export."""
        from repro.engine.executor import QueryStats

        stats = QueryStats(
            query_name="q",
            template="t",
            blocks_considered=3,
            blocks_scanned=2,
            tuples_scanned=100,
            rows_returned=10,
            columns_read=1,
            modeled_ms=0.0,
            wall_seconds=0.01,
            bytes_read=800,
        )
        metrics = ServingMetrics()
        reg = MetricsRegistry()
        metrics.publish(reg, service="t")
        metrics.record(latency_seconds=0.01, stats=stats)
        text = reg.to_prometheus_text()
        assert 'repro_serve_queries_total{service="t"} 1' in text
        assert 'repro_serve_blocks_scanned_total{service="t"} 2' in text
        metrics.record(latency_seconds=0.01, stats=stats)
        assert (
            'repro_serve_queries_total{service="t"} 2'
            in reg.to_prometheus_text()
        )


# ----------------------------------------------------------------------
# The --json document encoder
# ----------------------------------------------------------------------


class TestBench:
    def test_plain_flattens_numpy_and_dataclasses(self):
        flattened = plain(
            {
                "n": np.int64(3),
                "f": np.float64(0.5),
                "stats": CacheStats(1, 2, 0, 3, 4, 5, 6, 7),
                "seq": (np.int64(1), 2),
            }
        )
        assert flattened["n"] == 3
        assert flattened["f"] == 0.5
        assert flattened["stats"]["hits"] == 1
        assert flattened["seq"] == [1, 2]
        json.dumps(flattened)  # everything is serializable
