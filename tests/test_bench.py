"""Unit tests for repro.bench (harness + reporting)."""

import numpy as np
import pytest

from repro.bench import (
    format_cdf,
    format_series,
    format_table,
    run_physical,
)
from repro.db import Database, registry
from repro.engine import COMMERCIAL_DBMS, SPARK_PARQUET
from repro.workloads import disjunctive_dataset


@pytest.fixture(scope="module")
def dataset():
    return disjunctive_dataset(num_rows=10_000, seed=0)


def database(dataset):
    return Database.from_table(
        dataset.table, min_block_size=dataset.min_block_size
    )


@pytest.fixture(scope="module")
def greedy(dataset):
    return database(dataset).build_layout("greedy", workload=dataset.workload)


class CaptureContext:
    """A strategy that records the :class:`BuildContext` it is handed
    and puts every row in one block."""

    name = "capture-context"

    def build(self, ctx):
        self.ctx = ctx
        return registry.BuiltLayout(assignment=np.zeros(ctx.table.num_rows, dtype=np.int64))


def construction_context(monkeypatch, dataset, **build_options):
    strategy = CaptureContext()
    monkeypatch.setitem(registry._REGISTRY, strategy.name, strategy)
    database(dataset).build_layout(strategy.name, **build_options)
    return strategy.ctx


class TestHarness:
    def test_sample_for_construction_full(self, monkeypatch, dataset):
        ctx = construction_context(monkeypatch, dataset)
        assert ctx.sample is ctx.table
        assert ctx.sample_block_size == dataset.min_block_size

    def test_sample_for_construction_ratio(self, monkeypatch, dataset):
        ctx = construction_context(monkeypatch, dataset, sample_ratio=0.1)
        assert ctx.sample.num_rows == dataset.table.num_rows // 10
        assert ctx.sample_block_size == max(
            1, round(dataset.min_block_size * 0.1)
        )
        assert ctx.min_block_size == dataset.min_block_size

    def test_greedy_layout(self, dataset, greedy):
        assert greedy.tree is not None
        assert greedy.num_blocks >= 2
        assert greedy.build_seconds > 0
        assert greedy.store.logical_rows == dataset.table.num_rows

    def test_rl_layout(self, dataset):
        layout = database(dataset).build_layout(
            "woodblock", workload=dataset.workload, episodes=5, hidden_dim=16
        )
        assert layout.diagnostics is not None
        assert layout.diagnostics.episodes_run == 5

    def test_baseline_layout(self, dataset):
        layout = database(dataset).build_layout(
            "random", min_block_size=1000, activate=False
        )
        assert layout.tree is None
        assert layout.label == "random"

    def test_logical_access_pct_qdtree_beats_random(self, dataset, greedy):
        random = database(dataset).build_layout(
            "random", min_block_size=1000, activate=False
        )
        rows = dataset.table.num_rows
        assert run_physical(greedy, dataset.workload).access_percentage(
            rows
        ) < run_physical(random, dataset.workload).access_percentage(rows)

    def test_run_physical_routing_vs_no_route(self, dataset, greedy):
        routed = run_physical(greedy, dataset.workload, SPARK_PARQUET)
        no_route = run_physical(
            greedy, dataset.workload, SPARK_PARQUET, use_routing=False
        )
        assert routed.total_tuples_scanned <= no_route.total_tuples_scanned
        assert "no route" in no_route.label

    def test_run_physical_profiles_differ(self, dataset, greedy):
        parquet = run_physical(greedy, dataset.workload, SPARK_PARQUET)
        dbms = run_physical(greedy, dataset.workload, COMMERCIAL_DBMS)
        assert parquet.total_modeled_ms != dbms.total_modeled_ms


class TestReport:
    def test_format_table_alignment(self):
        out = format_table(
            ["name", "value"], [["a", 1], ["long-name", 123.456]], title="T"
        )
        lines = out.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_cdf(self):
        xs = np.linspace(0, 1, 100)
        ys = np.arange(1, 101) / 100
        out = format_cdf(xs, ys, label="latency")
        assert "p 50" in out and "p100" in out

    def test_format_cdf_empty(self):
        out = format_cdf(np.empty(0), np.empty(0))
        assert "empty" in out

    def test_format_series_subsamples(self):
        points = [(float(i), float(i * i)) for i in range(1000)]
        out = format_series(points, max_points=10)
        assert len(out.splitlines()) <= 13
        assert "999" in out  # last point always present

    def test_format_series_empty(self):
        assert "empty" in format_series([])
