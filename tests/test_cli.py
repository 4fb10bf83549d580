"""Unit tests for the repro CLI."""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.storage import Schema, Table, categorical, numeric, save_table


@pytest.fixture
def table_dir(tmp_path):
    rng = np.random.default_rng(0)
    schema = Schema(
        [
            numeric("x", (0.0, 100.0)),
            numeric("y", (0.0, 1.0)),
            categorical("kind", ["a", "b", "c"]),
        ]
    )
    table = Table(
        schema,
        {
            "x": rng.uniform(0, 100, 5000),
            "y": rng.uniform(0, 1, 5000),
            "kind": rng.integers(0, 3, 5000),
        },
    )
    path = tmp_path / "table"
    save_table(table, path)
    return path


@pytest.fixture
def queries_file(tmp_path):
    path = tmp_path / "wl.sql"
    path.write_text(
        "-- workload\n"
        "SELECT x FROM t WHERE x < 20\n"
        "\n"
        "SELECT x FROM t WHERE kind = 'b' AND y < 0.2\n"
        "SELECT x FROM t WHERE x >= 80 AND kind IN ('a','c')\n"
    )
    return path


@pytest.fixture
def layout_dir(table_dir, queries_file, tmp_path, capsys):
    out = tmp_path / "layout"
    code = main(
        [
            "build",
            "--table", str(table_dir),
            "--queries", str(queries_file),
            "--out", str(out),
            "--min-block-size", "200",
        ]
    )
    assert code == 0
    capsys.readouterr()
    return out


class TestBuild:
    def test_build_writes_artifacts(self, layout_dir):
        assert (layout_dir / "catalog.json").exists()
        assert (layout_dir / "qdtree.json").exists()
        meta = json.loads((layout_dir / "layout-meta.json").read_text())
        assert meta["strategy"] == "greedy"
        assert meta["num_blocks"] >= 2

    def test_build_woodblock(self, table_dir, queries_file, tmp_path, capsys):
        out = tmp_path / "layout-rl"
        code = main(
            [
                "build",
                "--table", str(table_dir),
                "--queries", str(queries_file),
                "--out", str(out),
                "--strategy", "woodblock",
                "--episodes", "4",
                "--hidden-dim", "16",
                "--min-block-size", "200",
            ]
        )
        assert code == 0
        assert "trained 4 episodes" in capsys.readouterr().out

    def test_build_empty_queries_fails(self, table_dir, tmp_path, capsys):
        empty = tmp_path / "empty.sql"
        empty.write_text("-- nothing\n")
        # Helpers raise ValueError (library-friendly); main converts to
        # a nonzero exit code at the top level instead of SystemExit.
        code = main(
            [
                "build",
                "--table", str(table_dir),
                "--queries", str(empty),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == 2
        assert "no queries found" in capsys.readouterr().err


class TestStrategyFlag:
    def test_build_via_registry_strategy(
        self, table_dir, queries_file, tmp_path, capsys
    ):
        out = tmp_path / "layout-kd"
        code = main(
            [
                "build",
                "--table", str(table_dir),
                "--queries", str(queries_file),
                "--out", str(out),
                "--strategy", "kdtree",
                "--min-block-size", "500",
            ]
        )
        assert code == 0
        assert "kdtree, generation 1" in capsys.readouterr().out
        meta = json.loads((out / "layout-meta.json").read_text())
        assert meta["strategy"] == "kdtree"
        assert meta["generation"] == 1
        # Tree-less layouts still inspect and route.
        assert main(["inspect", "--layout", str(out)]) == 0
        assert "kdtree" in capsys.readouterr().out
        code = main(
            [
                "route",
                "--layout", str(out),
                "--sql", "SELECT x FROM t WHERE x < 5",
            ]
        )
        assert code == 0
        assert "returned" in capsys.readouterr().out

    def test_strategy_typo_lists_registered_names(
        self, table_dir, queries_file, tmp_path, capsys
    ):
        # Registry validation (not argparse choices): main() returns
        # exit code 2 and stderr names every registered strategy.
        code = main(
            [
                "build",
                "--table", str(table_dir),
                "--queries", str(queries_file),
                "--out", str(tmp_path / "x"),
                "--strategy", "greedyy",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "unknown layout strategy 'greedyy'" in err
        from repro.db import strategy_names

        for name in strategy_names():
            assert name in err

    def test_late_registered_strategy_accepted(
        self, table_dir, queries_file, tmp_path
    ):
        """A strategy registered AFTER parser construction builds fine
        (the old argparse ``choices`` list would have rejected it)."""
        from repro.db import register_strategy
        from repro.db.registry import _REGISTRY, RandomStrategy

        class LateStrategy(RandomStrategy):
            name = "late-test-strategy"

        register_strategy(LateStrategy())
        try:
            code = main(
                [
                    "build",
                    "--table", str(table_dir),
                    "--queries", str(queries_file),
                    "--out", str(tmp_path / "late"),
                    "--strategy", "late-test-strategy",
                    "--min-block-size", "500",
                ]
            )
            assert code == 0
        finally:
            _REGISTRY.pop("late-test-strategy", None)

    def test_help_lists_registered_strategies(self, capsys):
        with pytest.raises(SystemExit):
            main(["build", "--help"])
        out = capsys.readouterr().out
        from repro.db import strategy_names

        for name in strategy_names():
            assert name in out


class TestInspect:
    def test_inspect_prints_blocks(self, layout_dir, capsys):
        assert main(["inspect", "--layout", str(layout_dir)]) == 0
        out = capsys.readouterr().out
        assert "cut histogram" in out
        assert "block 0" in out


class TestRoute:
    def test_route_prunes_blocks(self, layout_dir, capsys):
        code = main(
            [
                "route",
                "--layout", str(layout_dir),
                "--sql", "SELECT x FROM t WHERE x < 5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "BID IN (" in out
        assert "returned" in out

    def test_route_counts_match_table(self, layout_dir, table_dir, capsys):
        from repro.storage import load_table

        table = load_table(table_dir)
        expected = int((table.column("x") < 5).sum())
        main(
            [
                "route",
                "--layout", str(layout_dir),
                "--sql", "SELECT x FROM t WHERE x < 5",
            ]
        )
        out = capsys.readouterr().out
        assert f"returned {expected} rows" in out


class TestServeBench:
    def test_replays_layout_workload(self, layout_dir, capsys):
        code = main(
            [
                "serve-bench",
                "--layout", str(layout_dir),
                "--threads", "2",
                "--repeat", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "qps" in out
        assert "cache hit rate" in out
        assert "scheduler" in out

    def test_compare_prints_speedup(self, layout_dir, queries_file, capsys):
        code = main(
            [
                "serve-bench",
                "--layout", str(layout_dir),
                "--queries", str(queries_file),
                "--threads", "2",
                "--repeat", "5",
                "--compare",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serial uncached baseline" in out
        assert "serving speedup" in out

    @pytest.mark.parametrize("partition", ["rr", "subtree"])
    def test_sharded_replay_and_compare(self, layout_dir, partition, capsys):
        code = main(
            [
                "serve-bench",
                "--layout", str(layout_dir),
                "--shards", "2",
                "--partition", partition,
                "--threads", "2",
                "--repeat", "3",
                "--compare",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert f"topology           2 shards ({partition})" in out
        assert "shard 0" in out and "shard 1" in out
        assert "1-shard service" in out
        assert "sharded (2 shards) speedup" in out
        assert "serial uncached baseline" in out

    def test_no_cache_and_open_loop(self, layout_dir, capsys):
        code = main(
            [
                "serve-bench",
                "--layout", str(layout_dir),
                "--no-cache",
                "--mode", "open",
                "--target-qps", "500",
                "--repeat", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "cache hit rate" not in out
        assert "rejected" in out

    def test_zero_shards_exit_2(self, layout_dir, capsys):
        code = main(
            ["serve-bench", "--layout", str(layout_dir), "--shards", "0"]
        )
        assert code == 2
        assert "shards must be >= 1" in capsys.readouterr().err


@pytest.fixture
def adaptive_layout_dir(table_dir, queries_file, tmp_path, capsys):
    """A layout saved with its logical table, so reopening it can
    rebuild (the adapt loop's requirement)."""
    out = tmp_path / "layout-adapt"
    code = main(
        [
            "build",
            "--table", str(table_dir),
            "--queries", str(queries_file),
            "--out", str(out),
            "--min-block-size", "200",
            "--include-table",
        ]
    )
    assert code == 0
    capsys.readouterr()
    return out


class TestAdaptCommands:
    def test_build_include_table_persists_table(self, adaptive_layout_dir):
        assert (adaptive_layout_dir / "table" / "table.npz").exists()
        meta = json.loads(
            (adaptive_layout_dir / "layout-meta.json").read_text()
        )
        assert "workload_signature" in meta

    def test_serve_bench_adapt(self, adaptive_layout_dir, capsys):
        code = main(
            [
                "serve-bench",
                "--layout", str(adaptive_layout_dir),
                "--adapt",
                "--repeat", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "drift score" in out
        assert "adaptation" in out

    @pytest.mark.parametrize("shards", ["2", "0"])
    def test_serve_bench_adapt_rejects_shards(
        self, adaptive_layout_dir, capsys, shards
    ):
        code = main(
            [
                "serve-bench",
                "--layout", str(adaptive_layout_dir),
                "--adapt",
                "--shards", shards,
            ]
        )
        assert code == 2
        assert "--adapt" in capsys.readouterr().err

    def test_adapt_report_with_drift(
        self, adaptive_layout_dir, tmp_path, capsys
    ):
        drift = tmp_path / "drift.sql"
        drift.write_text(
            "\n".join(
                f"SELECT y FROM t WHERE y >= {lo:.2f} AND y < {lo + 0.05:.2f}"
                for lo in (0.05, 0.20, 0.35, 0.50, 0.65, 0.80)
            )
        )
        code = main(
            [
                "adapt-report",
                "--layout", str(adaptive_layout_dir),
                "--drift-queries", str(drift),
                "--repeat", "12",
                "--window", "48",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline queries" in out
        assert "drifted queries" in out
        assert "drift score" in out
        assert "adaptation" in out

    def test_adapt_report_without_table_fails_helpfully(
        self, layout_dir, capsys
    ):
        code = main(["adapt-report", "--layout", str(layout_dir)])
        assert code == 2
        assert "logical table" in capsys.readouterr().err


class TestObservabilityFlags:
    def test_json_output_is_one_parseable_document(
        self, layout_dir, capsys
    ):
        code = main(
            [
                "serve-bench",
                "--layout", str(layout_dir),
                "--repeat", "3",
                "--json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)  # stdout is pure JSON
        assert doc["command"] == "serve-bench"
        assert doc["replay"]["completed"] == doc["replay"]["issued"] == 9
        assert doc["metrics"]["queries"] == 9
        # The human report moved to stderr, untouched.
        assert "cache hit rate" in captured.err

    def test_trace_flag_writes_both_exports(
        self, layout_dir, tmp_path, capsys
    ):
        prefix = tmp_path / "run"
        code = main(
            [
                "serve-bench",
                "--layout", str(layout_dir),
                "--shards", "2",
                "--repeat", "2",
                "--trace", str(prefix),
            ]
        )
        assert code == 0
        assert "Perfetto" in capsys.readouterr().out
        jsonl = (tmp_path / "run.jsonl").read_text().splitlines()
        assert len(jsonl) == 6  # one trace per admitted query
        for line in jsonl:
            assert json.loads(line)["kind"] == "query"
        chrome = json.loads((tmp_path / "run.trace.json").read_text())
        assert chrome["traceEvents"]

    def test_metrics_export_prometheus(self, layout_dir, capsys):
        code = main(
            [
                "metrics-export",
                "--layout", str(layout_dir),
                "--repeat", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE repro_serve_queries_total counter" in out
        assert 'repro_serve_queries_total{service="cli"} 6' in out
        assert "repro_scheduler_submitted_total" in out
        assert "repro_cache_hits_total" in out

    def test_metrics_export_json(self, layout_dir, capsys):
        code = main(
            [
                "metrics-export",
                "--layout", str(layout_dir),
                "--repeat", "2",
                "--format", "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        fam = doc["repro_serve_queries_total"]
        assert fam["type"] == "counter"
        assert fam["samples"][0]["value"] == 6

    def test_adapt_report_json_carries_ledger(
        self, adaptive_layout_dir, capsys
    ):
        code = main(
            [
                "adapt-report",
                "--layout", str(adaptive_layout_dir),
                "--repeat", "3",
                "--json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["command"] == "adapt-report"
        assert doc["extra"]["generation"] >= 1
        assert "drift_score" in doc["extra"]
        assert "adapt" not in doc["metrics"]
        ledger = doc["extra"]["adapt"]
        assert ledger["generation"] == doc["extra"]["generation"]
        assert {"swaps", "rebuilds", "rejected", "events"} <= set(ledger)
        assert "adaptation" in captured.err
