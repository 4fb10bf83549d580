"""End-to-end integration tests across all subsystems."""

import pytest

from repro.bench import run_physical
from repro.core import QdTree, QueryRouter
from repro.db import Database
from repro.engine import SPARK_PARQUET, speedup_cdf
from repro.storage import load_store, save_store
from repro.workloads import (
    disjunctive_dataset,
    errorlog_int_dataset,
    tpch_dataset,
)


@pytest.fixture(scope="module")
def tpch():
    return tpch_dataset(num_rows=20_000, seeds_per_template=2, seed=0)


@pytest.fixture(scope="module")
def errlog():
    return errorlog_int_dataset(num_rows=20_000, num_queries=60, seed=0)


def database(dataset):
    return Database.from_table(
        dataset.table, min_block_size=dataset.min_block_size
    )


def access_pct(layout, workload, num_advanced_cuts=0):
    """Table 2's % of (tuple, query) pairs scanned."""
    report = run_physical(layout, workload, num_advanced_cuts=num_advanced_cuts)
    return report.access_percentage(layout.store.logical_rows)


class TestTpchPipeline:
    def test_layout_ordering_matches_paper(self, tpch):
        """Greedy qd-tree < Random in access % (the Table 2 ordering)."""
        registry = tpch.registry()
        nac = registry.num_advanced_cuts
        db = database(tpch)
        random = db.build_layout(
            "random", min_block_size=tpch.min_block_size * 4, activate=False
        )
        greedy = db.build_layout(
            "greedy", workload=tpch.workload, registry=registry
        )
        rnd_pct = access_pct(random, tpch.workload, num_advanced_cuts=nac)
        greedy_pct = access_pct(greedy, tpch.workload, num_advanced_cuts=nac)
        assert greedy_pct < rnd_pct

    def test_greedy_within_factor_of_selectivity(self, tpch):
        """The paper's headline: within ~2-3x of the selectivity bound."""
        greedy = database(tpch).build_layout("greedy", workload=tpch.workload)
        pct = access_pct(
            greedy, tpch.workload,
            num_advanced_cuts=tpch.registry().num_advanced_cuts,
        )
        selectivity_pct = 100 * tpch.workload.selectivity(tpch.table)
        assert pct < 4 * selectivity_pct

    def test_physical_speedup_follows_logical(self, tpch):
        registry = tpch.registry()
        nac = registry.num_advanced_cuts
        db = database(tpch)
        random = db.build_layout(
            "random", min_block_size=tpch.min_block_size * 4, activate=False
        )
        greedy = db.build_layout(
            "greedy", workload=tpch.workload, registry=registry
        )
        rnd = run_physical(
            random, tpch.workload, SPARK_PARQUET, num_advanced_cuts=nac
        )
        grd = run_physical(
            greedy, tpch.workload, SPARK_PARQUET, num_advanced_cuts=nac
        )
        # speedup_over(baseline) = baseline_ms / my_ms > 1 when faster.
        assert grd.speedup_over(rnd) > 1.0
        assert rnd.total_modeled_ms > grd.total_modeled_ms

    def test_persist_and_requery(self, tpch, tmp_path):
        registry = tpch.registry()
        layout = database(tpch).build_layout(
            "greedy", workload=tpch.workload, registry=registry
        )
        save_store(layout.store, tmp_path / "tpch")
        layout.tree.save(str(tmp_path / "tree.json"))
        store = load_store(tmp_path / "tpch")
        tree = QdTree.load(str(tmp_path / "tree.json"), tpch.schema, registry)
        router = QueryRouter(tree)
        from repro.engine import ScanEngine

        engine = ScanEngine(
            store, SPARK_PARQUET,
            num_advanced_cuts=registry.num_advanced_cuts,
        )
        q = tpch.workload[0]
        routed = router.route(q)
        stats = engine.execute(q, routed.block_ids)
        direct = q.predicate.evaluate(tpch.table.columns()).sum()
        assert stats.rows_returned == direct


class TestErrorLogPipeline:
    def test_range_baseline_useless(self, errlog):
        """Queries ignore ingest time: range partitioning skips ~nothing."""
        layout = database(errlog).build_layout(
            "range", column="ingest_date", min_block_size=2000
        )
        pct = access_pct(layout, errlog.workload)
        assert pct > 50.0

    def test_qdtree_aggressive_skipping(self, errlog):
        greedy = database(errlog).build_layout("greedy", workload=errlog.workload)
        pct = access_pct(greedy, errlog.workload)
        assert pct < 20.0

    def test_bu_plus_between_range_and_qdtree(self, errlog):
        registry = errlog.registry()
        block = max(errlog.min_block_size, 64)
        db = database(errlog)
        bu = db.build_layout(
            "bottom_up", workload=errlog.workload, registry=registry,
            min_block_size=block, selectivity_threshold=0.1,
            max_block_size=None, activate=False,
        )
        greedy = db.build_layout(
            "greedy", workload=errlog.workload, registry=registry
        )
        rng_layout = db.build_layout(
            "range", column="ingest_date", min_block_size=2000,
            activate=False,
        )
        bu_pct = access_pct(bu, errlog.workload)
        greedy_pct = access_pct(greedy, errlog.workload)
        rng_pct = access_pct(rng_layout, errlog.workload)
        # The paper's ordering: qd-tree < BU+ < range baseline.
        assert greedy_pct <= bu_pct
        assert bu_pct < rng_pct

    def test_query_results_identical_across_layouts(self, errlog):
        """Layouts change performance, never answers."""
        db = database(errlog)
        greedy = db.build_layout("greedy", workload=errlog.workload)
        random = db.build_layout(
            "random", min_block_size=2000, activate=False
        )
        g = run_physical(greedy, errlog.workload, SPARK_PARQUET)
        r = run_physical(random, errlog.workload, SPARK_PARQUET)
        for gs, rs in zip(g.stats, r.stats):
            assert gs.rows_returned == rs.rows_returned


class TestSqlToLayout:
    def test_sql_workload_end_to_end(self, mixed_table):
        statements = [
            "SELECT age FROM t WHERE age < 25",
            "SELECT age FROM t WHERE city = 'sf' AND salary >= 100000",
            "SELECT age FROM t WHERE level IN ('senior','mid') AND age >= 60",
        ]
        db = Database.from_table(mixed_table, min_block_size=100)
        layout = db.build_layout("greedy", workload=statements)
        router = QueryRouter(layout.tree)
        from repro.engine import ScanEngine

        engine = ScanEngine(layout.store, SPARK_PARQUET)
        for q in db.planner.plan_workload(statements):
            routed = router.route(q)
            stats = engine.execute(q, routed.block_ids)
            expected = int(q.predicate.evaluate(mixed_table.columns()).sum())
            assert stats.rows_returned == expected


class TestRlIntegration:
    def test_rl_beats_greedy_on_disjunctive(self):
        ds = disjunctive_dataset(num_rows=10_000, seed=0)
        registry = ds.registry()
        greedy = database(ds).build_layout(
            "greedy", workload=ds.workload, registry=registry
        )
        rl = database(ds).build_layout(
            "woodblock", workload=ds.workload, registry=registry,
            episodes=40, hidden_dim=32, seed=3,
        )
        g_pct = access_pct(greedy, ds.workload)
        rl_pct = access_pct(rl, ds.workload)
        assert rl_pct < g_pct

    def test_speedup_cdf_favors_rl(self):
        ds = disjunctive_dataset(num_rows=10_000, seed=0)
        registry = ds.registry()
        greedy = database(ds).build_layout(
            "greedy", workload=ds.workload, registry=registry
        )
        rl = database(ds).build_layout(
            "woodblock", workload=ds.workload, registry=registry,
            episodes=40, hidden_dim=32, seed=3,
        )
        g = run_physical(greedy, ds.workload, SPARK_PARQUET)
        r = run_physical(rl, ds.workload, SPARK_PARQUET)
        xs, ys = speedup_cdf(g, r)
        assert xs.max() >= 1.0
