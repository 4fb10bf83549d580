"""Unit tests for the repro.db Database facade.

Covers the strategy registry, layout generations, persistence
round-trips, ingest/swap semantics and the library execution path.
The differential guarantees (strategy parity with legacy entry
points, result-cache bit-identity and staleness) live in
``tests/test_db_differential.py``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.db import (
    BuildContext,
    BuiltLayout,
    Database,
    LayoutStrategy,
    UnknownStrategyError,
    get_strategy,
    register_strategy,
    strategy_names,
)
from repro.db.registry import _REGISTRY
from repro.storage import Schema, Table, categorical, numeric

STATEMENTS = [
    "SELECT x FROM t WHERE x < 20",
    "SELECT x FROM t WHERE kind = 'b' AND y < 0.2",
    "SELECT x FROM t WHERE x >= 80 AND kind IN ('a','c')",
]


@pytest.fixture
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


@pytest.fixture
def table(schema):
    return make_table(schema, 5000)


@pytest.fixture
def db(table):
    return Database.from_table(table, min_block_size=200)


class TestRegistry:
    def test_builtin_strategies_registered(self):
        names = strategy_names()
        for expected in (
            "greedy",
            "woodblock",
            "kdtree",
            "hash",
            "range",
            "random",
            "bottom_up",
        ):
            assert expected in names

    def test_unknown_strategy_lists_names(self):
        with pytest.raises(UnknownStrategyError) as excinfo:
            get_strategy("nope")
        message = str(excinfo.value)
        for name in strategy_names():
            assert name in message

    def test_unknown_strategy_is_value_error(self):
        with pytest.raises(ValueError):
            get_strategy("nope")

    def test_register_custom_strategy(self, db):
        class EveryOther(LayoutStrategy):
            name = "every-other"

            def build(self, ctx: BuildContext) -> BuiltLayout:
                bids = np.arange(ctx.table.num_rows) % 2
                return BuiltLayout(assignment=bids)

        register_strategy(EveryOther())
        try:
            handle = db.build_layout("every-other")
            assert handle.num_blocks == 2
            assert handle.strategy == "every-other"
        finally:
            del _REGISTRY["every-other"]

    def test_duplicate_registration_rejected(self):
        class Dup(LayoutStrategy):
            name = "greedy"

            def build(self, ctx):
                raise AssertionError

        with pytest.raises(ValueError):
            register_strategy(Dup())

    def test_unknown_options_rejected(self, db):
        with pytest.raises(ValueError, match="unknown options"):
            db.build_layout("kdtree", colums=["x"])

    def test_workload_required_strategies(self, db):
        with pytest.raises(ValueError, match="workload-driven"):
            db.build_layout("greedy")


class TestGenerations:
    def test_generations_monotonic(self, db):
        g1 = db.build_layout("greedy", workload=STATEMENTS)
        g2 = db.build_layout("kdtree", activate=False)
        g3 = db.build_layout("random")
        assert (g1.generation, g2.generation, g3.generation) == (1, 2, 3)
        assert db.layouts() == (g1, g2, g3)

    def test_activation(self, db):
        g1 = db.build_layout("greedy", workload=STATEMENTS)
        assert db.active_layout is g1 and db.generation == 1
        g2 = db.build_layout("kdtree", activate=False)
        assert db.active_layout is g1
        db.swap_layout(g2)
        assert db.active_layout is g2 and db.generation == 2

    def test_swap_unknown_handle_rejected(self, db, table):
        other = Database.from_table(table, min_block_size=500)
        foreign = other.build_layout("random")
        with pytest.raises(ValueError, match="unknown layout handle"):
            db.swap_layout(foreign)

    def test_ingest_bumps_generation_and_merges(self, db, schema):
        g1 = db.build_layout("greedy", workload=STATEMENTS)
        batch = make_table(schema, 1500, seed=7)
        g2 = db.ingest(batch)
        assert g2.generation == g1.generation + 1
        assert db.active_layout is g2
        assert g2.store.logical_rows == g1.store.logical_rows + 1500
        # The old generation's store is untouched (immutability).
        assert g1.store.logical_rows == 5000
        # Row counts reflect the merged data.
        expected = int((db.table.column("x") < 20).sum())
        assert db.execute(STATEMENTS[0]).stats.rows_returned == expected

    def test_ingest_preserves_row_id_provenance(self, db, schema):
        db.build_layout("greedy", workload=STATEMENTS)
        before = db.collect_row_ids(STATEMENTS[0])
        batch = make_table(schema, 1000, seed=11)
        db.ingest(batch)
        after = db.collect_row_ids(STATEMENTS[0])
        mask = db.table.column("x") < 20
        np.testing.assert_array_equal(after, np.flatnonzero(mask))
        # Old rows keep their original ids.
        assert set(before) <= set(after)

    def test_ingest_widens_frozen_leaf_descriptions(self, schema):
        """Cuts route an ingested row to its leaf, but the leaf was
        frozen to its build-time min-max / distinct values: a batch
        outside those must not be pruned away by query routing."""
        rng = np.random.default_rng(5)
        narrow = Table(
            schema,
            {
                "x": rng.uniform(0, 100, 4000),
                "y": rng.uniform(0.3, 0.6, 4000),
                "kind": rng.integers(0, 2, 4000),
            },
        )
        db = Database.from_table(narrow, min_block_size=200)
        before = db.build_layout("greedy", workload=STATEMENTS)
        db.ingest(make_table(schema, 1500, seed=9))  # y in [0, 1], kind 'c'
        out_of_range = [
            "SELECT x FROM t WHERE y < 0.1",
            "SELECT x FROM t WHERE y >= 0.9 AND x < 50",
            "SELECT x FROM t WHERE kind = 'c'",
        ]
        for sql in out_of_range + STATEMENTS:
            predicate = db.planner.plan(sql).query.predicate
            truth = np.flatnonzero(predicate.evaluate(db.table.columns()))
            assert len(truth) > 0
            assert db.execute(sql).stats.rows_returned == len(truth), sql
            np.testing.assert_array_equal(db.collect_row_ids(sql), truth)
        # The pre-ingest generation shares the tree and still answers
        # from its own store.
        for sql in out_of_range:
            assert db.execute(sql, layout=before).stats.rows_returned == 0

    def test_ingest_never_touches_older_generations(self, schema):
        """The tree is shared by every generation that ingests through
        it, and only read: a generation prunes on a table derived from
        its own blocks, so a later out-of-range ingest cannot move an
        older generation's candidate counts — and the new generation
        still finds every ingested row."""
        rng = np.random.default_rng(5)
        narrow = Table(
            schema,
            {
                "x": rng.uniform(0, 100, 4000),
                "y": rng.uniform(0.3, 0.6, 4000),
                "kind": rng.integers(0, 2, 4000),
            },
        )
        db = Database.from_table(narrow, min_block_size=200)
        before = db.build_layout("greedy", workload=STATEMENTS)
        probes = [
            "SELECT x FROM t WHERE y < 0.1",
            "SELECT x FROM t WHERE y >= 0.2 AND y < 0.35",
            "SELECT x FROM t WHERE y >= 0.9 AND x < 50",
            "SELECT x FROM t WHERE x >= 10 AND x < 30 AND y < 0.5",
            "SELECT x FROM t WHERE kind = 'c'",
        ]

        def keys(layout):
            # a fresh service: nothing memoized before the ingest
            with db.serve(layout, max_workers=1, result_cache=False) as svc:
                return [svc.execute_sql(sql).stats.result_key() for sql in probes]

        tree_before = [leaf.description for leaf in before.tree.leaves()]
        old_keys = keys(before)
        assert old_keys == [
            db.execute(sql, layout=before).stats.result_key() for sql in probes
        ]
        after = db.ingest(make_table(schema, 1500, seed=9))  # y in [0, 1], 'c'
        assert after.tree is before.tree
        assert [leaf.description for leaf in before.tree.leaves()] == tree_before
        assert keys(before) == old_keys
        assert old_keys == [
            db.execute(sql, layout=before).stats.result_key() for sql in probes
        ]
        for sql in probes:
            predicate = db.planner.plan(sql).query.predicate
            truth = np.flatnonzero(predicate.evaluate(db.table.columns()))
            assert len(truth) > 0
            np.testing.assert_array_equal(db.collect_row_ids(sql), truth)

    def test_ingest_requires_tree(self, db):
        db.build_layout("random")
        with pytest.raises(ValueError, match="tree-backed"):
            db.ingest(make_table(db.schema, 100, seed=3))

    def test_execute_before_build_rejected(self, db):
        with pytest.raises(ValueError, match="no layout yet"):
            db.execute(STATEMENTS[0])


class TestPersistence:
    def test_roundtrip_generation_strategy_tree(self, db, tmp_path):
        db.build_layout("greedy", workload=STATEMENTS)
        db.build_layout("greedy", workload=STATEMENTS)  # generation 2
        db.save(tmp_path / "layout")
        reopened = Database.open(tmp_path / "layout")
        handle = reopened.active_layout
        assert handle is not None
        assert handle.generation == 2
        assert handle.strategy == "greedy"
        assert handle.tree is not None
        assert handle.statements == tuple(STATEMENTS)
        # The tree survives: same leaf descriptions, same routing.
        original = db.active_layout
        assert (
            handle.tree.leaf_descriptions()
            == original.tree.leaf_descriptions()
        )
        for sql in STATEMENTS:
            a = db.execute(sql).stats.result_key()
            b = reopened.execute(sql).stats.result_key()
            assert a == b

    def test_reopened_tree_is_refrozen(self, tmp_path, schema):
        """The tree file persists cuts only: the reopened generation's
        pruning table must be as tight as its blocks' min-max stats
        (it is built from them), or the reopened
        layout routes to more candidate blocks than the saved one and
        ``result_key()`` (which carries ``blocks_considered``) no
        longer survives a save/open round-trip."""
        # y tracks x, so a leaf cut on x alone holds a narrow y range
        # only tightening knows about.
        rng = np.random.default_rng(4)
        x = rng.uniform(0, 100, 5000)
        correlated = Table(
            schema,
            {
                "x": x,
                "y": np.clip(x / 100 + rng.normal(0, 0.02, 5000), 0, 1),
                "kind": rng.integers(0, 3, 5000),
            },
        )
        db = Database.from_table(correlated, min_block_size=200)
        db.build_layout("greedy", workload=STATEMENTS)
        db.ingest(correlated.take(np.arange(300)))  # widened leaves too
        probes = [
            f"SELECT x FROM t WHERE y >= {lo:.2f} AND y < {lo + 0.05:.2f}"
            for lo in (0.0, 0.3, 0.5, 0.6, 0.9)
        ]
        before = [db.execute(sql).stats.result_key() for sql in probes]
        db.save(tmp_path / "layout")
        reopened = Database.open(tmp_path / "layout")
        after = [reopened.execute(sql).stats.result_key() for sql in probes]
        assert after == before

    @pytest.mark.parametrize(
        "torn", ["catalog.json", "qdtree.json", "layout-meta.json"]
    )
    def test_crash_mid_resave_leaves_no_torn_artifact(
        self, db, tmp_path, monkeypatch, torn
    ):
        """Re-saving into an existing layout directory with the JSON
        dump dying half-way through one artifact: every artifact is
        still a complete file (written to a temp name, renamed into
        place) and the directory still opens."""
        artifacts = ("catalog.json", "qdtree.json", "layout-meta.json")
        db.build_layout("greedy", workload=STATEMENTS)
        target = tmp_path / "layout"
        db.save(target)
        before = {name: (target / name).read_bytes() for name in artifacts}
        real_dump, dumps = json.dump, []

        def dying_dump(document, f, **kwargs):
            dumps.append(f.name)
            if len(dumps) == artifacts.index(torn) + 1:
                text = json.dumps(document, **kwargs)
                f.write(text[: len(text) // 2])
                f.flush()
                raise OSError("disk full")
            real_dump(document, f, **kwargs)

        monkeypatch.setattr(json, "dump", dying_dump)
        with pytest.raises(OSError, match="disk full"):
            db.save(target)
        monkeypatch.undo()
        assert Path(dumps[-1]).name.startswith(torn)  # the one we meant
        assert {
            name: (target / name).read_bytes() for name in artifacts
        } == before
        assert sorted(p.name for p in target.iterdir() if p.suffix != ".npz") == (
            sorted(artifacts)
        )
        reopened = Database.open(target)
        assert reopened.generation == db.generation
        assert reopened.execute(STATEMENTS[0]).stats.result_key() == (
            db.execute(STATEMENTS[0]).stats.result_key()
        )

    @pytest.mark.parametrize("torn", ["block", "table"])
    def test_crash_mid_resave_leaves_no_torn_npz(
        self, db, tmp_path, monkeypatch, torn
    ):
        """The same for the ``.npz`` artifacts: ``savez_compressed``
        dying half-way through a block (or the table) leaves every file
        of the previous save byte-identical, no temp file behind, and
        the directory opening and answering exactly as before."""
        db.build_layout("greedy", workload=STATEMENTS)
        target = tmp_path / "layout"
        db.save(target, include_table=True)
        files = sorted(p for p in target.rglob("*") if p.is_file())
        before = {p: p.read_bytes() for p in files}
        expected = [db.execute(sql).stats.result_key() for sql in STATEMENTS]
        real_savez, written = np.savez_compressed, []

        def dying_savez(f, **columns):
            assert not isinstance(f, (str, Path))  # numpy would add ".npz"
            written.append(Path(f.name).name)
            dies = (
                len(written) == 3 if torn == "block"
                else written[-1].startswith("table.npz")
            )
            if dies:
                f.write(b"PK\x03\x04 half a zip member")
                f.flush()
                raise OSError("disk full")
            real_savez(f, **columns)

        monkeypatch.setattr(np, "savez_compressed", dying_savez)
        with pytest.raises(OSError, match="disk full"):
            db.save(target, include_table=True)
        monkeypatch.undo()
        assert written[-1].endswith(".npz.tmp")
        assert (torn == "table") == written[-1].startswith("table.npz")
        assert sorted(p for p in target.rglob("*") if p.is_file()) == files
        assert {p: p.read_bytes() for p in files} == before
        reopened = Database.open(target)
        assert reopened.generation == db.generation
        assert [
            reopened.execute(sql).stats.result_key() for sql in STATEMENTS
        ] == expected

    def test_roundtrip_treeless_strategy(self, db, tmp_path):
        db.build_layout("kdtree")
        db.save(tmp_path / "layout")
        reopened = Database.open(tmp_path / "layout")
        handle = reopened.active_layout
        assert handle.strategy == "kdtree"
        assert handle.tree is None
        assert handle.num_blocks == db.active_layout.num_blocks

    def test_next_generation_continues_after_open(self, db, tmp_path, schema):
        db.build_layout("greedy", workload=STATEMENTS)
        db.ingest(make_table(schema, 500, seed=5))  # generation 2
        db.save(tmp_path / "layout", include_table=True)
        reopened = Database.open(tmp_path / "layout")
        assert reopened.generation == 2
        g3 = reopened.build_layout("range", column="x")
        assert g3.generation == 3

    def test_include_table_roundtrip(self, db, tmp_path):
        db.build_layout("greedy", workload=STATEMENTS)
        db.save(tmp_path / "layout", include_table=True)
        reopened = Database.open(tmp_path / "layout")
        assert reopened.table is not None
        np.testing.assert_array_equal(
            reopened.table.column("x"), db.table.column("x")
        )

    def test_open_without_table_cannot_build(self, db, tmp_path):
        db.build_layout("greedy", workload=STATEMENTS)
        db.save(tmp_path / "layout")
        reopened = Database.open(tmp_path / "layout")
        assert reopened.table is None
        with pytest.raises(ValueError, match="no logical table"):
            reopened.build_layout("kdtree")

    def test_tree_layout_from_workload_object_refuses_save(
        self, db, tmp_path
    ):
        from repro.sql.planner import SqlPlanner

        workload = SqlPlanner(db.schema).plan_workload(STATEMENTS)
        db.build_layout("greedy", workload=workload)
        with pytest.raises(ValueError, match="cannot persist"):
            db.save(tmp_path / "layout")


class TestServe:
    def test_serve_shares_result_cache(self, db):
        db.build_layout("greedy", workload=STATEMENTS)
        with db.serve(max_workers=2) as service:
            service.run_closed_loop(STATEMENTS, repeat=3)
        stats = db.result_cache.stats()
        assert stats.entries == len(STATEMENTS)
        # Racing workers may duplicate a miss per statement, but every
        # lookup either hits or misses, and at most the first wave of
        # in-flight duplicates (bounded by the pool) can miss.
        assert stats.hits + stats.misses == 3 * len(STATEMENTS)
        assert stats.hits >= len(STATEMENTS)
        # The library path hits entries the service populated.
        before = db.result_cache.stats().hits
        db.execute(STATEMENTS[0])
        assert db.result_cache.stats().hits == before + 1

    def test_serve_sharded(self, db):
        db.build_layout("greedy", workload=STATEMENTS)
        with db.serve(shards=2, partition="subtree", max_workers=1) as service:
            replay = service.run_closed_loop(STATEMENTS, repeat=2)
        assert replay.completed == 2 * len(STATEMENTS)

    def test_serve_private_result_cache(self, db):
        from repro.exec import ResultCache

        db.build_layout("greedy", workload=STATEMENTS)
        private = ResultCache()
        with db.serve(max_workers=2, result_cache=private) as service:
            service.run_closed_loop(STATEMENTS, repeat=2)
        assert len(private) == len(STATEMENTS)
        assert len(db.result_cache) == 0

    def test_serve_without_result_cache(self, db):
        db.build_layout("greedy", workload=STATEMENTS)
        with db.serve(max_workers=2, result_cache=False) as service:
            service.run_closed_loop(STATEMENTS, repeat=2)
            assert "result cache" not in service.report()
        assert len(db.result_cache) == 0

    def test_serve_rejects_unknown_options_unsharded(self, db):
        db.build_layout("greedy", workload=STATEMENTS)
        with pytest.raises(TypeError, match="coordinator_workers"):
            db.serve(max_workers=2, coordinator_workers=8)

    @pytest.mark.parametrize("shards", [0, -2])
    def test_serve_rejects_shard_counts_below_one(self, db, shards):
        db.build_layout("greedy", workload=STATEMENTS)
        with pytest.raises(ValueError, match="shards"):
            db.serve(shards=shards)

    def test_serve_rejects_non_lru_admission(self, db):
        db.build_layout("greedy", workload=STATEMENTS)
        with db.serve(max_workers=1, admission="lru") as service:
            assert service.execute_sql(STATEMENTS[0]).stats.rows_returned >= 0
        for policy in ("lfu", "arc"):
            with pytest.raises(ValueError, match="admission"):
                db.serve(admission=policy)

    def test_result_cache_keyed_by_profile(self, db):
        from repro.engine.profiles import SPARK_PARQUET, CostProfile

        db.build_layout("greedy", workload=STATEMENTS)
        row_store = CostProfile(
            name="row-store",
            block_open_ms=SPARK_PARQUET.block_open_ms,
            tuple_column_scan_ns=SPARK_PARQUET.tuple_column_scan_ns,
            columnar=False,
            block_dictionaries=SPARK_PARQUET.block_dictionaries,
        )
        with db.serve(max_workers=1) as columnar:
            a = columnar.execute_sql(STATEMENTS[0]).stats
        with db.serve(max_workers=1, profile=row_store) as rows:
            b = rows.execute_sql(STATEMENTS[0]).stats
        # A non-columnar profile reads every schema column; a hit on
        # the columnar entry would have returned columns_read=1.
        assert a.columns_read == 1
        assert b.columns_read == len(db.schema.column_names)

    def test_cached_hits_do_not_inflate_scan_metrics(self, db):
        db.build_layout("greedy", workload=STATEMENTS)
        with db.serve(max_workers=1) as service:
            replay = service.run_closed_loop(STATEMENTS, repeat=10)
        once = sum(
            r.stats.tuples_scanned
            for r in replay.results[: len(STATEMENTS)]
        )
        # Scan-work counters reflect the single real execution per
        # statement, not 10x; queries/rows count all served results.
        assert replay.snapshot.tuples_scanned == once
        assert replay.snapshot.queries == 10 * len(STATEMENTS)
        assert replay.snapshot.rows_returned == sum(
            r.stats.rows_returned for r in replay.results
        )

    def test_drop_layout(self, db):
        g1 = db.build_layout("greedy", workload=STATEMENTS)
        g2 = db.build_layout("kdtree")
        with pytest.raises(ValueError, match="cannot drop the active"):
            db.drop_layout(g2)
        db.drop_layout(g1)
        assert db.layouts() == (g2,)
        with pytest.raises(ValueError, match="unknown layout handle"):
            db.drop_layout(g1)
