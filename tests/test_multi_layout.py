"""Differential suite for cost-arbitrated multi-layout serving.

The ISSUE 4 acceptance bar:

* ``db.serve_multi`` results are **bit-identical** (``result_key`` +
  row ids) to single-layout execution on the layout the arbiter
  picked;
* a skewed two-template workload shows the arbiter picking different
  winning layouts per template (win counts both > 0);
* total blocks scanned under arbitration ≤ the best single layout's
  total.

The fixture builds two deliberately complementary layouts over one
table: a range partition on ``x`` (tight x min-max per block, random
y) and a range partition on ``y`` — so x-template queries prune far
better on the first and y-template queries on the second.  A greedy
qd-tree layout joins as a third candidate in the routed test so the
arbiter also exercises tree routing.
"""

import numpy as np
import pytest

from repro.db import Database
from repro.sql import SqlPlanner
from repro.storage import Schema, Table, categorical, numeric

X_TEMPLATE = [f"SELECT x FROM t WHERE x >= {lo} AND x < {lo + 6}" for lo in (3, 17, 31, 45, 59, 73, 87)]
Y_TEMPLATE = [f"SELECT y FROM t WHERE y >= {lo:.2f} AND y < {lo + 0.06:.2f}" for lo in (0.03, 0.17, 0.31, 0.45, 0.59, 0.73, 0.87)]
WORKLOAD = [sql for pair in zip(X_TEMPLATE, Y_TEMPLATE) for sql in pair]


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(7)
    schema = Schema(
        [
            numeric("x", (0.0, 100.0)),
            numeric("y", (0.0, 1.0)),
            categorical("kind", ["a", "b", "c"]),
        ]
    )
    n = 8000
    table = Table(
        schema,
        {
            "x": rng.uniform(0, 100, n),
            "y": rng.uniform(0, 1, n),
            "kind": rng.integers(0, 3, n),
        },
    )
    return Database.from_table(table, min_block_size=400)


@pytest.fixture(scope="module")
def layouts(db):
    by_x = db.build_layout("range", column="x", label="by-x")
    by_y = db.build_layout("range", column="y", label="by-y", activate=False)
    return by_x, by_y


def ground_truth_ids(db, sql):
    query = SqlPlanner(db.schema).plan(sql).query
    mask = query.predicate.evaluate(db.table.columns())
    return np.flatnonzero(mask)


def single_layout_blocks(db, handle, statements):
    """Total blocks scanned executing every statement on ONE layout,
    uncached (the per-layout baseline the arbiter must beat or match)."""
    total = 0
    pipe_cacheless = None
    from repro.exec import serial_pipeline
    from repro.engine import ScanEngine
    from repro.core.router import QueryRouter

    engine = ScanEngine(
        handle.store, num_advanced_cuts=handle.num_advanced_cuts
    )
    router = QueryRouter(handle.tree) if handle.tree is not None else None
    pipe_cacheless = serial_pipeline(db.planner, engine, router, handle.store)
    for sql in statements:
        total += pipe_cacheless.execute(sql).stats.blocks_scanned
    return total


class TestMultiLayoutDifferential:
    def test_bit_identical_to_winning_single_layout(self, db, layouts):
        by_x, by_y = layouts
        handles = {"by-x": by_x, "by-y": by_y}
        with db.serve_multi([by_x, by_y], result_cache=False) as multi:
            for sql in WORKLOAD:
                served = multi.execute_sql(sql)
                assert served.winner in handles
                winner = handles[served.winner]
                # Single-layout execution on the winning layout (the
                # library path runs the identical pipeline stages).
                expected = db.execute(sql, layout=winner)
                assert served.stats.result_key() == expected.stats.result_key()
                # Row ids are layout-independent ground truth.
                np.testing.assert_array_equal(
                    multi.collect_row_ids(sql), ground_truth_ids(db, sql)
                )

    def test_skewed_templates_split_across_layouts(self, db, layouts):
        by_x, by_y = layouts
        with db.serve_multi([by_x, by_y], result_cache=False) as multi:
            x_winners = {multi.execute_sql(s).winner for s in X_TEMPLATE}
            y_winners = {multi.execute_sql(s).winner for s in Y_TEMPLATE}
            wins = multi.win_counts
            snapshot_wins = dict(multi.snapshot().layout_wins)
        # Each template is served by the layout partitioned on its
        # column; both layouts genuinely win queries.
        assert x_winners == {"by-x"}
        assert y_winners == {"by-y"}
        assert wins["by-x"] == len(X_TEMPLATE)
        assert wins["by-y"] == len(Y_TEMPLATE)
        assert snapshot_wins == wins
        assert all(count > 0 for count in wins.values())

    def test_total_blocks_scanned_le_best_single_layout(self, db, layouts):
        by_x, by_y = layouts
        with db.serve_multi([by_x, by_y], result_cache=False) as multi:
            arbitrated = sum(
                multi.execute_sql(sql).stats.blocks_scanned for sql in WORKLOAD
            )
        per_layout = {
            handle.label: single_layout_blocks(db, handle, WORKLOAD)
            for handle in (by_x, by_y)
        }
        best_single = min(per_layout.values())
        assert arbitrated <= best_single, (
            f"arbitration scanned {arbitrated} blocks, best single "
            f"layout {per_layout} scanned {best_single}"
        )
        # Non-vacuous: the skewed workload makes arbitration strictly
        # better than either layout alone.
        assert arbitrated < best_single

    def test_arbiter_scores_expose_the_decision(self, db, layouts):
        by_x, by_y = layouts
        with db.serve_multi([by_x, by_y], result_cache=False) as multi:
            scores = dict(multi.arbiter_scores(X_TEMPLATE[0]))
        # (blocks surviving, estimated bytes): the x-partitioned layout
        # survives strictly fewer blocks on an x-range query.
        assert scores["by-x"][0] < scores["by-y"][0]


class TestMultiLayoutService:
    def test_default_serves_every_built_layout(self, db, layouts):
        with db.serve_multi(result_cache=False) as multi:
            assert len(multi.bindings) == len(db.layouts())

    def test_requires_known_handles(self, db, layouts):
        other = Database.from_table(db.table, min_block_size=500)
        foreign = other.build_layout("range", column="x")
        with pytest.raises(ValueError, match="unknown layout handle"):
            db.serve_multi([foreign])

    def test_no_layouts_is_an_error(self, db):
        fresh = Database.from_table(db.table, min_block_size=500)
        with pytest.raises(ValueError, match="no layouts"):
            fresh.serve_multi()

    def test_stale_generations_excluded_after_ingest(self):
        """A pre-ingest layout is missing rows, so arbitrating over it
        would serve wrong (and arbiter-preferred!) results: the
        default candidate set excludes superseded data versions, and
        an explicit stale mix is refused outright."""
        schema = Schema([numeric("x", (0.0, 100.0))])

        def batch(n, seed):
            return Table(
                schema,
                {"x": np.random.default_rng(seed).uniform(0, 100, n)},
            )

        db = Database.from_table(batch(4000, 0), min_block_size=400)
        stale = db.build_layout("range", column="x", label="stale")
        db.build_layout("greedy", workload=["SELECT x FROM t WHERE x < 10"])
        db.ingest(batch(1000, 1))  # new generation; 'stale' lacks rows
        current = db.active_layout
        with db.serve_multi(result_cache=False) as multi:
            assert {b.generation for b in multi.bindings} == {
                current.generation
            }
            served = multi.execute_sql("SELECT x FROM t WHERE x < 10")
        truth = int((db.table.column("x") < 10).sum())
        assert served.stats.rows_returned == truth
        with pytest.raises(ValueError, match="different data versions"):
            db.serve_multi([stale, current])

    def test_tree_layout_participates_in_arbitration(self, db, layouts):
        by_x, by_y = layouts
        greedy = db.build_layout(
            "greedy", workload=WORKLOAD, label="greedy", activate=False
        )
        try:
            with db.serve_multi(
                [by_x, by_y, greedy], result_cache=False
            ) as multi:
                for sql in (X_TEMPLATE[0], Y_TEMPLATE[0]):
                    served = multi.execute_sql(sql)
                    np.testing.assert_array_equal(
                        multi.collect_row_ids(sql), ground_truth_ids(db, sql)
                    )
                    assert served.stats.rows_returned == len(
                        ground_truth_ids(db, sql)
                    )
        finally:
            db.drop_layout(greedy)

    def test_concurrent_submission_matches_serial(self, db, layouts):
        by_x, by_y = layouts
        with db.serve_multi([by_x, by_y], result_cache=False, max_workers=4) as multi:
            replay = multi.run_closed_loop(WORKLOAD, repeat=3)
        assert replay.completed == 3 * len(WORKLOAD)
        truth = {sql: len(ground_truth_ids(db, sql)) for sql in WORKLOAD}
        for result in replay.results:
            assert result.stats.rows_returned == truth[result.sql]

    def test_result_cache_keys_on_winning_generation(self, db, layouts):
        from repro.exec import ResultCache

        by_x, by_y = layouts
        cache = ResultCache()
        with db.serve_multi([by_x, by_y], result_cache=cache) as multi:
            multi.execute_sql(X_TEMPLATE[0])
            multi.execute_sql(Y_TEMPLATE[0])
            repeat = multi.execute_sql(X_TEMPLATE[0])
        assert repeat.cached
        assert sorted(cache.generations()) == sorted(
            {by_x.generation, by_y.generation}
        )

    def test_report_lists_wins(self, db, layouts):
        by_x, by_y = layouts
        with db.serve_multi([by_x, by_y], result_cache=False) as multi:
            multi.execute_sql(X_TEMPLATE[0])
            report = multi.report()
        assert "layout wins" in report
        assert "by-x" in report
        assert "arbiter" in report
