"""Tests for the unified repro.exec query pipeline.

Three layers of guarantees:

1. **One pipeline, one service** — no module under ``serve/`` or
   ``adapt/`` routes, prunes, consults the result cache or scans an
   engine itself; every surface method is defined on exactly one
   service class (:class:`repro.serve.Service`), the topologies being
   constructors; resources publish and render themselves; each
   counter is declared once (``since``/``merged`` on the ``Stats``
   base only, no metric name in a ``publish`` body) and each duration
   booked once (``ExecContext.mark``) — enforced structurally, by
   reading the sources.
2. **Stage semantics** — per-stage timings, cache-hit short-circuit,
   serial configuration ≡ direct engine execution.
3. **Row-id result caching** — the byte-bounded row-id store: repeats
   are free, budgets hold, generation purges drop payloads.
"""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

from repro.db import Database
from repro.exec import (
    QueryPipeline,
    ResultCache,
    Stage,
    serial_pipeline,
    single_layout_pipeline,
)
from repro.obs import Tracer
from repro.serve import Scheduler, ServingMetrics
from repro.engine import ScanEngine
from repro.core.router import QueryRouter
from repro.sql import SqlPlanner
from repro.storage import Schema, Table, categorical, numeric

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

STATEMENTS = [
    "SELECT x FROM t WHERE x < 20",
    "SELECT x, y FROM t WHERE kind = 'b' AND y < 0.2",
    "SELECT x FROM t WHERE x >= 80 AND kind IN ('a','c')",
]


@pytest.fixture(scope="module")
def db():
    rng = np.random.default_rng(0)
    schema = Schema(
        [
            numeric("x", (0.0, 100.0)),
            numeric("y", (0.0, 1.0)),
            categorical("kind", ["a", "b", "c"]),
        ]
    )
    n = 5000
    table = Table(
        schema,
        {
            "x": rng.uniform(0, 100, n),
            "y": rng.uniform(0, 1, n),
            "kind": rng.integers(0, 3, n),
        },
    )
    database = Database.from_table(table, min_block_size=400)
    database.build_layout("greedy", workload=STATEMENTS)
    return database


# ----------------------------------------------------------------------
# 1. One shared entry point (structural enforcement)
# ----------------------------------------------------------------------


SERVING_MODULES = sorted(
    [*(SRC / "serve").glob("*.py"), *(SRC / "adapt").glob("*.py")]
)
#: The modules that define a service class (the four constructors).
SERVICE_MODULES = [
    SRC / "serve" / "service.py",
    SRC / "serve" / "shard.py",
    SRC / "serve" / "multi.py",
    SRC / "adapt" / "service.py",
]
#: The surface :class:`repro.serve.Service` implements exactly once.
SURFACE = (
    "execute_sql",
    "submit_sql",
    "collect_row_ids",
    "run_closed_loop",
    "run_open_loop",
    "snapshot",
    "publish_metrics",
    "report",
    "close",
    "_cache_stats",
    "__enter__",
    "__exit__",
)


def service_classes():
    """``{class name: set of method names}`` for ``Service`` and
    everything under serve/ + adapt/ that (transitively) extends it."""
    classes = {}
    for path in SERVING_MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
                methods = {
                    f.name for f in node.body if isinstance(f, ast.FunctionDef)
                }
                classes[node.name] = (bases, methods)
    services = {"Service"}
    while True:
        grown = services | {
            name for name, (bases, _) in classes.items() if bases & services
        }
        if grown == services:
            break
        services = grown
    return {name: classes[name][1] for name in services}


def test_four_constructors_one_service():
    assert set(service_classes()) == {
        "Service",
        "LayoutService",
        "ShardedLayoutService",
        "MultiLayoutService",
        "AdaptiveService",
    }


@pytest.mark.parametrize("method", SURFACE)
def test_surface_method_defined_once(method):
    owners = [n for n, methods in service_classes().items() if method in methods]
    assert owners == ["Service"], (
        f"{method} is re-implemented by {owners}: the serving surface "
        f"lives on Service, topologies only construct"
    )


def test_no_shard_scan_entry_points_on_services():
    """A shard is a plain record the scatter stage drives; no service
    exposes a pre-pruned scan to clients."""
    for name, methods in service_classes().items():
        assert not methods & {"scan_pruned", "submit_pruned"}, name


def test_serving_modules_never_execute_themselves():
    """The duplicated plan->route->cache->scan loop the exec refactor
    deleted must not grow back: routing, cache consultation and engine
    scans live only in repro/exec — and the single routing pass (one
    ``PruningTable.match`` over the generation's stacked block
    metadata) lives below it, in repro/core and repro/engine.  That
    matcher is the library's only one: no scalar ``may_match`` (nor its
    ``_may`` recursion, nor a tree's ``route_query`` loop over it) may
    grow back anywhere under repro.  Nor may a second way of turning
    rows into blocks: a table becomes a ``BlockStore`` in
    ``Database.build_layout`` alone."""
    for path in SERVING_MODULES + sorted((SRC / "db").glob("*.py")):
        source = path.read_text()
        for needle in (
            "router.route(",      # qd-tree query walks belong to RouteStage
            ".route(query",       # (ingest's batch routing is fine)
            "result_cache.get(",  # cache gets belong to ResultCacheStage
            "result_cache.put(",  # cache puts belong to ResultCacheStage
            "prune_blocks(",      # the stats-only pass is route_and_count's
            ".execute_pruned(",   # scans belong to Scan/ScatterScanStage
            ".execute(query",     # the engine's route+prune+scan entry point
            "tighten_to_stats(",  # so does building what it scans
        ):
            assert needle not in source, (
                f"{path.name} contains {needle!r} — execution logic "
                f"belongs in repro.exec stages"
            )
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        for needle in ("may_match", "._may(", "route_query"):
            assert needle not in source, (
                f"{path.relative_to(SRC)} contains {needle!r} — sub-spaces "
                f"are matched by PruningTable.match alone"
            )
        if path != SRC / "db" / "database.py":
            for needle in ("BlockStore.from_assignment(", ".freeze("):
                assert needle not in source, (
                    f"{path.relative_to(SRC)} contains {needle!r} — "
                    f"layouts are materialized by Database.build_layout"
                )


def test_adapt_imports_no_stage_class():
    """The control plane reads the routing pass as a function; it
    builds no pipeline stage of its own."""
    import repro.exec

    stages = {
        name
        for name in repro.exec.__all__
        if isinstance(getattr(repro.exec, name), type)
        and issubclass(getattr(repro.exec, name), Stage)
    }
    assert "RouteStage" in stages
    for path in (SRC / "adapt").glob("*.py"):
        imported = {
            alias.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ImportFrom)
            for alias in node.names
        }
        assert not imported & stages, (path.name, imported & stages)


def test_only_the_adapt_loop_records_queries():
    """The record sink is the adaptation loop's: ``record_sink`` and a
    ``RecordStage(...)`` call appear only in the single-layout factory
    (``exec/pipeline.py``) and under ``adapt/``, and the serving tier
    neither declares nor imports the adaptation ledger."""
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC)
        if rel.parts[0] == "adapt" or rel == Path("exec", "pipeline.py"):
            continue
        source = path.read_text()
        assert "record_sink" not in source, rel
        assert not re.search(r"(?<!class )RecordStage\(", source), rel
    for path in sorted((SRC / "serve").glob("*.py")):
        assert "AdaptSnapshot" not in path.read_text(), path.name


def test_every_service_module_runs_the_shared_pipeline():
    for path in SERVICE_MODULES:
        source = path.read_text()
        assert "pipeline" in source and "exec" in source, path.name


def test_resources_publish_and_render_themselves():
    """No service module builds registry samples for counters it does
    not own; each resource's ``publish`` goes through
    ``MetricsRegistry.register_view``."""
    for path in SERVICE_MODULES:
        assert "Sample.of(" not in path.read_text(), path.name


def test_pipeline_has_no_per_stage_switch():
    """Stages describe their own spans (``Stage.span_attrs``); the
    pipeline must not know any stage's outputs by name."""
    source = (SRC / "exec" / "pipeline.py").read_text()
    assert "span_name ==" not in source and "_span_attrs" not in source
    assert "stage.span_attrs(ctx)" in source


def test_one_clock():
    for path in SRC.rglob("*.py"):
        if path != SRC / "obs" / "clock.py":
            assert "time.perf_counter" not in path.read_text(), path


def _methods_named(*names):
    """``(path, class name, FunctionDef)`` for every method under
    src/repro with one of the given names."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for f in node.body:
                    if isinstance(f, ast.FunctionDef) and f.name in names:
                        yield path, node.name, f


def test_since_and_merged_are_derived_not_retyped():
    """A counter is declared once, as a field of a ``Stats``
    dataclass; windows and shard aggregates come from the base."""
    owners = {(cls, f.name) for _, cls, f in _methods_named("since", "merged")}
    assert owners == {("Stats", "since"), ("Stats", "merged")}


def test_publish_names_no_metric():
    """Metric names live on field declarations: every ``publish`` is a
    ``register_view`` over ``rows()`` (or a loop over resources that
    are), so none spells a family name."""
    for path, cls, publish in _methods_named("publish"):
        literals = [
            n.value
            for n in ast.walk(publish)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
        ]
        named = [v for v in literals if "repro_" in v]
        assert not named, f"{path.name}:{cls}.publish spells {named}"


def test_registry_has_one_way_in():
    import repro.obs
    import repro.obs.registry

    for name in ("Counter", "Gauge", "Histogram"):
        assert not hasattr(repro.obs, name)
        assert not hasattr(repro.obs.registry, name)
    for name in ("counter", "gauge", "histogram"):
        assert not hasattr(repro.obs.MetricsRegistry, name)


def test_durations_are_booked_through_mark_only():
    """``ExecContext.mark`` is the single writer of stage timings and
    trace spans, so ``stage_seconds`` and the trace cannot drift."""
    for name in ("pipeline.py", "stages.py"):
        source = (SRC / "exec" / name).read_text()
        assert "add_span(" not in source, name
        assert "timings[" not in source, name
    assert (SRC / "exec" / "context.py").read_text().count("add_span(") == 1


def test_stage_order_is_canonical():
    """The canonical configuration is Plan -> Route -> ResultCache ->
    Scan -> Merge (the sharded and multi-layout variants substitute
    stages but keep the order)."""
    planner = SqlPlanner(
        Schema([numeric("x", (0.0, 1.0))])
    )
    table = Table(planner.schema, {"x": np.linspace(0.0, 1.0, 100)})
    from repro.storage import BlockStore

    store = BlockStore.from_assignment(table, np.repeat(np.arange(4), 25))
    engine = ScanEngine(store)
    pipe = single_layout_pipeline(
        planner=planner, engine=engine, router=None, store=store
    )
    assert [s.name for s in pipe.stages] == [
        "plan", "route", "result_cache", "scan", "merge",
    ]


# ----------------------------------------------------------------------
# 2. Stage semantics
# ----------------------------------------------------------------------


class TestPipelineSemantics:
    def test_serial_pipeline_matches_direct_engine(self, db):
        handle = db.active_layout
        engine = ScanEngine(
            handle.store, num_advanced_cuts=handle.num_advanced_cuts
        )
        router = QueryRouter(handle.tree)
        pipe = serial_pipeline(db.planner, engine, router, handle.store)
        for sql in STATEMENTS:
            query = db.planner.plan(sql).query
            expected = engine.execute(query, router.route(query).block_ids)
            got = pipe.execute(sql)
            assert got.stats.result_key() == expected.result_key()
            assert not got.cached

    def test_stage_timings_recorded(self, db):
        handle = db.active_layout
        pipe = db._pipeline_for(handle)
        result = pipe.execute(STATEMENTS[0])
        for name in ("plan", "route", "result_cache", "scan", "merge"):
            assert name in result.stage_seconds
            assert result.stage_seconds[name] >= 0.0

    def test_cache_hit_short_circuits_scan(self, db):
        cache = ResultCache()
        handle = db.active_layout
        pipe = single_layout_pipeline(
            planner=db.planner,
            engine=handle.engine(),
            router=handle.router(),
            store=handle.store,
            result_cache=cache,
            generation=handle.generation,
        )
        first = pipe.execute(STATEMENTS[0])
        second = pipe.execute(STATEMENTS[0])
        assert not first.cached and second.cached
        assert first.stats.result_key() == second.stats.result_key()
        # The hit skipped the scan: the memoized stats object itself
        # was returned, and cache accounting says exactly one miss.
        assert second.stats is first.stats
        stats = cache.stats()
        assert (stats.hits, stats.misses) == (1, 1)
        assert stats.tuples_avoided == first.stats.tuples_scanned

    def test_raising_stage_closes_what_it_opened(self, db):
        """A stage that raises on one statement: every statement still
        gets one finished trace (the failed one tagged with the
        exception type, on the trace and on the failing stage's span),
        the error is counted apart from the served queries, the
        exception reaches the caller and the future, and the next
        statement is served normally."""

        class Flaky(Stage):
            name = "flaky"

            def run(self, ctx):
                if "x >= 80" in ctx.sql:
                    raise RuntimeError("injected")

        handle = db.active_layout
        stages = single_layout_pipeline(
            planner=db.planner,
            engine=handle.engine(),
            router=handle.router(),
            store=handle.store,
        ).stages
        metrics, tracer = ServingMetrics(), Tracer()
        pipe = QueryPipeline(
            db.planner,
            [*stages[:2], Flaky(), *stages[2:]],
            metrics=metrics,
            tracer=tracer,
        )
        served = [pipe.execute(STATEMENTS[0])]
        with pytest.raises(RuntimeError, match="injected"):
            pipe.execute(STATEMENTS[2])
        with Scheduler(max_workers=1) as scheduler:
            future = scheduler.submit(pipe.execute, STATEMENTS[2])
            assert isinstance(future.exception(timeout=10), RuntimeError)
        served.append(pipe.execute(STATEMENTS[1]))

        traces = tracer.query_traces()
        assert [t.name for t in traces] == [
            STATEMENTS[0], STATEMENTS[2], STATEMENTS[2], STATEMENTS[1],
        ]
        for failed in traces[1:3]:
            assert failed.attrs["error"] == "RuntimeError"
            assert failed.span("flaky").attrs == {"error": "RuntimeError"}
            assert failed.span("scan") is None  # never got that far
        for ok in (traces[0], traces[3]):
            assert "error" not in ok.attrs
            assert ok.span("merge") is not None
        snap = metrics.snapshot()
        assert snap.errors == 2
        assert snap.queries == len(served)
        assert snap.tuples_scanned == sum(r.stats.tuples_scanned for r in served)
        assert snap.rows_returned == sum(r.stats.rows_returned for r in served)

    def test_serial_pipeline_never_memoizes(self, db, count_routes):
        """The serial baseline walks the tree on every arrival — its
        configuration must carry no route memo and no cache."""
        handle = db.active_layout
        engine = ScanEngine(
            handle.store, num_advanced_cuts=handle.num_advanced_cuts
        )
        router = QueryRouter(handle.tree)
        walks = count_routes(router)
        pipe = serial_pipeline(db.planner, engine, router, handle.store)
        for _ in range(3):
            pipe.execute(STATEMENTS[0])
        assert len(walks) == 3  # one walk per arrival
        assert pipe.result_cache is None

    def test_service_pipeline_memoizes_routes(self, db, count_routes):
        with db.serve(max_workers=1, result_cache=False) as svc:
            walks = count_routes(svc.router)
            for _ in range(3):
                for sql in STATEMENTS:
                    svc.execute_sql(sql)
            assert len(walks) == len(STATEMENTS)
            assert len(svc.pipeline.stage("route").memo) == len(STATEMENTS)


# ----------------------------------------------------------------------
# 3. Row-id result caching (byte-bounded)
# ----------------------------------------------------------------------


class TestRowIdCache:
    def make_query(self, db, sql):
        return db.planner.plan(sql).query

    def test_repeats_hit_the_row_id_store(self, db):
        db.result_cache.clear()
        before = db.result_cache.stats()
        first = db.collect_row_ids(STATEMENTS[0])
        again = db.collect_row_ids(STATEMENTS[0])
        np.testing.assert_array_equal(first, again)
        delta = db.result_cache.stats().since(before)
        assert delta.row_id_hits == 1
        assert delta.row_id_misses == 1
        assert delta.row_id_entries == 1
        assert delta.row_id_bytes == first.nbytes
        assert not again.flags.writeable

    def test_byte_budget_bounds_payloads_not_entries(self, db):
        arr = np.arange(100, dtype=np.int64)
        budget = 4 * arr.nbytes
        cache = ResultCache(row_id_byte_budget=budget)
        queries = [self.make_query(db, s) for s in STATEMENTS]
        # Many small arrays: entry count is NOT the bound, bytes are.
        for gen, query in enumerate(queries * 3):
            cache.put_row_ids(query, gen, arr)
        stats = cache.stats()
        assert stats.row_id_bytes <= budget
        assert stats.row_id_entries == budget // arr.nbytes
        assert stats.row_id_evictions > 0

    def test_oversized_array_rejected(self, db):
        cache = ResultCache(row_id_byte_budget=64)
        query = self.make_query(db, STATEMENTS[0])
        big = np.arange(1000, dtype=np.int64)
        assert not cache.put_row_ids(query, 1, big)
        assert cache.stats().row_id_entries == 0

    def test_zero_budget_disables_row_id_store(self, db):
        cache = ResultCache(row_id_byte_budget=0)
        query = self.make_query(db, STATEMENTS[0])
        assert not cache.put_row_ids(query, 1, np.empty(0, dtype=np.int64))
        assert cache.stats().row_id_entries == 0

    def test_zero_byte_arrays_bounded_by_entry_cap(self, db):
        """A flood of empty matches (nbytes=0) must not grow the key
        set without limit: the stats entry cap bounds entries too."""
        cache = ResultCache(cap=8, row_id_byte_budget=1024)
        empty = np.empty(0, dtype=np.int64)
        queries = [self.make_query(db, s) for s in STATEMENTS]
        for gen in range(20):
            for query in queries:
                cache.put_row_ids(query, gen, empty)
        stats = cache.stats()
        assert stats.row_id_entries <= 8
        assert stats.row_id_evictions > 0

    def test_generation_purge_drops_row_ids(self, db):
        cache = ResultCache()
        query = self.make_query(db, STATEMENTS[0])
        cache.put_row_ids(query, 1, np.arange(10, dtype=np.int64))
        cache.put_row_ids(query, 2, np.arange(10, dtype=np.int64))
        assert cache.generations() == (1, 2)
        dropped = cache.retain(2)
        assert dropped == 1
        assert cache.generations() == (2,)
        assert cache.get_row_ids(query, 1) is None
        assert cache.get_row_ids(query, 2) is not None
        assert cache.stats().row_id_bytes == 80

    def test_snapshot_counters_delta(self, db):
        cache = ResultCache()
        query = self.make_query(db, STATEMENTS[0])
        before = cache.stats()
        cache.put_row_ids(query, 1, np.arange(5, dtype=np.int64))
        cache.get_row_ids(query, 1)
        cache.get_row_ids(query, 2)
        delta = cache.stats().since(before)
        assert delta.row_id_hits == 1
        assert delta.row_id_misses == 1
        assert delta.row_id_bytes == 40

    def test_serving_facades_share_row_id_store(self, db):
        db.result_cache.clear()
        with db.serve(max_workers=1) as svc:
            a = svc.collect_row_ids(STATEMENTS[1])
            b = svc.collect_row_ids(STATEMENTS[1])
        np.testing.assert_array_equal(a, b)
        # The library path reuses the entry the service populated.
        c = db.collect_row_ids(STATEMENTS[1])
        np.testing.assert_array_equal(a, c)
        assert db.result_cache.stats().row_id_hits >= 2

    def test_sharded_collect_row_ids_cached_and_identical(self, db):
        db.result_cache.clear()
        with db.serve(shards=2, partition="subtree", max_workers=1) as svc:
            a = svc.collect_row_ids(STATEMENTS[2])
            b = svc.collect_row_ids(STATEMENTS[2])
        np.testing.assert_array_equal(a, b)
        truth = db.collect_row_ids(STATEMENTS[2])
        np.testing.assert_array_equal(a, truth)
        assert db.result_cache.stats().row_id_hits >= 2
