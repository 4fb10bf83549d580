"""The unified database facade: tables, layouts-as-versioned-artifacts
and serving behind one coherent API.

:class:`Database` owns the whole lifecycle the rest of the codebase
used to stitch by hand::

    db = Database.from_table(table, min_block_size=1000)
    handle = db.build_layout("greedy", workload=statements)   # gen 1
    other  = db.build_layout("kdtree", activate=False)        # gen 2
    result = db.execute("SELECT * FROM t WHERE x < 10")       # cached
    with db.serve(shards=4, partition="subtree") as service:
        service.run_closed_loop(statements, repeat=20)
    with db.serve_multi([handle, other]) as multi:            # arbiter
        multi.execute_sql("SELECT * FROM t WHERE x < 10").winner
    db.ingest(batch)          # routes through the learned tree, gen 3
    db.swap_layout(other)     # activate the k-d tree layout
    db.save(path); db2 = Database.open(path)

Three ideas hold it together:

* **Strategies** — layouts are built through the string-keyed
  :mod:`~repro.db.registry` (``greedy``, ``woodblock``, ``kdtree``,
  ``hash``, ``range``, ``random``, ``bottom_up``, plus anything
  registered at runtime), so every builder shares one entry point.
* **Generations** — every built (or re-ingested) layout is stamped
  with a monotonically increasing generation number, persisted through
  the catalog.  A generation names an *immutable* (store, tree) pair.
* **Result cache** — a generation-keyed
  :class:`~repro.exec.ResultCache` is shared by the
  library execution path (:meth:`execute`) and every serving facade
  :meth:`serve` hands out.  Because entries are keyed by generation
  and the active generation changes on :meth:`ingest` /
  :meth:`swap_layout` (which also purge other generations' entries),
  a stale result can never be served.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.ingest import IngestionPipeline
from ..core.router import QueryRouter
from ..core.tree import QdTree
from ..core.workload import Workload
from ..core.cuts import CutRegistry
from ..engine.executor import ScanEngine
from ..engine.profiles import SPARK_PARQUET, CostProfile
from ..exec import QueryPipeline, ResultCache, ServeResult, single_layout_pipeline
from ..obs.clock import now
from ..serve import (
    DEFAULT_CACHE_BUDGET,
    LayoutService,
    MultiLayoutService,
    ShardedLayoutService,
)
from ..sql.planner import SqlPlanner
from ..storage.blocks import BlockStore, build_blocks
from ..adapt.reoptimize import AdaptPolicy
from ..adapt.service import AdaptiveService
from ..adapt.signature import WorkloadSignature
from ..storage.catalog import (
    SIGNATURE_KEY,
    layout_tree_path,
    load_layout_meta,
    load_store,
    load_table,
    save_layout_meta,
    save_store,
    save_table,
)
from ..storage.table import Table, group_rows
from .registry import BuildContext, get_strategy

__all__ = ["Database", "LayoutHandle"]

#: Subdirectory ``save(include_table=True)`` keeps the logical table in
#: (the layout artifacts live flat in the directory, CLI-compatible).
_TABLE_DIR = "table"


@dataclass(eq=False)
class LayoutHandle:
    """One built layout: a versioned, immutable (store, tree) artifact.

    Handles are what :meth:`Database.build_layout` returns and what
    :meth:`Database.serve` / :meth:`Database.swap_layout` accept; the
    ``generation`` stamp is the identity the result cache keys on.
    """

    generation: int
    strategy: str
    store: BlockStore
    tree: Optional[QdTree]
    build_seconds: float = 0.0
    num_advanced_cuts: int = 0
    #: The SQL statements the build workload was planned from (empty
    #: when the layout was built from a pre-planned Workload object or
    #: is workload-oblivious); required to persist a tree layout.
    statements: Tuple[str, ...] = ()
    diagnostics: Optional[object] = None
    label: str = ""
    #: Normalized template/filter-column histogram of the build
    #: workload (``None`` for workload-oblivious layouts) — the drift
    #: detector's baseline, persisted through the catalog.
    workload_signature: Optional[WorkloadSignature] = None
    # Lazily-built library-path execution helpers (one engine/router/
    # pipeline per handle; serving facades build their own).
    _engine: Optional[ScanEngine] = field(
        default=None, repr=False, compare=False
    )
    _router: Optional[QueryRouter] = field(
        default=None, repr=False, compare=False
    )
    _pipeline: Optional[QueryPipeline] = field(
        default=None, repr=False, compare=False
    )

    @property
    def num_blocks(self) -> int:
        return self.store.num_blocks

    def engine(self, profile: CostProfile = SPARK_PARQUET) -> ScanEngine:
        """This handle's (uncached-read) scan engine, built on demand."""
        if self._engine is None or self._engine.profile is not profile:
            self._engine = ScanEngine(
                self.store, profile, num_advanced_cuts=self.num_advanced_cuts
            )
        return self._engine

    def router(self) -> Optional[QueryRouter]:
        """This handle's query router, over this generation's own
        pruning table (``None`` for tree-less layouts)."""
        if self.tree is not None and self._router is None:
            self._router = QueryRouter(self.tree, self.store)
        return self._router

    def __repr__(self) -> str:
        return (
            f"LayoutHandle(gen={self.generation}, "
            f"strategy={self.strategy!r}, blocks={self.num_blocks}, "
            f"rows={self.store.logical_rows})"
        )


class Database:
    """A table, its versioned layouts, and the serving tier over them.

    Parameters
    ----------
    table:
        The logical table (``None`` for layout-only databases restored
        by :meth:`open` without a persisted table — those can serve
        and swap but not build or ingest).
    min_block_size:
        Default block-size floor ``b`` for :meth:`build_layout`.
    planner:
        Optional pre-existing planner; by default a fresh
        :class:`SqlPlanner` is created.  All layouts of one database
        share the planner so advanced-cut slot indices stay aligned
        across builds and serving.
    """

    def __init__(
        self,
        table: Optional[Table],
        min_block_size: int = 1000,
        planner: Optional[SqlPlanner] = None,
        schema=None,
    ) -> None:
        if table is None and schema is None:
            raise ValueError("Database needs a table or a schema")
        self.table = table
        self.schema = schema if schema is not None else table.schema
        self.min_block_size = min_block_size
        self.planner = (
            planner if planner is not None else SqlPlanner(self.schema)
        )
        self.result_cache = ResultCache()
        self._lock = threading.Lock()
        self._generation = 0
        self._layouts: List[LayoutHandle] = []
        self._active: Optional[LayoutHandle] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_table(
        cls, table: Table, min_block_size: int = 1000
    ) -> "Database":
        """A database over an in-memory table (no layout yet)."""
        return cls(table, min_block_size=min_block_size)

    @classmethod
    def open(cls, path) -> "Database":
        """Restore a database from a directory written by :meth:`save`
        (or by ``repro.cli build`` — the formats are the same).

        The layout's build workload is re-planned through a fresh
        planner so advanced-cut slot indices line up with the saved
        tree's registry.
        """
        from pathlib import Path

        path = Path(path)
        meta = load_layout_meta(path)
        store = load_store(path)
        table: Optional[Table] = None
        if (path / _TABLE_DIR / "table.npz").exists():
            table = load_table(path / _TABLE_DIR)
        planner = SqlPlanner(store.schema)
        statements = tuple(meta.get("queries") or ())
        registry: Optional[CutRegistry] = None
        num_advanced = 0
        if statements:
            workload = planner.plan_workload(list(statements))
            registry = planner.candidate_cuts(workload)
            num_advanced = registry.num_advanced_cuts
        signature = (
            WorkloadSignature.from_json(meta[SIGNATURE_KEY])
            if meta.get(SIGNATURE_KEY)
            else None
        )
        tree: Optional[QdTree] = None
        tree_path = layout_tree_path(path)
        if tree_path.exists():
            if registry is None:
                raise ValueError(
                    f"layout at {path} has a tree but no build queries "
                    f"in its metadata; cannot rebind tree cuts"
                )
            tree = QdTree.load(str(tree_path), store.schema, registry)
        generation = int(meta.get("generation", 1))
        strategy = str(meta.get("strategy") or "unknown")
        db = cls(
            table,
            min_block_size=int(meta.get("min_block_size", 1000)),
            planner=planner,
            schema=store.schema,
        )
        handle = LayoutHandle(
            generation=generation,
            strategy=strategy,
            store=store,
            tree=tree,
            num_advanced_cuts=num_advanced,
            statements=statements,
            label=str(meta.get("label", strategy)),
            workload_signature=signature,
        )
        db._generation = generation
        db._layouts.append(handle)
        db._active = handle
        return db

    def save(self, path, layout: Optional[LayoutHandle] = None,
             include_table: bool = False) -> None:
        """Persist a layout (default: the active one) to a directory.

        Writes the block store, the qd-tree (when present) and the
        metadata document — strategy name, generation, block-size
        floor and build statements — through the canonical
        :mod:`repro.storage.catalog` artifact names, so the CLI and
        :meth:`open` read the same format.  ``include_table=True``
        additionally persists the logical table (needed if the
        reopened database should build new layouts or ingest).
        """
        handle = self._resolve(layout)
        if handle.tree is not None and not handle.statements:
            raise ValueError(
                "cannot persist a tree layout built from a pre-planned "
                "Workload: the tree's cuts cannot be rebound on load; "
                "build from SQL statements to save"
            )
        from pathlib import Path

        path = Path(path)
        save_store(handle.store, path)
        if handle.tree is not None:
            handle.tree.save(str(layout_tree_path(path)))
        meta: Dict[str, object] = {
            "strategy": handle.strategy,
            "generation": handle.generation,
            "label": handle.label or handle.strategy,
            "min_block_size": self.min_block_size,
            "num_blocks": handle.store.num_blocks,
            "queries": list(handle.statements),
        }
        if handle.workload_signature is not None:
            meta[SIGNATURE_KEY] = handle.workload_signature.to_json()
        save_layout_meta(path, meta)
        if include_table:
            if self.table is None:
                raise ValueError("no logical table to persist")
            save_table(self.table, path / _TABLE_DIR)

    # ------------------------------------------------------------------
    # Layout lifecycle
    # ------------------------------------------------------------------

    @property
    def generation(self) -> int:
        """The active layout's generation (0 before any build)."""
        return self._active.generation if self._active else 0

    @property
    def active_layout(self) -> Optional[LayoutHandle]:
        return self._active

    def layouts(self) -> Tuple[LayoutHandle, ...]:
        """Every layout built or opened by this database, oldest first."""
        return tuple(self._layouts)

    def _next_generation(self) -> int:
        with self._lock:
            self._generation += 1
            return self._generation

    def _resolve(self, layout: Optional[LayoutHandle]) -> LayoutHandle:
        handle = layout if layout is not None else self._active
        if handle is None:
            raise ValueError(
                "no layout yet: call build_layout() first "
                "(or pass layout=...)"
            )
        return handle

    def _plan_workload(
        self, workload: Union[Workload, Sequence[str], None]
    ) -> Tuple[Optional[Workload], Tuple[str, ...]]:
        """Accept SQL statements or a pre-planned Workload."""
        if workload is None:
            return None, ()
        if isinstance(workload, Workload):
            return workload, ()
        statements = tuple(workload)
        if not all(isinstance(s, str) for s in statements):
            raise ValueError(
                "workload must be a Workload or a sequence of SQL strings"
            )
        return self.planner.plan_workload(list(statements)), statements

    def build_layout(
        self,
        strategy: str = "greedy",
        workload: Union[Workload, Sequence[str], None] = None,
        min_block_size: Optional[int] = None,
        sample_ratio: Optional[float] = None,
        sample_seed: int = 0,
        registry: Optional[CutRegistry] = None,
        label: Optional[str] = None,
        activate: bool = True,
        **options,
    ) -> LayoutHandle:
        """Build a layout through the strategy registry.

        ``workload`` may be SQL statements (planned through the
        database's shared planner and kept for persistence) or an
        already-planned :class:`Workload`; workload-oblivious
        strategies accept ``None``.  ``sample_ratio`` learns tree
        strategies on a row sample with the block-size floor scaled
        accordingly (Sec. 5.2.1).  Extra keyword ``options`` go to the
        strategy adapter (e.g. ``episodes=``/``seed=`` for woodblock,
        ``column=`` for range).  The new layout receives the next
        generation number; ``activate=True`` (default) makes it the
        database's serving layout and purges result-cache entries of
        other generations.
        """
        if self.table is None:
            raise ValueError(
                "this database has no logical table (opened layout-only); "
                "cannot build new layouts"
            )
        b = min_block_size if min_block_size is not None else self.min_block_size
        planned, statements = self._plan_workload(workload)
        if registry is None and planned is not None:
            registry = self.planner.candidate_cuts(planned)
        if sample_ratio is None:
            sample, sample_b = self.table, b
        else:
            rng = np.random.default_rng(sample_seed)
            sample = self.table.sample(sample_ratio, rng)
            sample_b = max(1, round(b * sample_ratio))
        impl = get_strategy(strategy)
        ctx = BuildContext(
            schema=self.schema,
            table=self.table,
            sample=sample,
            min_block_size=b,
            sample_block_size=sample_b,
            workload=planned,
            registry=registry,
            options=dict(options),
        )
        t0 = now()
        built = impl.build(ctx)
        build_seconds = now() - t0
        if built.tree is not None:
            # One leaf-ordered pass builds the blocks, and the leaves
            # are tightened to those blocks' own stats.
            bids = built.tree.route_to_blocks(self.table)
            store = BlockStore.from_assignment(
                self.table, bids, descriptions=built.tree.leaf_descriptions()
            )
            built.tree.tighten({block.block_id: block.minmax for block in store})
        else:
            assert built.assignment is not None
            store = BlockStore.from_assignment(self.table, built.assignment)
        handle = LayoutHandle(
            generation=self._next_generation(),
            strategy=strategy,
            store=store,
            tree=built.tree,
            build_seconds=build_seconds,
            num_advanced_cuts=(
                registry.num_advanced_cuts if registry is not None else 0
            ),
            statements=statements,
            diagnostics=built.diagnostics,
            label=label or strategy,
            workload_signature=(
                WorkloadSignature.from_queries(planned)
                if planned is not None
                else None
            ),
        )
        with self._lock:
            self._layouts.append(handle)
        if activate:
            self.swap_layout(handle)
        return handle

    def swap_layout(self, handle: LayoutHandle) -> LayoutHandle:
        """Make ``handle`` the active serving layout.

        Changing the active generation purges result-cache entries of
        every other generation — lookups are generation-keyed anyway,
        so this is memory hygiene, and together they guarantee a swap
        can never surface a stale result.

        Thread-safety (the adapt loop swaps inline on the serving
        worker that detects drift, while other queries are in
        flight): the lifecycle mutation and the purge happen under the
        database lock, and the lock ordering is strictly ``Database._lock`` → ``ResultCache._lock`` — the hot
        query path takes only the cache lock, so the two can never
        deadlock.  A query racing the swap on the *old* generation may
        re-publish an old-generation cache entry after the purge;
        that entry is unreachable from the new generation's lookups
        (keys carry the generation) and still bit-correct if that
        generation is ever swapped back in (generations name immutable
        stores), so a stale result remains structurally impossible —
        ``tests/test_db_differential.py`` races swaps against hot
        queries to prove it.
        """
        with self._lock:
            if handle not in self._layouts:
                raise ValueError("unknown layout handle (not built here)")
            self._active = handle
            self.result_cache.retain(handle.generation)
        return handle

    def drop_layout(self, handle: LayoutHandle) -> None:
        """Forget a non-active layout, releasing its store.

        Generations are immutable but not free: every ingest produces
        a new merged store, and a long-running ingest loop would
        otherwise keep every superseded generation's blocks reachable
        forever.  Dropping the active layout is refused (swap first);
        the handle's cached result-cache entries, if any, are purged.
        """
        with self._lock:
            if handle is self._active:
                raise ValueError(
                    "cannot drop the active layout; swap first"
                )
            try:
                self._layouts.remove(handle)
            except ValueError:
                raise ValueError(
                    "unknown layout handle (not built here)"
                ) from None
            if self._active is not None:
                self.result_cache.retain(self._active.generation)

    def ingest(self, batch: Table) -> LayoutHandle:
        """Route ``batch`` through the active layout's learned tree and
        merge it into the store — producing a NEW generation.

        This is the paper's Problem 2: the frozen qd-tree is the
        learned partitioning function, evaluated through
        :class:`~repro.core.ingest.IngestionPipeline`.  The active
        handle's store is never mutated (generations are immutable);
        instead a new handle with a merged store and the next
        generation number is built, activated, and returned — which
        also invalidates all cached results of older generations.
        The tree is shared and only read: each generation routes over
        a pruning table derived from its *own* blocks' stats
        (:meth:`LayoutHandle.router`), so the new rows are found here
        and older generations' answers do not move.
        """
        active = self._resolve(None)
        if active.tree is None:
            raise ValueError(
                f"ingest needs a tree-backed layout (active strategy "
                f"{active.strategy!r} has no learned partitioning function)"
            )
        bids = IngestionPipeline(active.tree).route(batch)
        store = active.store
        base = store.logical_rows
        # Touched blocks are rebuilt from their old rows followed by
        # the batch rows routed to them: listing the old rows first
        # keeps that order through the builder's stable sort.
        touched = [
            store.block(bid)
            for bid in np.flatnonzero(np.bincount(bids)).tolist()
            if bid in store
        ]
        groups = group_rows(
            np.concatenate(
                [np.full(old.num_rows, old.block_id) for old in touched] + [bids]
            )
        )
        ids = np.concatenate(
            [
                old.row_ids if old.row_ids is not None else np.full(old.num_rows, -1)
                for old in touched
            ]
            + [base + np.arange(batch.num_rows)]
        )[groups.order]
        ids.setflags(write=False)
        merged = build_blocks(
            self.schema,
            lambda name: np.concatenate(
                [old.read_column(name) for old in touched] + [batch.column(name)]
            ),
            groups,
            {
                **active.tree.leaf_descriptions(),
                **{old.block_id: old.description for old in touched},
            },
            row_ids=ids,
        )
        for block in merged:
            if block.block_id in store and store.block(block.block_id).row_ids is None:
                block.row_ids = None
        blocks = {block.block_id: block for block in store}
        blocks.update((block.block_id, block) for block in merged)
        new_store = BlockStore(
            self.schema, blocks.values(), logical_rows=base + batch.num_rows
        )
        if self.table is not None:
            self.table = self.table.concat(batch)
        handle = LayoutHandle(
            generation=self._next_generation(),
            strategy=active.strategy,
            store=new_store,
            tree=active.tree,
            num_advanced_cuts=active.num_advanced_cuts,
            statements=active.statements,
            label=active.label,
            workload_signature=active.workload_signature,
        )
        with self._lock:
            self._layouts.append(handle)
        self.swap_layout(handle)
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _pipeline_for(self, handle: LayoutHandle) -> QueryPipeline:
        """The handle's library-path pipeline, built on demand.

        One :func:`~repro.exec.pipeline.single_layout_pipeline`
        configuration per handle — the same stages every serving
        facade runs, wired to the database's shared planner and
        generation-keyed result cache, minus the metrics/scheduler a
        live service adds.
        """
        if handle._pipeline is None:
            handle._pipeline = single_layout_pipeline(
                planner=self.planner,
                engine=handle.engine(),
                router=handle.router(),
                store=handle.store,
                result_cache=self.result_cache,
                generation=handle.generation,
            )
        return handle._pipeline

    def execute(
        self, sql: str, layout: Optional[LayoutHandle] = None
    ) -> ServeResult:
        """Execute one statement on the caller's thread (library path).

        Runs the shared :class:`~repro.exec.pipeline.QueryPipeline`:
        routes through the layout's tree when it has one (memoized per
        predicate), consults and populates the generation-keyed result
        cache, and returns the same
        :class:`~repro.exec.pipeline.ServeResult` a serving facade
        would.
        """
        return self._pipeline_for(self._resolve(layout)).execute(sql)

    def collect_row_ids(
        self, sql: str, layout: Optional[LayoutHandle] = None
    ) -> np.ndarray:
        """Matched original-table row ids for one statement (sorted,
        deduped, memoized in the cache's byte-bounded row-id store);
        requires row-id provenance on the layout's blocks."""
        return self._pipeline_for(self._resolve(layout)).collect_row_ids(sql)

    def _resolve_result_cache(
        self, result_cache: Union[bool, ResultCache]
    ) -> Optional[ResultCache]:
        """``True`` -> the database's shared cache, ``False``/``None``
        -> no caching, an instance -> that private cache."""
        if result_cache is True:
            return self.result_cache
        if result_cache is False or result_cache is None:
            return None
        return result_cache

    def serve(
        self,
        layout: Optional[LayoutHandle] = None,
        shards: int = 1,
        partition: str = "rr",
        profile: CostProfile = SPARK_PARQUET,
        cache_budget_bytes: Optional[int] = DEFAULT_CACHE_BUDGET,
        max_workers: int = 4,
        queue_depth: int = 64,
        result_cache: Union[bool, ResultCache] = True,
        # Accepted only as "lru" because benchmarks/perf still passes
        # it; a change to that benchmark deletes the keyword.
        admission: str = "lru",
        tracer: Optional[object] = None,
    ):
        """Stand up the serving tier over a layout (default: active).

        ``shards=1`` returns a :class:`LayoutService`; ``shards>1`` a
        scatter-gather :class:`ShardedLayoutService` (``max_workers``
        then sizes the coordinator); ``shards<1`` raises
        :class:`ValueError`.  Both share the database's
        planner and — unless ``result_cache=False`` — its
        generation-keyed result cache, stamped with the layout's
        generation (pass a :class:`ResultCache` instance instead of
        ``True`` to give the service a private cache, e.g. for
        like-for-like benchmark comparisons).  ``tracer`` (a
        :class:`~repro.obs.trace.Tracer`) records one per-stage trace
        per served query.  The buffer pool
        is LRU; ``admission`` accepts only ``"lru"``.  Close the
        service when done (both are context managers).
        """
        if admission != "lru":
            raise ValueError(
                f"the buffer pool is LRU only, got admission={admission!r}"
            )
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        handle = self._resolve(layout)
        common = dict(
            profile=profile,
            num_advanced_cuts=handle.num_advanced_cuts,
            cache_budget_bytes=cache_budget_bytes,
            max_workers=max_workers,
            queue_depth=queue_depth,
            planner=self.planner,
            result_cache=self._resolve_result_cache(result_cache),
            generation=handle.generation,
            tracer=tracer,
        )
        if shards > 1:
            return ShardedLayoutService(
                handle.store,
                handle.tree,
                num_shards=shards,
                partition=partition,
                **common,
            )
        return LayoutService(handle.store, handle.tree, **common)

    def serve_multi(
        self,
        layouts: Optional[Sequence[LayoutHandle]] = None,
        profile: CostProfile = SPARK_PARQUET,
        cache_budget_bytes: Optional[int] = DEFAULT_CACHE_BUDGET,
        max_workers: int = 4,
        queue_depth: int = 64,
        result_cache: Union[bool, ResultCache] = True,
        tracer: Optional[object] = None,
    ) -> MultiLayoutService:
        """Serve the table under several layouts, cheapest layout wins.

        ``layouts`` defaults to every layout of this database holding
        the **current data version** — superseded pre-ingest
        generations are excluded, because a layout missing ingested
        rows would not merely be slower, it would return wrong
        results (and the arbiter would even *prefer* it: fewer rows
        means fewer surviving blocks).  Passing an explicit mix of
        data versions raises for the same reason.  Each query is
        routed against every candidate layout's qd-tree, scored with
        the blocks-surviving × bytes-scanned cost model, and executed
        on the argmin layout; per-layout win counts appear in
        ``service.snapshot().layout_wins``.  The result cache (shared
        with the database by default, same semantics as
        :meth:`serve`) keys entries on the winning layout's
        generation.  Close the service when done (context manager).
        """
        with self._lock:
            known = list(self._layouts)
            active = self._active
        current_rows = active.store.logical_rows if active else None
        if layouts is not None:
            handles = list(layouts)
        else:
            handles = [
                h for h in known if h.store.logical_rows == current_rows
            ]
        if not handles:
            raise ValueError(
                "no layouts to serve: call build_layout() first "
                "(or pass layouts=[...])"
            )
        for handle in handles:
            if handle not in known:
                raise ValueError("unknown layout handle (not built here)")
        row_counts = {h.store.logical_rows for h in handles}
        if len(row_counts) > 1:
            raise ValueError(
                "layouts hold different data versions "
                f"(logical row counts {sorted(row_counts)}); arbitrating "
                "across them would serve stale results — rebuild the "
                "stale layouts on the current table first"
            )
        return MultiLayoutService(
            handles,
            profile=profile,
            cache_budget_bytes=cache_budget_bytes,
            max_workers=max_workers,
            queue_depth=queue_depth,
            planner=self.planner,
            result_cache=self._resolve_result_cache(result_cache),
            tracer=tracer,
        )

    def auto_adapt(
        self,
        policy: Optional[AdaptPolicy] = None,
        profile: CostProfile = SPARK_PARQUET,
        cache_budget_bytes: Optional[int] = DEFAULT_CACHE_BUDGET,
        max_workers: int = 4,
        queue_depth: int = 64,
        result_cache: Union[bool, ResultCache] = True,
        tracer: Optional[object] = None,
    ) -> AdaptiveService:
        """Serve the active layout with online drift adaptation.

        Returns an :class:`~repro.adapt.service.AdaptiveService`: a
        single-layout service whose query stream feeds a
        :class:`~repro.adapt.log.QueryLog`; when the live mix diverges
        from the layout's build-time workload signature past
        ``policy.threshold``, a candidate layout is rebuilt from the
        logged window inline on the serving worker that detects drift
        (that query's client pays for it), evaluated offline on the
        blocks-scanned cost model, and — if it wins by
        ``policy.min_improvement`` — installed through
        :meth:`swap_layout` (new generation, cache purge) with the
        serving path hot-swapped onto it.  Results stay bit-identical
        throughout; only the work to produce them shrinks.
        ``result_cache`` has :meth:`serve` semantics (``True`` = the
        database's shared cache, ``False`` = uncached, an instance =
        private).  Close the service when done (context manager).
        """
        return AdaptiveService(
            self,
            policy=policy,
            profile=profile,
            cache_budget_bytes=cache_budget_bytes,
            max_workers=max_workers,
            queue_depth=queue_depth,
            result_cache=self._resolve_result_cache(result_cache),
            tracer=tracer,
        )

    def __repr__(self) -> str:
        active = (
            f"gen {self._active.generation} ({self._active.strategy})"
            if self._active
            else "none"
        )
        return (
            f"Database(rows={self.table.num_rows if self.table else '?'}, "
            f"layouts={len(self._layouts)}, active={active}, "
            f"cached={len(self.result_cache)})"
        )
