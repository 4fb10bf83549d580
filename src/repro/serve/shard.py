"""Sharded scatter-gather serving over a partitioned block store.

:class:`ShardedLayoutService` splits a finished
:class:`~repro.storage.blocks.BlockStore` into N disjoint shards
(round-robin by BID, or by qd-tree subtree to preserve routing
locality), gives each one a :class:`Shard` record — store, engine,
buffer pool, scheduler, metrics, and nothing else: shards never plan,
route, prune or cache results (a shard's engine builds no block
metadata) — and fronts them with a scatter-gather
coordinator.  The coordinator is a configuration of the shared
:class:`~repro.exec.pipeline.QueryPipeline`::

    SQL text
      -> PlanStage         (shared, memoized)
      -> RouteStage        (one pass over the generation's pruning
                           table per unique predicate: routed BIDs
                           and survivors, memoized)
      -> ResultCacheStage  (a hit skips the whole scatter — no shard
                           sees the query at all)
      -> ScatterScanStage  (split the survivors by owning shard and
                           scan ONLY the shards owning surviving
                           blocks, each through its own scheduler)
      -> MergeStage        (per-shard QueryStats folded into one
                           result with the same ``result_key`` as
                           unsharded execution)

Partition-strategy trade-offs (see also
:func:`repro.core.router.subtree_shard_assignment`):

* ``"rr"`` (round-robin) balances block counts and rows across shards
  regardless of layout shape, and spreads every query's survivors over
  all shards — maximum intra-query parallelism, but every query pays
  coordination with every shard.
* ``"subtree"`` cuts the qd-tree's left-to-right leaf order into
  contiguous runs of near-equal row weight, so neighbouring leaves
  (which selective queries co-touch) land on the same shard — fan-out
  per query is small, at the risk of a hot subtree skewing load onto
  one shard.

Correctness bar: for every query, the merged stats must be
bit-identical (``QueryStats.result_key``) to the unsharded
:class:`~repro.serve.service.LayoutService` and to serial uncached
execution — the
differential suite in ``tests/test_shard_differential.py`` enforces
this, in the spirit of partition-aware query answering where the
partitioned plan is *proved* equivalent to the unpartitioned one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..core.router import subtree_shard_assignment
from ..core.tree import QdTree
from ..engine.executor import ScanEngine
from ..engine.profiles import SPARK_PARQUET, CostProfile
from ..exec import ResultCache, ScatterScanStage, sharded_pipeline
from ..sql.planner import SqlPlanner
from ..storage.blocks import BlockStore
from .cache import BlockCache
from .metrics import MetricsSnapshot, ServingMetrics
from .scheduler import Scheduler, SchedulerStats
from .service import DEFAULT_CACHE_BUDGET, Service, pooled_engine, serving_router

__all__ = ["Shard", "ShardSnapshot", "ShardedLayoutService"]


@dataclass(frozen=True)
class ShardSnapshot:
    """One shard's point-in-time observability bundle."""

    shard: int
    num_blocks: int
    metrics: MetricsSnapshot
    scheduler: SchedulerStats


@dataclass(frozen=True)
class Shard:
    """One shard's resources: the blocks it owns and what scans them.

    A plain record — :class:`~repro.exec.stages.ScatterScanStage`
    runs the timed scan leaf through ``scheduler`` and books it in
    ``metrics``; nothing here executes a query.
    """

    index: int
    store: BlockStore
    engine: ScanEngine
    cache: Optional[BlockCache]
    scheduler: Scheduler
    metrics: ServingMetrics

    def snapshot(self) -> ShardSnapshot:
        return ShardSnapshot(
            shard=self.index,
            num_blocks=self.store.num_blocks,
            metrics=self.metrics.snapshot(
                self.cache.stats() if self.cache is not None else None
            ),
            scheduler=self.scheduler.stats(),
        )


class _ShardTier:
    """The scatter-gather tier as one serving resource: the
    coordinator pool, the shard schedulers behind it and the scatter
    stage's fan-out window.  Closing drains the coordinator first —
    its workers are the only ones running scans through the shard
    schedulers."""

    def __init__(
        self,
        coordinator: Scheduler,
        shards: Tuple[Shard, ...],
        scatter: ScatterScanStage,
        partition: str,
    ) -> None:
        self.coordinator = coordinator
        self.shards = shards
        self.scatter = scatter
        self.partition = partition

    def scheduler_stats(self) -> Tuple[SchedulerStats, SchedulerStats]:
        return (
            self.coordinator.stats(),
            SchedulerStats.merged([s.scheduler.stats() for s in self.shards]),
        )

    def publish(self, registry: object, **labels: object) -> None:
        self.coordinator.publish(registry, role="coordinator", **labels)
        for shard in self.shards:
            own = {"shard": shard.index, **labels}
            shard.metrics.publish(registry, **own)
            shard.scheduler.publish(registry, role="shard", **own)
            if shard.cache is not None:
                shard.cache.publish(registry, **own)

    def report_lines(self) -> Tuple[str, ...]:
        _, pools = self.scheduler_stats()
        lines = [
            f"topology           {len(self.shards)} shards "
            f"({self.partition}), mean fan-out {self.scatter.mean_fanout:.2f}",
            *self.coordinator.report_lines("coordinator"),
            f"shard pools        {pools.submitted} scans / "
            f"{pools.completed} completed (peak in-flight {pools.max_in_flight})",
        ]
        for s in (shard.snapshot() for shard in self.shards):
            lines.append(
                f"  shard {s.shard:<2} {s.num_blocks:>4} blocks  "
                f"{s.metrics.queries:>6} scans  "
                f"p50 {s.metrics.latency_p50_ms:.3f} ms  "
                f"hit rate {100 * s.metrics.cache_hit_rate:.1f}%"
            )
        return tuple(lines)

    def reset(self) -> None:
        for shard in self.shards:
            shard.metrics.reset()
        self.scatter.reset()

    def close(self) -> None:
        self.coordinator.close()
        for shard in self.shards:
            shard.scheduler.close()


class ShardedLayoutService(Service):
    """Scatter-gather topology: a coordinator over N :class:`Shard`.

    Parameters
    ----------
    store:
        The full layout's block store; partitioned across shards at
        construction (blocks are shared by reference, never copied).
    tree:
        Optional qd-tree.  Routing happens once, at the coordinator;
        shards never route.  Required for ``partition="subtree"``.
    num_shards:
        Shard count.  ``1`` degenerates to a coordinator in front of a
        single shard (useful as a like-for-like scaling baseline).
    partition:
        ``"rr"`` or ``"subtree"`` — see the module docstring for the
        trade-offs.
    cache_budget_bytes:
        TOTAL buffer-pool budget, split evenly across shards (each
        shard machine owns its memory in a real deployment).
        ``0``/``None`` disables caching on every shard.
    max_workers_per_shard / queue_depth:
        Per-shard scheduler sizing.
    coordinator_workers:
        Front-end pool size; defaults to ``max_workers_per_shard``.
        Coordinator workers run the shard scans themselves (through
        each shard scheduler's admission, see
        :class:`~repro.exec.stages.ScatterScanStage`), and more threads
        than that only contend for the interpreter lock.
    planner:
        Shared planner; pass the build workload's planner whenever the
        layout used advanced cuts (same caveat as
        :class:`~repro.serve.service.LayoutService`).
    result_cache / generation:
        Optional generation-keyed :class:`~repro.exec.ResultCache`,
        consulted at the coordinator: a hit skips the whole scatter —
        no shard sees the query at all.
    record_sink / admission:
        Query-log sink appended at the coordinator pipeline's tail
        (shards never double-record) and the per-shard buffer-pool
        admission policy.
    tracer:
        Optional :class:`~repro.obs.trace.Tracer` attached at the
        coordinator pipeline: each query's trace carries the
        ``scatter_scan`` span plus one ``scatter_scan.shard<i>`` child
        span per owning shard.
    """

    def __init__(
        self,
        store: BlockStore,
        tree: Optional[QdTree] = None,
        num_shards: int = 2,
        partition: str = "rr",
        profile: CostProfile = SPARK_PARQUET,
        num_advanced_cuts: int = 0,
        cache_budget_bytes: Optional[int] = DEFAULT_CACHE_BUDGET,
        max_workers_per_shard: int = 2,
        queue_depth: int = 64,
        coordinator_workers: Optional[int] = None,
        planner: Optional[SqlPlanner] = None,
        result_cache: Optional[ResultCache] = None,
        generation: int = 0,
        record_sink: Optional[object] = None,
        admission: str = "lru",
        tracer: Optional[object] = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if partition not in ("rr", "subtree"):
            raise ValueError(f"unknown partition strategy {partition!r}")
        if partition == "subtree" and tree is None:
            raise ValueError("partition='subtree' requires a qd-tree")
        self.store = store
        self.num_shards = num_shards
        self.partition = partition
        self.generation = generation

        if partition == "subtree":
            assert tree is not None
            assignment = subtree_shard_assignment(
                tree,
                num_shards,
                weights={b.block_id: b.num_rows for b in store},
            )
            shard_stores = store.partition(num_shards, assignment=assignment)
        else:
            shard_stores = store.partition(num_shards, strategy="rr")
        per_shard_budget = (
            cache_budget_bytes // num_shards if cache_budget_bytes else None
        )

        self.shards: Tuple[Shard, ...] = tuple(
            Shard(
                i,
                sub,
                *pooled_engine(
                    sub, profile, num_advanced_cuts, per_shard_budget, admission
                ),
                Scheduler(max_workers_per_shard, queue_depth),
                ServingMetrics(),
            )
            for i, sub in enumerate(shard_stores)
        )
        self.router = serving_router(tree, store)
        metrics = ServingMetrics()
        scheduler = Scheduler(
            max_workers=(
                coordinator_workers
                if coordinator_workers is not None
                else max_workers_per_shard
            ),
            queue_depth=queue_depth,
        )
        pipeline = sharded_pipeline(
            planner=planner if planner is not None else SqlPlanner(store.schema),
            shards=self.shards,
            router=self.router,
            engine=ScanEngine(store, profile, num_advanced_cuts),
            result_cache=result_cache,
            generation=generation,
            metrics=metrics,
            record_sink=record_sink,
            tracer=tracer,
        )
        self._tier = _ShardTier(
            scheduler, self.shards, pipeline.stage("scan"), partition
        )
        super().__init__(
            pipeline,
            scheduler,
            metrics,
            [(metrics, {}), (self._tier, {})]
            + [(pipeline.stage(name), {}) for name in ("route", "result_cache")],
            block_caches=[s.cache for s in self.shards if s.cache is not None],
        )

    def shard_snapshots(self) -> Tuple[ShardSnapshot, ...]:
        """Per-shard metrics/scheduler snapshots (aggregate view comes
        from :meth:`snapshot` / :meth:`scheduler_stats`)."""
        return tuple(shard.snapshot() for shard in self.shards)

    def scheduler_stats(self) -> Tuple[SchedulerStats, SchedulerStats]:
        """(coordinator stats, aggregate-over-shards stats)."""
        return self._tier.scheduler_stats()

    @property
    def mean_fanout(self) -> float:
        """Mean shards scattered to per query (the partition-locality
        metric: lower means the strategy kept survivors together)."""
        return self._tier.scatter.mean_fanout

    def __repr__(self) -> str:
        return (
            f"ShardedLayoutService(shards={self.num_shards}, "
            f"partition={self.partition!r}, "
            f"blocks={self.store.num_blocks})"
        )
