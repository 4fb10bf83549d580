"""The pipeline stages.

Each stage is a small object with one job, operating only on the
:class:`~repro.exec.context.ExecContext`:

===================  ====================================================
Stage                Responsibility
===================  ====================================================
:class:`PlanStage`   SQL text -> planned :class:`Query` (memoized planner)
:class:`RouteStage`  one pass over the layout generation's pruning table
                     -> routed BID list, candidate count and survivors
:class:`ResultCacheStage`
                     generation-keyed full-result memo (get on the way
                     down, put in ``finish`` on the way back up)
:class:`ScanStage`   scan the survivors on one engine
:class:`MergeStage`  fold scatter-gather parts into one result
:class:`RecordStage` feed the finished execution to a query-log sink
                     (optional single-layout tail stage; the adapt
                     control plane's observation point)
===================  ====================================================

Two substitutions cover the wider topologies: the sharded coordinator
replaces scan with :class:`ScatterScanStage` (split the survivors by
owning shard, scan each part on the shard's engine, gather the
parts); the
multi-layout arbiter replaces route with :class:`ArbitrateStage`,
which scores every candidate layout with a blocks-surviving ×
bytes-scanned cost model and binds the argmin layout to the context.
That argmin is the only arbitration rule, so one memo entry per
predicate holds the whole decision.

There is no separate prune stage: a generation's pruning table
(:func:`repro.core.router.block_descriptions` — the blocks' stats as
stacked arrays) *is* the block min-max, so :func:`route_and_count`
yields the survivors in the same vector pass that routes, and no stage
tests blocks one by one.

Stages guard themselves: a stage whose output is already present (a
cache hit filled ``ctx.stats``, the arbiter filled ``ctx.survivors``)
is a no-op, so one canonical stage order serves every configuration.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.router import QueryRouter
from ..core.workload import Query
from ..engine.executor import QueryStats, ScanEngine
from ..engine.profiles import CostProfile
from ..obs.clock import now
from ..sql.planner import SqlPlanner
from ..storage.schema import Schema
from .context import ExecContext, LayoutBinding
from .memo import RouteMemo
from .result_cache import CachedResult, ResultCache

__all__ = [
    "ArbitrateStage",
    "ArbiterChoice",
    "MergeStage",
    "PlanStage",
    "RecordStage",
    "ResultCacheStage",
    "RouteStage",
    "ScanStage",
    "ScatterScanStage",
    "Stage",
    "route_and_count",
]


class Stage:
    """Protocol every pipeline stage implements.

    ``run`` executes on the way down the stage list; ``finish`` runs
    for every stage after the result is known, in stage order (the
    result-cache stage publishes the computed result, then the record
    stage feeds its sink).  ``span_attrs``
    describes what ``run`` just did for the stage's trace span.

    A stage that owns a memo or cache is also a *serving resource*
    (see :class:`repro.serve.Service`) and implements the
    ``report_lines`` / ``publish`` hooks for it.
    """

    name = "stage"
    #: Name trace spans use for this stage.  Defaults to ``name``;
    #: stages that share a timing key with the stage they substitute
    #: (the arbiter reports under ``route``, the scatter scan under
    #: ``scan``) override it so traces show the true operation.
    span_name: Optional[str] = None

    def run(self, ctx: ExecContext) -> None:
        raise NotImplementedError

    def finish(self, ctx: ExecContext) -> None:
        """Post-result hook; default no-op."""

    def span_attrs(self, ctx: ExecContext) -> Dict[str, object]:
        """Avoided-work attributes for this stage's just-finished
        trace span, read off the context ``run`` filled."""
        return {}


def _count(ids: Optional[Sequence[object]]) -> Optional[int]:
    return None if ids is None else len(ids)


def _result_attrs(ctx: ExecContext, **extra: object) -> Dict[str, object]:
    """Span attributes of the stages that produce (or pass through)
    the finished result: scan, scatter-scan and merge."""
    attrs: Dict[str, object] = {"cached": ctx.cached, **extra}
    if ctx.stats is not None:
        attrs.update(
            blocks_scanned=ctx.stats.blocks_scanned,
            tuples_scanned=ctx.stats.tuples_scanned,
            bytes_read=ctx.stats.bytes_read,
            rows_returned=ctx.stats.rows_returned,
        )
    return attrs


class PlanStage(Stage):
    """SQL text -> planned query, through the shared memoized planner."""

    name = "plan"

    def __init__(self, planner: SqlPlanner) -> None:
        self.planner = planner

    def run(self, ctx: ExecContext) -> None:
        ctx.query = self.planner.plan(ctx.sql).query

    def span_attrs(self, ctx: ExecContext) -> Dict[str, object]:
        return {"template": ctx.query.template if ctx.query else None}


def route_and_count(
    router: Optional[QueryRouter], engine: ScanEngine, query: Query
) -> Tuple[Optional[Tuple[int, ...]], int, Tuple[int, ...]]:
    """``(routed, considered, survivors)`` from one pass over the
    layout's pruning table, shared by every routing consumer
    (:class:`RouteStage`, the multi-layout arbiter and the adapt
    loop's offline cost) so no rule can diverge between them.

    Tree-backed: the router's table is the block min-max plus the
    leaves' advanced-cut bits, so every routed block the store holds
    survives — a BID is counted once no matter how shards partition
    (or a future layout replicates) it.  Tree-less: nothing is routed,
    every block is a candidate and the engine's stats-only table
    prunes.
    """
    if router is None:
        survivors = tuple(engine.prune_blocks(query))
        return None, engine.store.num_blocks, survivors
    routed = router.route(query).block_ids
    survivors = tuple(sorted(set(routed) & engine.store.bid_set))
    if survivors == routed:
        # the usual case; a memoised entry then holds one tuple, not two
        survivors = routed
    return routed, len(survivors), survivors


class RouteStage(Stage):
    """Routing and pruning in one pass: the ``BID IN (...)`` rewrite
    (paper Sec. 3.3) over min-max-tight metadata (Sec. 3.2).

    With a memo, repeated predicate shapes cost two dict lookups;
    without one (the serial baseline), every arrival scans the table
    from scratch — exactly the pre-serving cost model.

    Routing runs *before* the result-cache stage (the canonical stage
    order) — a deliberate tradeoff: a cache hit pays the memoized
    route (two dict lookups), and a hit can only re-scan the table if
    the predicate fell out of the route memo.  Both are LRU and the
    result cache holds half as many entries (1 024) as the route memo
    (2 048), so a fully cached workload always routes from the memo.
    """

    name = "route"

    def __init__(
        self,
        router: Optional[QueryRouter],
        engine: ScanEngine,
        memo: Optional[RouteMemo] = None,
    ) -> None:
        self.router = router
        self.engine = engine
        self.memo = memo

    def run(self, ctx: ExecContext) -> None:
        if ctx.survivors is not None:
            return
        if self.memo is not None:
            entry = self.memo.get_or_compute(
                ctx.query.predicate, lambda: self._route(ctx.query)
            )
        else:
            entry = self._route(ctx.query)
        ctx.routed, ctx.considered, ctx.survivors = entry

    def _route(self, query: Query):
        return route_and_count(self.router, self.engine, query)

    def span_attrs(self, ctx: ExecContext) -> Dict[str, object]:
        return {
            "considered": ctx.considered,
            "routed": _count(ctx.routed),
            "survivors": _count(ctx.survivors),
        }

    def report_lines(self) -> Tuple[str, ...]:
        if self.router is None or self.memo is None:
            return ()
        return (f"route memo         {len(self.memo)} unique predicates",)


class ResultCacheStage(Stage):
    """Generation-keyed full-result memoization.

    ``run`` consults the cache (a hit fills ``ctx.stats`` and every
    downstream compute stage no-ops — on the sharded configuration no
    shard ever sees the query); ``finish`` publishes a freshly
    computed result.  ``generation`` is fixed for single-layout
    configurations and read off the context when the arbiter chose the
    layout (``generation=None``).
    """

    name = "result_cache"

    def __init__(
        self,
        cache: Optional[ResultCache],
        generation: Optional[int] = 0,
        profile: object = None,
    ) -> None:
        self.cache = cache
        self.generation = generation
        self.profile = profile

    def _generation(self, ctx: ExecContext) -> int:
        return self.generation if self.generation is not None else ctx.generation

    def run(self, ctx: ExecContext) -> None:
        # Stamp the answering generation even when caching is off:
        # ServeResult.generation and the record sink rely on it to
        # attribute every result, cached or not.
        gen = self._generation(ctx)
        ctx.generation = gen
        if self.cache is None:
            return
        hit = self.cache.get(ctx.query, gen, self.profile)
        if hit is not None:
            ctx.stats = hit.stats
            ctx.cached = True
            if ctx.routed is None:
                ctx.routed = hit.routed_block_ids

    def finish(self, ctx: ExecContext) -> None:
        if self.cache is None or ctx.cached or ctx.stats is None:
            return
        self.cache.put(
            ctx.query,
            self._generation(ctx),
            CachedResult(ctx.stats, ctx.routed),
            self.profile,
        )

    def span_attrs(self, ctx: ExecContext) -> Dict[str, object]:
        return {"hit": ctx.cached, "generation": ctx.generation}

    def publish(self, registry: object, **labels: object) -> None:
        if self.cache is not None:
            self.cache.publish(registry, **labels)

    def report_lines(self) -> Tuple[str, ...]:
        if self.cache is None:
            return ()
        return self.cache.report_lines(self.generation)


class ScanStage(Stage):
    """Scan the survivor list on one engine (the single-layout path).

    With ``engine=None`` the engine comes from the context's arbitrated
    :class:`~repro.exec.context.LayoutBinding` (multi-layout serving).
    """

    name = "scan"

    def __init__(self, engine: Optional[ScanEngine] = None) -> None:
        self.engine = engine

    def _engine(self, ctx: ExecContext) -> ScanEngine:
        if ctx.binding is not None:
            return ctx.binding.engine
        assert self.engine is not None
        return self.engine

    def run(self, ctx: ExecContext) -> None:
        if ctx.stats is not None:
            return
        ctx.stats = self._engine(ctx).execute_pruned(
            ctx.query, ctx.survivors, ctx.considered
        )

    def span_attrs(self, ctx: ExecContext) -> Dict[str, object]:
        return _result_attrs(ctx)

    def collect(self, ctx: ExecContext) -> np.ndarray:
        """Matched row ids for an already-prepared context."""
        return self._engine(ctx).collect_row_ids(
            ctx.query, ctx.survivors, pruned=True
        )


class ScatterScanStage(Stage):
    """Split the survivors by owning shard, scan each shard's part,
    gather the parts.

    Shards are duck-typed records (``index``, ``store``, ``engine``,
    ``cache`` — in practice :class:`repro.serve.Shard`): the
    coordinator pipeline owns planning, routing, the survivor memo and
    the scheduler; a shard owns its blocks and its buffer pool, and
    this stage is the only code that scans one.

    Only shards owning surviving blocks see the query.  Each part runs
    on the calling coordinator worker: a gathered shard scan takes
    less time than handing it to another thread and waking the caller
    again, and with one interpreter lock the threads would not overlap
    anyway.  Each part's scan clock and counters land in a
    ``scan.shard<i>`` mark.  The stage also keeps the fan-out
    accounting (mean shards scanned per query — the partition-locality
    metric) and reports the topology.
    """

    name = "scan"
    span_name = "scatter_scan"

    def __init__(self, shards: Sequence[object], partition: str) -> None:
        self.shards = tuple(shards)
        self.partition = partition
        self._owner = {
            bid: i
            for i, shard in enumerate(self.shards)
            for bid in shard.store.block_ids
        }
        self._fanout_lock = threading.Lock()
        self._fanout_queries = 0
        self._fanout_shards = 0

    def _split(self, ctx: ExecContext) -> None:
        """Per-shard survivor lists, candidate counts and the indices
        of the shards owning at least one survivor."""
        per_shard = [[] for _ in self.shards]
        for bid in ctx.survivors:
            per_shard[self._owner[bid]].append(bid)
        ctx.per_shard = tuple(tuple(part) for part in per_shard)
        # Tree-backed, a shard's candidates are its survivors (one
        # pass routed and pruned); tree-less, all of its blocks.
        ctx.shard_considered = tuple(
            shard.store.num_blocks if ctx.routed is None else len(part)
            for shard, part in zip(self.shards, ctx.per_shard)
        )
        ctx.owners = tuple(i for i, part in enumerate(ctx.per_shard) if part)

    def run(self, ctx: ExecContext) -> None:
        if ctx.stats is not None:
            return
        t0 = now()
        self._split(ctx)
        parts = []
        for i in ctx.owners:
            t_part = now()
            part = self.shards[i].engine.execute_pruned(
                ctx.query, ctx.per_shard[i], ctx.shard_considered[i]
            )
            parts.append(part)
            # Per-shard attribution: dotted sub-keys under the stage's
            # timing (excluded from the sum-of-stages identity) plus
            # child trace spans, each the shard's own scan clock.
            ctx.mark(
                f"scan.shard{i}",
                t_part,
                part.wall_seconds,
                span=f"scatter_scan.shard{i}",
                parent="scatter_scan",
                shard=i,
                blocks_scanned=part.blocks_scanned,
                tuples_scanned=part.tuples_scanned,
                bytes_read=part.bytes_read,
                rows_returned=part.rows_returned,
            )
        ctx.parts = tuple(parts)
        ctx.scatter_seconds = now() - t0
        with self._fanout_lock:
            self._fanout_queries += 1
            self._fanout_shards += len(ctx.owners)

    def span_attrs(self, ctx: ExecContext) -> Dict[str, object]:
        return _result_attrs(ctx, shards=_count(ctx.owners) or 0)

    def collect(self, ctx: ExecContext) -> np.ndarray:
        """Matched row ids, unioned across owning shards."""
        self._split(ctx)
        parts = [
            self.shards[i].engine.collect_row_ids(
                ctx.query, ctx.per_shard[i], pruned=True
            )
            for i in ctx.owners
        ]
        if not parts:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(parts))

    # Fan-out observability -------------------------------------------

    def report_lines(self) -> Tuple[str, ...]:
        lines = [
            f"topology           {len(self.shards)} shards "
            f"({self.partition}), mean fan-out {self.mean_fanout:.2f}"
        ]
        for shard in self.shards:
            cache = shard.cache
            hit_rate = cache.stats().hit_rate if cache is not None else 0.0
            lines.append(
                f"  shard {shard.index:<2} {shard.store.num_blocks:>4} blocks  "
                f"hit rate {100 * hit_rate:.1f}%"
            )
        return tuple(lines)

    @property
    def mean_fanout(self) -> float:
        with self._fanout_lock:
            if self._fanout_queries == 0:
                return 0.0
            return self._fanout_shards / self._fanout_queries

    def reset(self) -> None:
        """Start a fresh fan-out window."""
        with self._fanout_lock:
            self._fanout_queries = 0
            self._fanout_shards = 0


class MergeStage(Stage):
    """Fold gathered per-shard stats into one bit-identical result.

    Scan totals sum (shards own disjoint blocks); the candidate count
    is the coordinator's deduped value; ``columns_read`` and
    ``modeled_ms`` are recomputed from the merged totals exactly as
    the unsharded scan computes them, so ``result_key()`` comes out
    bit-identical to single-service execution.  On single-engine
    configurations there are no parts and the stage is a no-op.
    """

    name = "merge"

    def __init__(self, profile: CostProfile, schema: Schema) -> None:
        self.profile = profile
        self.schema = schema

    def run(self, ctx: ExecContext) -> None:
        if ctx.stats is not None or ctx.parts is None:
            return
        query = ctx.query
        filter_columns = sorted(query.predicate.referenced_columns())
        scan_columns = sorted(set(filter_columns) | set(query.scan_columns()))
        if not self.profile.columnar:
            scan_columns = list(self.schema.column_names)
        blocks_scanned = sum(p.blocks_scanned for p in ctx.parts)
        tuples_scanned = sum(p.tuples_scanned for p in ctx.parts)
        ctx.stats = QueryStats(
            query_name=query.name,
            template=query.template,
            blocks_considered=ctx.considered,
            blocks_scanned=blocks_scanned,
            tuples_scanned=tuples_scanned,
            rows_returned=sum(p.rows_returned for p in ctx.parts),
            columns_read=len(scan_columns),
            modeled_ms=self.profile.modeled_ms(
                blocks_scanned=blocks_scanned,
                tuples_scanned=tuples_scanned,
                columns_read=len(scan_columns),
            ),
            wall_seconds=ctx.scatter_seconds,
            bytes_read=sum(p.bytes_read for p in ctx.parts),
        )

    def span_attrs(self, ctx: ExecContext) -> Dict[str, object]:
        return _result_attrs(ctx)


class RecordStage(Stage):
    """Feed the finished execution to an observability sink.

    The sink is duck-typed — anything with ``observe(ctx)`` qualifies
    (the adapt loop's :class:`~repro.adapt.reoptimize.Reoptimizer`
    in the library, a :class:`repro.adapt.log.QueryLog` in tests) so
    :mod:`repro.exec` never imports the control plane it feeds.  The
    stage is the optional tail of the single-layout configuration (the
    adaptive service's generations ask for it) and observes in
    ``finish``, after every other stage's ``finish``: ``ctx.stats``
    exists whether the result came from the cache or the scan, and the
    result cache already holds it — so a sink that swaps the layout
    (the adapt loop) purges this query's entry along with the rest of
    the old generation's.
    Sink failures must never fail the query — observation is strictly
    best-effort.
    """

    name = "record"

    def __init__(self, sink: object) -> None:
        self.sink = sink

    def run(self, ctx: ExecContext) -> None:
        """Nothing on the way down: the sink sees the finished query."""

    def finish(self, ctx: ExecContext) -> None:
        if ctx.stats is None:
            return
        try:
            self.sink.observe(ctx)
        except Exception:  # pragma: no cover - defensive: sinks are
            pass  # observability, not execution


# ----------------------------------------------------------------------
# Multi-layout arbitration
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArbiterChoice:
    """One memoized arbitration decision for a predicate shape."""

    index: int
    routed: Optional[Tuple[int, ...]]
    considered: int
    survivors: Tuple[int, ...]
    #: Per-layout ``(blocks surviving, estimated bytes scanned)``.
    scores: Tuple[Tuple[int, int], ...]


class ArbitrateStage(Stage):
    """Cost-model arbitration across several layouts.

    For each unique predicate, the query takes the one routing pass
    (:func:`route_and_count`) over every layout's pruning table; each
    layout is scored with the min-max stats as priors: **(blocks
    surviving, estimated bytes the filter columns occupy across those
    blocks)**.  Scores are compared lexicographically and the argmin
    layout wins; ties go to the earliest layout in the candidate list.
    The decision is deterministic for a fixed set of layouts, so the
    whole :class:`ArbiterChoice` is memoized per predicate.

    The winning layout is bound to the context and its generation keys
    the result cache downstream — so multi-layout serving reuses the
    exact cache semantics of single-layout serving.
    """

    name = "route"
    span_name = "arbitrate"

    def __init__(
        self,
        bindings: Sequence[LayoutBinding],
        memo: Optional[RouteMemo] = None,
    ) -> None:
        if not bindings:
            raise ValueError("ArbitrateStage needs at least one layout")
        self.bindings = tuple(bindings)
        self.memo = memo if memo is not None else RouteMemo()

    def choice_for(self, query: Query) -> ArbiterChoice:
        """The arbitration decision for a query — the public explain
        path facades read scores from."""
        return self.memo.get_or_compute(
            query.predicate, lambda: self._choose(query)
        )

    def run(self, ctx: ExecContext) -> None:
        choice = self.choice_for(ctx.query)
        binding = self.bindings[choice.index]
        ctx.binding = binding
        ctx.generation = binding.generation
        ctx.winner = binding.label
        ctx.routed = choice.routed
        ctx.considered = choice.considered
        ctx.survivors = choice.survivors

    def span_attrs(self, ctx: ExecContext) -> Dict[str, object]:
        return {
            "winner": ctx.winner,
            "generation": ctx.generation,
            "considered": ctx.considered,
            "survivors": _count(ctx.survivors),
        }

    def report_lines(self) -> Tuple[str, ...]:
        return (
            f"arbiter            {len(self.bindings)} layouts / "
            f"{len(self.memo)} unique predicates scored",
        )

    def _choose(self, query: Query) -> ArbiterChoice:
        """Route + score the query against every layout and keep the
        argmin layout's routing."""
        filter_columns = sorted(query.predicate.referenced_columns())
        routes, scores = [], []
        for binding in self.bindings:
            routed, considered, survivors = route_and_count(
                binding.router, binding.engine, query
            )
            bytes_est = binding.engine.decoded_nbytes(survivors, filter_columns)
            routes.append((routed, considered, survivors))
            scores.append((len(survivors), bytes_est))
        index = min(range(len(scores)), key=scores.__getitem__)
        return ArbiterChoice(index, *routes[index], scores=tuple(scores))
