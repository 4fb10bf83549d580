"""The explicit per-query execution context pipeline stages share."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..core.router import QueryRouter
from ..core.workload import Query
from ..engine.executor import QueryStats, ScanEngine
from ..storage.blocks import BlockStore

__all__ = ["ExecContext", "LayoutBinding"]


@dataclass(frozen=True)
class LayoutBinding:
    """One layout's execution collaborators, as the pipeline sees them.

    The multi-layout arbiter holds one binding per candidate layout;
    :class:`~repro.exec.stages.ArbitrateStage` picks one per predicate
    and publishes it on the context, where the scan stage finds it.
    """

    label: str
    generation: int
    store: BlockStore
    engine: ScanEngine
    router: Optional[QueryRouter] = None


@dataclass
class ExecContext:
    """Everything one query accumulates as it travels the stages.

    A context is created per execution and never shared across
    queries; stages communicate exclusively through it, which is what
    makes each stage independently testable and each configuration a
    pure wiring exercise.
    """

    sql: str
    #: When the query was admitted (queue wait is part of latency).
    admitted_at: float
    #: Filled by :class:`~repro.exec.stages.PlanStage`.
    query: Optional[Query] = None
    #: Generation of the layout answering this query (fixed for
    #: single-layout configurations; chosen by the arbiter for multi).
    generation: int = 0
    #: The arbiter's chosen layout (``None`` outside multi-layout).
    binding: Optional[LayoutBinding] = None
    #: Label of the arbitration winner (``None`` outside multi-layout).
    winner: Optional[str] = None
    #: Routed BID list (``None`` for tree-less layouts).
    routed: Optional[Tuple[int, ...]] = None
    #: Candidate count, deduped against the full store.
    considered: int = 0
    #: BIDs to scan: what the routing pass left of the store.
    survivors: Optional[Tuple[int, ...]] = None
    #: Sharded path: ``survivors`` split by owning shard, per-shard
    #: candidate counts and the indices of shards owning a survivor.
    per_shard: Optional[Tuple[Tuple[int, ...], ...]] = None
    shard_considered: Optional[Tuple[int, ...]] = None
    owners: Optional[Tuple[int, ...]] = None
    #: Sharded path: gathered per-shard stats awaiting the merge.
    parts: Optional[Tuple[QueryStats, ...]] = None
    #: Wall seconds the scatter+gather took (merge stamps it into the
    #: merged stats, mirroring the single-engine scan's wall time).
    scatter_seconds: float = 0.0
    #: The finished result (set by cache hit, scan, or merge).
    stats: Optional[QueryStats] = None
    #: True when ``stats`` came from the result cache.
    cached: bool = False
    #: Per-stage wall seconds, keyed by stage name.  ``"queue"`` holds
    #: the scheduler queue wait; dotted keys (``"scan.shard2"``) are
    #: sub-attributions inside a stage and are excluded from the
    #: sum-of-stages ≈ latency identity.
    timings: Dict[str, float] = field(default_factory=dict)
    #: In-flight :class:`~repro.obs.trace.TraceBuilder` when the owning
    #: pipeline carries a tracer (``None`` otherwise — the zero-cost
    #: default).  Duck-typed so repro.exec never imports repro.obs at
    #: the type level; stages guard every touch with ``is not None``.
    trace: Optional[object] = None

    def mark(
        self,
        key: str,
        t0: float,
        elapsed: float,
        span: Optional[str] = None,
        parent: Optional[str] = None,
        **attrs: object,
    ) -> None:
        """Book one measured duration — the single writer of
        ``timings`` and of trace spans, so ``ServeResult.stage_seconds``
        and the trace are built by the same code.  ``elapsed`` adds to
        ``timings[key]``; when the query is traced and ``span`` names
        one, the same interval also becomes that span (a stage's
        ``finish`` time folds into its key without a second span)."""
        self.timings[key] = self.timings.get(key, 0.0) + elapsed
        if span is not None and self.trace is not None:
            self.trace.add_span(span, t0, elapsed, parent, **attrs)
