"""The single-source-of-truth query execution pipeline.

Every way this codebase executes a query — the serial baseline, the
library path (``Database.execute``) and every
:class:`repro.serve.Service` topology (single layout, sharded
scatter-gather, multi-layout arbiter, adaptive) — is a thin
*configuration* of one staged :class:`QueryPipeline`::

    PlanStage -> RouteStage -> ResultCacheStage -> ScanStage -> MergeStage

Each stage is a small object operating on an explicit
:class:`ExecContext` (query fingerprint, layout generation, routed /
surviving block sets, per-stage timings).  Routing and min-max pruning
are one numpy pass (:func:`route_and_count`) over the layout
generation's pruning table (:func:`repro.core.router.block_descriptions`,
arrays over its blocks), so there is no prune stage.  Configurations differ only in which collaborators
a stage is given: the serial baseline routes from scratch on every
arrival (no memo, no cache); the library path adds the generation-keyed
result cache and a per-handle memo; the serving facade adds metrics;
the sharded coordinator swaps the scan stage for a scatter-gather over
per-shard engines; the multi-layout arbiter swaps the route stage
for a cost-model arbitration across several layouts (see
:class:`ArbitrateStage`).

The shared primitives the pipeline is built from — the routing memo,
the generation-keyed result cache, the admission-rejection error and
the :class:`ServeResult` envelope — live here too.
"""

from .context import ExecContext, LayoutBinding
from .errors import AdmissionRejected
from .memo import RouteMemo
from .pipeline import (
    QueryPipeline,
    ServeResult,
    multi_layout_pipeline,
    serial_pipeline,
    sharded_pipeline,
    single_layout_pipeline,
)
from .result_cache import CachedResult, ResultCache, ResultCacheStats
from .stages import (
    ArbitrateStage,
    MergeStage,
    PlanStage,
    RecordStage,
    ResultCacheStage,
    RouteStage,
    ScanStage,
    ScatterScanStage,
    Stage,
    route_and_count,
)

__all__ = [
    "AdmissionRejected",
    "ArbitrateStage",
    "CachedResult",
    "ExecContext",
    "LayoutBinding",
    "MergeStage",
    "PlanStage",
    "QueryPipeline",
    "RecordStage",
    "ResultCache",
    "ResultCacheStage",
    "ResultCacheStats",
    "RouteMemo",
    "RouteStage",
    "ScanStage",
    "ScatterScanStage",
    "ServeResult",
    "Stage",
    "multi_layout_pipeline",
    "route_and_count",
    "serial_pipeline",
    "sharded_pipeline",
    "single_layout_pipeline",
]
