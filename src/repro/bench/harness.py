"""Experiment harness: run a workload over a built layout.

Every layout a ``benchmarks/`` module compares — qd-trees and the
baselines alike — is built through
:meth:`repro.db.Database.build_layout`.  :func:`run_physical` executes
a workload over the :class:`~repro.db.LayoutHandle` it returns through
the :class:`~repro.engine.executor.ScanEngine` and reports both the
physical (modeled runtime) and the logical metric: Table 2's % of
tuples accessed is ``report.access_percentage(store.logical_rows)``.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from ..core.router import QueryRouter
from ..core.workload import Workload
from ..db.database import LayoutHandle
from ..engine.executor import ScanEngine
from ..engine.profiles import SPARK_PARQUET, CostProfile
from ..engine.stats import WorkloadReport

__all__ = ["run_physical"]


def run_physical(
    layout: LayoutHandle,
    workload: Workload,
    profile: CostProfile = SPARK_PARQUET,
    use_routing: bool = True,
    num_advanced_cuts: int = 0,
) -> WorkloadReport:
    """Execute the workload physically; returns the full report.

    Qd-tree layouts route queries through the tree (semantic
    descriptions + tightened min-max); baseline layouts rely on SMA
    pruning alone.
    """
    engine = ScanEngine(layout.store, profile, num_advanced_cuts=num_advanced_cuts)
    routed: Optional[List[Optional[Sequence[int]]]] = None
    if use_routing and layout.tree is not None:
        router = QueryRouter(layout.tree)
        routed = [router.route(q).block_ids for q in workload]
    stats = engine.execute_workload(workload, routed)
    suffix = "" if use_routing and layout.tree is not None else " (no route)"
    return WorkloadReport(layout.label + suffix, stats)
