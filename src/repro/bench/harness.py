"""Experiment harness: build layouts, run workloads, compare.

Glue used by every ``benchmarks/`` module: materialize a baseline
partitioner's :class:`~repro.storage.blocks.BlockStore`, execute a
workload through the :class:`~repro.engine.executor.ScanEngine`, and
report both logical (access %) and physical (modeled runtime) metrics.
Qd-tree layouts are built through :meth:`repro.db.Database.build_layout`;
the :class:`~repro.db.LayoutHandle` it returns carries the same
``label`` / ``store`` / ``tree`` as a :class:`LayoutResult`, so both
go into :func:`logical_access_pct` and :func:`run_physical`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..core.router import QueryRouter
from ..core.tree import QdTree
from ..core.workload import Workload
from ..engine.executor import ScanEngine
from ..engine.profiles import SPARK_PARQUET, CostProfile
from ..engine.stats import WorkloadReport
from ..obs.clock import now
from ..storage.blocks import BlockStore
from ..storage.table import Table
from ..workloads.base import Dataset

__all__ = [
    "LayoutResult",
    "build_baseline_layout",
    "logical_access_pct",
    "run_physical",
]


@dataclass
class LayoutResult:
    """A materialized layout plus provenance."""

    label: str
    store: BlockStore
    tree: Optional[QdTree]
    build_seconds: float

    @property
    def num_blocks(self) -> int:
        return self.store.num_blocks


def materialize_tree(tree: QdTree, table: Table) -> BlockStore:
    """Freeze the tree over the full table and emit blocks."""
    bids = tree.freeze(table)
    return BlockStore.from_assignment(
        table, bids, descriptions=tree.leaf_descriptions()
    )


def build_baseline_layout(
    dataset: Dataset,
    partitioner,
    label: Optional[str] = None,
) -> LayoutResult:
    """Layout from any object with ``partition(table) -> bids``."""
    t0 = now()
    bids = partitioner.partition(dataset.table)
    build_seconds = now() - t0
    store = BlockStore.from_assignment(dataset.table, bids)
    return LayoutResult(
        label or getattr(partitioner, "name", "baseline"),
        store,
        None,
        build_seconds,
    )


def logical_access_pct(
    layout: LayoutResult,
    workload: Workload,
    use_routing: bool = True,
    num_advanced_cuts: int = 0,
) -> float:
    """Table-2-style % tuples accessed for a layout.

    Qd-tree layouts route queries through the tree (semantic
    descriptions + tightened min-max); baseline layouts rely on SMA
    pruning alone.
    """
    engine = ScanEngine(
        layout.store, SPARK_PARQUET, num_advanced_cuts=num_advanced_cuts
    )
    routed: Optional[List[Optional[Sequence[int]]]] = None
    if use_routing and layout.tree is not None:
        router = QueryRouter(layout.tree)
        routed = [router.route(q).block_ids for q in workload]
    stats = engine.execute_workload(workload, routed)
    report = WorkloadReport(layout.label, stats)
    return report.access_percentage(layout.store.logical_rows)


def run_physical(
    layout: LayoutResult,
    workload: Workload,
    profile: CostProfile = SPARK_PARQUET,
    use_routing: bool = True,
    num_advanced_cuts: int = 0,
) -> WorkloadReport:
    """Execute the workload physically; returns the full report."""
    engine = ScanEngine(layout.store, profile, num_advanced_cuts=num_advanced_cuts)
    routed: Optional[List[Optional[Sequence[int]]]] = None
    if use_routing and layout.tree is not None:
        router = QueryRouter(layout.tree)
        routed = [router.route(q).block_ids for q in workload]
    stats = engine.execute_workload(workload, routed)
    suffix = "" if use_routing and layout.tree is not None else " (no route)"
    return WorkloadReport(layout.label + suffix, stats)
