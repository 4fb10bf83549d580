"""Scan-oriented query execution over a block store.

The engine executes a query in the paper's two modes:

* **qd-tree routing** (Sec. 3.3, the default in the paper's physical
  experiments): the caller supplies the pruned BID list obtained from
  :class:`~repro.core.router.QueryRouter` (the ``BID IN (...)``
  rewrite); min-max indexes still apply on top.
* **no route**: no BID filter; only the per-block min-max (SMA) index
  prunes — the baseline partition-pruning path every modern engine
  implements.

The min-max index is the stats-only
:func:`~repro.core.router.block_descriptions` table — the store's
blocks as stacked arrays — built the first time
:meth:`ScanEngine.prune_blocks` needs it and matched against a
predicate in one vector pass.  The query pipeline (:mod:`repro.exec`)
needs it only for tree-less layouts: a ``QueryRouter(tree, store)``
already routes over the same block stats, so its result goes straight
to :meth:`ScanEngine.execute_pruned`.

Every retrieved block is fully scanned (filter evaluated over its
rows), matching scan-oriented processing; per-query statistics capture
blocks/tuples scanned and both modeled and wall-clock runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Callable,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.router import PruningTable, block_descriptions
from ..core.workload import Query, Workload
from ..obs.clock import now
from ..storage.blocks import Block, BlockStore
from .profiles import CostProfile, SPARK_PARQUET

__all__ = [
    "ColumnReader",
    "QueryStats",
    "ScanEngine",
    "default_column_reader",
]

#: Pluggable column-read path: ``(block, column names) -> decoded
#: columns``.  The default decodes from the block's encoded chunks;
#: a serving tier substitutes a buffer-pool read (see
#: :class:`repro.serve.BlockCache`) so cached and uncached scans share
#: one execution path.
ColumnReader = Callable[[Block, Sequence[str]], Mapping[str, np.ndarray]]


def default_column_reader(
    block: Block, names: Sequence[str]
) -> Mapping[str, np.ndarray]:
    """The uncached read path: decode straight from the block."""
    return block.read_columns(names)


@dataclass
class QueryStats:
    """Accounting for one executed query."""

    query_name: str
    template: str
    blocks_considered: int
    blocks_scanned: int
    tuples_scanned: int
    rows_returned: int
    columns_read: int
    modeled_ms: float
    wall_seconds: float
    #: Decoded bytes the filter columns occupied in memory (0 for
    #: legacy call sites that never touch the serving tier).
    bytes_read: int = 0

    def result_key(self) -> Tuple:
        """Deterministic fields only — equal for any two executions of
        the same query on the same layout, regardless of timing or
        which read path (cached/uncached) served the columns."""
        return (
            self.query_name,
            self.template,
            self.blocks_considered,
            self.blocks_scanned,
            self.tuples_scanned,
            self.rows_returned,
            self.columns_read,
            self.modeled_ms,
        )


class ScanEngine:
    """Executes queries against a :class:`BlockStore` under a profile."""

    def __init__(
        self,
        store: BlockStore,
        profile: CostProfile = SPARK_PARQUET,
        num_advanced_cuts: int = 0,
        column_reader: Optional[ColumnReader] = None,
    ) -> None:
        self.store = store
        self.profile = profile
        self._num_advanced = num_advanced_cuts
        self._column_reader: ColumnReader = column_reader or default_column_reader
        self._store_bids = store.bid_set
        #: The stats-only pruning table, built on first use: only a
        #: tree-less layout (and the legacy ``execute(query, bids)``
        #: entry point) prunes here — a tree-backed pipeline gets its
        #: survivors from the router's single pass, so constructing an
        #: engine (one per shard) walks no blocks.  Threads racing the
        #: first use build equal tables; the last assignment wins.
        self._table: Optional[PruningTable] = None

    # ------------------------------------------------------------------

    def prune_blocks(
        self, query: Query, candidate_bids: Optional[Iterable[int]] = None
    ) -> List[int]:
        """BIDs surviving min-max pruning within the candidate set."""
        if self._table is None:
            self._table = block_descriptions(
                self.store,
                num_advanced_cuts=self._num_advanced,
                dictionaries=self.profile.block_dictionaries,
            )
        survivors = self._table.matching(query.predicate)
        if candidate_bids is None:
            return list(survivors)
        candidates = set(candidate_bids)
        return [bid for bid in survivors if bid in candidates]

    def collect_row_ids(
        self,
        query: Query,
        block_ids: Optional[Iterable[int]] = None,
        pruned: bool = False,
    ) -> np.ndarray:
        """Original-table row ids the query matches (sorted, deduped).

        Requires blocks built with row-id provenance (see
        :class:`~repro.storage.blocks.Block`); differential harnesses
        use this to prove two execution topologies return the same
        *rows*, not merely the same counts.  Deduplication makes the
        result well-defined under replicated layouts.  Pass
        ``pruned=True`` when ``block_ids`` is already an SMA-pruned
        survivor list (the serving tier memoizes one per predicate) to
        skip re-pruning.
        """
        if pruned and block_ids is not None:
            survivors = list(block_ids)
        else:
            survivors = self.prune_blocks(query, block_ids)
        filter_columns = sorted(query.predicate.referenced_columns())
        matched = []
        for block in self.store.blocks(survivors):
            if block.row_ids is None:
                raise ValueError(
                    f"block {block.block_id} carries no row-id provenance"
                )
            data = self._column_reader(block, filter_columns)
            mask = query.predicate.evaluate(data)
            matched.append(block.row_ids[mask])
        if not matched:
            return np.empty(0, dtype=np.int64)
        return np.unique(np.concatenate(matched))

    def execute(
        self, query: Query, block_ids: Optional[Iterable[int]] = None
    ) -> QueryStats:
        """Run one query; ``block_ids`` is the routed BID list, if any."""
        considered = (
            len(self._store_bids)
            if block_ids is None
            else len(set(block_ids) & self._store_bids)
        )
        t0 = now()
        survivors = self.prune_blocks(query, block_ids)
        return self._scan(query, survivors, considered, t0)

    def execute_pruned(
        self,
        query: Query,
        survivors: Sequence[int],
        blocks_considered: int,
    ) -> QueryStats:
        """Serving fast path: scan an already-pruned survivor list.

        ``survivors`` must be exactly what :meth:`prune_blocks` would
        return for this query (the pipeline's routing pass yields it,
        memoized per predicate fingerprint); ``blocks_considered`` is
        the candidate count so the stats match :meth:`execute` bit for
        bit on every deterministic field (``wall_seconds`` here covers
        the scan only).
        """
        return self._scan(query, list(survivors), blocks_considered)

    def _scan(
        self,
        query: Query,
        survivors: List[int],
        considered: int,
        t0: Optional[float] = None,
    ) -> QueryStats:
        if t0 is None:
            t0 = now()
        filter_columns = sorted(query.predicate.referenced_columns())
        scan_columns = sorted(
            set(filter_columns) | set(query.scan_columns())
        )
        if not self.profile.columnar:
            scan_columns = list(self.store.schema.column_names)
        tuples_scanned = 0
        rows_returned = 0
        bytes_read = 0
        for block in self.store.blocks(survivors):
            data = self._column_reader(block, filter_columns)
            mask = query.predicate.evaluate(data)
            tuples_scanned += block.num_rows
            rows_returned += int(mask.sum())
            bytes_read += block.decoded_nbytes(filter_columns)
        wall = now() - t0
        modeled = self.profile.modeled_ms(
            blocks_scanned=len(survivors),
            tuples_scanned=tuples_scanned,
            columns_read=len(scan_columns),
        )
        return QueryStats(
            query_name=query.name,
            template=query.template,
            blocks_considered=considered,
            blocks_scanned=len(survivors),
            tuples_scanned=tuples_scanned,
            rows_returned=rows_returned,
            columns_read=len(scan_columns),
            modeled_ms=modeled,
            wall_seconds=wall,
            bytes_read=bytes_read,
        )

    def execute_workload(
        self,
        workload: Workload,
        routed_bids: Optional[Sequence[Optional[Sequence[int]]]] = None,
    ) -> List[QueryStats]:
        """Run every query; ``routed_bids[i]`` is query *i*'s BID list
        (``None`` entries fall back to no-route SMA pruning)."""
        if routed_bids is not None and len(routed_bids) != len(workload):
            raise ValueError("routed_bids must align with the workload")
        stats = []
        for i, query in enumerate(workload):
            bids = routed_bids[i] if routed_bids is not None else None
            stats.append(self.execute(query, bids))
        return stats
