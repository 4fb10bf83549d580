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

A scan gathers: one batched read fetches every survivor's filter
columns (through the engine's :data:`ColumnReader` — a serving tier's
buffer pool), the blocks' arrays are concatenated into slabs of at
most :data:`_SLAB_ROWS` rows, and the predicate is evaluated once per
slab, not once per block — every retrieved block is still fully
scanned, as in scan-oriented processing.  Tuples scanned and bytes
read are sums over per-store row and decoded-byte arrays the engine
keeps, so per-query statistics (blocks/tuples scanned, modeled and
wall-clock runtime) cost a few array sums, not a pass over blocks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..core.predicates import Predicate
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

#: Pluggable column-read path: ``(blocks, column names) -> {name:
#: [decoded array per block]}``, one list entry per block in the order
#: given.  The default decodes from the blocks' encoded chunks; a
#: serving tier substitutes a buffer-pool read (see
#: :meth:`repro.serve.BlockCache.read_blocks`) so cached and uncached
#: scans share one execution path.
ColumnReader = Callable[
    [Sequence[Block], Sequence[str]], Mapping[str, List[np.ndarray]]
]

#: Rows a scan concatenates before evaluating the predicate once: big
#: enough that a slab is a few numpy calls per predicate node, small
#: enough that its transient copies stay a few hundred KB.  A block
#: larger than a slab is evaluated on its own.
_SLAB_ROWS = 16384


def default_column_reader(
    blocks: Sequence[Block], names: Sequence[str]
) -> Dict[str, List[np.ndarray]]:
    """The uncached read path: decode straight from the blocks."""
    return {name: [block.read_column(name) for block in blocks] for name in names}


def slab_bounds(rows: np.ndarray) -> List[Tuple[int, int]]:
    """``[start, stop)`` position ranges cutting a run of blocks with
    ``rows[i]`` rows each into consecutive slabs of at most
    :data:`_SLAB_ROWS` rows (a larger block forms a slab of its own)."""
    ends = np.cumsum(rows).tolist()
    bounds = []
    start, base = 0, 0
    while start < len(ends):
        stop = max(bisect_right(ends, base + _SLAB_ROWS), start + 1)
        bounds.append((start, stop))
        base = ends[stop - 1]
        start = stop
    return bounds


def _joined(arrays: Sequence[np.ndarray]) -> np.ndarray:
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


@dataclass(slots=True)
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
        #: Per-store arrays in BID order: a block's position, its rows,
        #: and (per column, filled on first use) its decoded bytes —
        #: what a scan's counters are summed from.
        self._blocks = store.blocks()
        self._position = {b.block_id: i for i, b in enumerate(self._blocks)}
        self._rows = np.array([b.num_rows for b in self._blocks], dtype=np.int64)
        self._nbytes: Dict[str, np.ndarray] = {}
        #: The stats-only pruning table, built on first use: only a
        #: tree-less layout (and the legacy ``execute(query, bids)``
        #: entry point) prunes here — a tree-backed pipeline gets its
        #: survivors from the router's single pass, so constructing an
        #: engine (one per shard) walks no block metadata.  Threads
        #: racing the first use build equal tables; the last assignment
        #: wins.
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

    def decoded_nbytes(self, block_ids: Iterable[int], names: Sequence[str]) -> int:
        """Bytes the named columns of the given blocks occupy once
        decoded (BIDs absent from the store count nothing)."""
        return self._nbytes_at(self._locate(block_ids)[1], names)

    def _locate(self, block_ids: Iterable[int]) -> Tuple[List[Block], np.ndarray]:
        """The store's blocks among ``block_ids`` — deduped, in BID
        order, as :meth:`BlockStore.blocks` returns them — and their
        positions in the per-store arrays."""
        wanted = sorted(self._store_bids.intersection(block_ids))
        positions = list(map(self._position.__getitem__, wanted))
        blocks = list(map(self._blocks.__getitem__, positions))
        return blocks, np.array(positions, dtype=np.intp)

    def _nbytes_at(self, positions: np.ndarray, names: Sequence[str]) -> int:
        total = 0
        for name in names:
            nbytes = self._nbytes.get(name)
            if nbytes is None:
                # Threads racing the first use compute equal arrays.
                nbytes = np.array(
                    [b.decoded_nbytes((name,)) for b in self._blocks],
                    dtype=np.int64,
                )
                self._nbytes[name] = nbytes
            total += int(nbytes[positions].sum())
        return total

    def _matches(
        self,
        predicate: Predicate,
        names: Sequence[str],
        blocks: Sequence[Block],
        rows: np.ndarray,
    ) -> Iterator[Tuple[int, int, np.ndarray]]:
        """``(start, stop, mask)`` per slab of ``blocks`` (``rows``
        rows each): one batched read of every block's filter columns
        ``names``, then one predicate evaluation per slab, ``mask``
        covering the slab's rows in block order."""
        data = self._column_reader(blocks, names) if names and blocks else {}
        for start, stop in slab_bounds(rows):
            if names:
                mask = predicate.evaluate(
                    {name: _joined(arrays[start:stop]) for name, arrays in data.items()}
                )
            else:
                # A column-free predicate (TRUE, NOT TRUE) is one
                # constant: test it on one dummy row.
                holds = bool(predicate.evaluate({"": np.zeros(1)})[0])
                mask = np.full(int(rows[start:stop].sum()), holds)
            yield start, stop, mask

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
            survivors = block_ids
        else:
            survivors = self.prune_blocks(query, block_ids)
        blocks, positions = self._locate(survivors)
        for block in blocks:
            if block.row_ids is None:
                raise ValueError(
                    f"block {block.block_id} carries no row-id provenance"
                )
        row_ids = [block.row_ids for block in blocks]
        names = sorted(query.predicate.referenced_columns())
        matched = [
            _joined(row_ids[start:stop])[mask]
            for start, stop, mask in self._matches(
                query.predicate, names, blocks, self._rows[positions]
            )
        ]
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
        return self._scan(query, survivors, blocks_considered)

    def _scan(
        self,
        query: Query,
        survivors: Sequence[int],
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
        blocks, positions = self._locate(survivors)
        rows = self._rows[positions]
        rows_returned = sum(
            int(np.count_nonzero(mask))
            for _, _, mask in self._matches(
                query.predicate, filter_columns, blocks, rows
            )
        )
        tuples_scanned = int(rows.sum())
        bytes_read = self._nbytes_at(positions, filter_columns)
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
