"""Online ingestion with a learned partitioning function (Problem 2).

Paper Sec. 2.1 distinguishes static layout (Problem 1) from *learned*
partitioning applied to future data (Problem 2): learn a partitioning
function offline, then route newly ingested tuples through it, saving
reshuffling cost.  A frozen qd-tree *is* that function — lightweight to
evaluate and complete by construction.

:class:`IngestionPipeline` wraps a learned tree with per-leaf append
buffers: arriving batches are routed (vectorized), buffered per block,
and flushed to immutable block *segments* once a buffer reaches the
segment size (the paper notes large blocks may be stored as multiple
physical segments).  The pipeline tracks throughput and lets callers
evaluate layout quality on the data that actually arrived — supporting
the paper's assumption check that current tuples distribute like the
next ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from ..obs.clock import now
from ..storage.blocks import Block, BlockStore
from ..storage.table import Table, group_rows
from .tree import QdTree
__all__ = ["SegmentInfo", "IngestionPipeline"]


@dataclass(frozen=True)
class SegmentInfo:
    """One flushed physical segment of a logical block."""

    block_id: int
    segment_index: int
    num_rows: int


class IngestionPipeline:
    """Routes arriving batches through a learned qd-tree into blocks.

    Parameters
    ----------
    tree:
        A constructed (typically frozen) qd-tree; its leaf BIDs define
        the logical blocks.
    segment_rows:
        Rows per physical segment; a leaf buffer flushes when it
        reaches this size (remaining rows flush on :meth:`finish`).
    """

    def __init__(self, tree: QdTree, segment_rows: int = 100_000) -> None:
        if segment_rows < 1:
            raise ValueError("segment_rows must be >= 1")
        if any(leaf.block_id is None for leaf in tree.leaves()):
            tree.assign_block_ids()
        self.tree = tree
        self.segment_rows = segment_rows
        self._buffers: Dict[int, List[Table]] = {}
        self._buffered_rows: Dict[int, int] = {}
        self._segments: List[Tuple[SegmentInfo, Table]] = []
        self._segment_counter: Dict[int, int] = {}
        self._rows_ingested = 0
        self._routing_seconds = 0.0

    # ------------------------------------------------------------------

    def route(self, batch: Table) -> np.ndarray:
        """Evaluate the learned partitioning function on one batch:
        per-row BIDs, with routing-throughput accounting but WITHOUT
        buffering the rows.  Callers that materialize blocks
        themselves (e.g. :meth:`repro.db.Database.ingest`, which
        merges into an existing store) use this; :meth:`ingest` layers
        the per-leaf segment buffering on top.
        """
        t0 = now()
        lut = np.full(self.tree.num_nodes, -1, dtype=np.int64)
        for leaf in self.tree.leaves():
            assert leaf.block_id is not None
            lut[leaf.node_id] = leaf.block_id
        leaf_ids = self.tree.route_columns(batch.columns(), batch.num_rows)
        bids = lut[leaf_ids]
        self._routing_seconds += now() - t0
        self._rows_ingested += batch.num_rows
        return bids

    def ingest(self, batch: Table) -> np.ndarray:
        """Route one batch into the leaf buffers; returns its per-row
        BIDs."""
        bids = self.route(batch)
        for bid, positions in group_rows(bids):
            self._buffers.setdefault(bid, []).append(batch.take(positions))
            self._buffered_rows[bid] = self._buffered_rows.get(bid, 0) + len(positions)
            while self._buffered_rows[bid] >= self.segment_rows:
                self._flush_segment(bid)
        return bids

    def _flush_segment(self, bid: int) -> None:
        """Cut one ``segment_rows``-sized segment from a leaf buffer."""
        parts = self._buffers[bid]
        merged = parts[0]
        for part in parts[1:]:
            merged = merged.concat(part)
        segment = merged.slice(0, min(self.segment_rows, merged.num_rows))
        remainder = merged.slice(segment.num_rows, merged.num_rows)
        index = self._segment_counter.get(bid, 0)
        self._segment_counter[bid] = index + 1
        self._segments.append(
            (SegmentInfo(bid, index, segment.num_rows), segment)
        )
        if remainder.num_rows:
            self._buffers[bid] = [remainder]
            self._buffered_rows[bid] = remainder.num_rows
        else:
            self._buffers[bid] = []
            self._buffered_rows[bid] = 0

    def finish(self) -> BlockStore:
        """Flush all buffers and materialize the final block store.

        Segments of one logical block are concatenated into one
        :class:`Block` (the engine scans whole blocks; segmentation is
        a storage detail)."""
        for bid in list(self._buffers):
            while self._buffered_rows.get(bid, 0) > 0:
                self._flush_segment(bid)
        by_block: Dict[int, List[Table]] = {}
        for info, segment in self._segments:
            by_block.setdefault(info.block_id, []).append(segment)
        descriptions = self.tree.leaf_descriptions()
        blocks = []
        for bid, segments in sorted(by_block.items()):
            merged = segments[0]
            for segment in segments[1:]:
                merged = merged.concat(segment)
            blocks.append(
                Block(bid, merged, description=descriptions.get(bid))
            )
        schema = self.tree.schema
        return BlockStore(schema, blocks, logical_rows=self._rows_ingested)

    # ------------------------------------------------------------------

    @property
    def rows_ingested(self) -> int:
        return self._rows_ingested

    @property
    def segments(self) -> List[SegmentInfo]:
        return [info for info, _ in self._segments]

    @property
    def routing_throughput(self) -> float:
        """Records routed per second of routing time."""
        if self._routing_seconds == 0:
            return float("inf")
        return self._rows_ingested / self._routing_seconds

    def buffered_rows(self) -> int:
        """Rows waiting in unflushed buffers."""
        return sum(self._buffered_rows.values())
