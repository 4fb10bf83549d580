"""Online ingestion with a learned partitioning function (Problem 2).

Paper Sec. 2.1 distinguishes static layout (Problem 1) from *learned*
partitioning applied to future data (Problem 2): learn a partitioning
function offline, then route newly ingested tuples through it, saving
reshuffling cost.  A frozen qd-tree *is* that function — lightweight to
evaluate and complete by construction.

:class:`IngestionPipeline` evaluates it on arriving batches: per-row
BIDs through the same leaf -> BID table as
:meth:`~repro.core.tree.QdTree.route_to_blocks`.  It keeps no rows;
:meth:`repro.db.Database.ingest` merges the routed batch into a new
generation's block store.
"""

from __future__ import annotations

import numpy as np

from ..storage.table import Table
from .tree import QdTree

__all__ = ["IngestionPipeline"]


class IngestionPipeline:
    """Routes arriving batches through a learned qd-tree to BIDs.

    ``tree`` is a constructed (typically frozen) qd-tree; its leaf
    BIDs, assigned here if the tree has none yet, name the blocks.
    The tree is only read afterwards.
    """

    def __init__(self, tree: QdTree) -> None:
        if any(leaf.block_id is None for leaf in tree.leaves()):
            tree.assign_block_ids()
        self.tree = tree
        self._bids = tree.block_id_table()

    def route(self, batch: Table) -> np.ndarray:
        """Evaluate the learned partitioning function on one batch:
        per-row BIDs."""
        return self._bids[self.tree.route_table(batch)]
