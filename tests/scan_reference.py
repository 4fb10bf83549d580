"""The per-block scan: the reference the tests hold
:class:`repro.engine.ScanEngine`'s gathered scan to.

A scan-oriented engine reads every surviving block in full and
evaluates the query's filter over its rows.  Written here one block at
a time — decode the block's filter columns, evaluate, count — it is
the obvious shape of that loop.  The library evaluates the predicate
once per slab of concatenated blocks instead; this loop is kept as the
oracle the slab scan must agree with field for field.
"""

from typing import Callable, Mapping, Sequence

import numpy as np

from repro.core.workload import Query
from repro.engine import QueryStats, ScanEngine

__all__ = ["reference_row_ids", "reference_scan"]


#: ``(block, names) -> {name: decoded array}``: a block's own decode by
#: default; ``BlockCache.read_columns`` reads through a buffer pool.
Reader = Callable[[object, Sequence[str]], Mapping[str, np.ndarray]]


def _decode(block, names: Sequence[str]) -> Mapping[str, np.ndarray]:
    return block.read_columns(names)


def _evaluate(query: Query, block, read: Reader) -> np.ndarray:
    names = sorted(query.predicate.referenced_columns())
    if not names:
        # a column-free predicate is one constant over the block's rows
        holds = bool(query.predicate.evaluate({"": np.zeros(1)})[0])
        return np.full(block.num_rows, holds)
    return query.predicate.evaluate(read(block, names))


def reference_scan(
    engine: ScanEngine,
    query: Query,
    survivors: Sequence[int],
    considered: int,
    read: Reader = _decode,
) -> QueryStats:
    """``engine.execute_pruned(query, survivors, considered)``, one
    block at a time (``wall_seconds`` is 0)."""
    filter_columns = sorted(query.predicate.referenced_columns())
    scan_columns = sorted(set(filter_columns) | set(query.scan_columns()))
    if not engine.profile.columnar:
        scan_columns = list(engine.store.schema.column_names)
    tuples_scanned = rows_returned = bytes_read = 0
    for block in engine.store.blocks(survivors):
        tuples_scanned += block.num_rows
        rows_returned += int(_evaluate(query, block, read).sum())
        bytes_read += block.decoded_nbytes(filter_columns)
    return QueryStats(
        query_name=query.name,
        template=query.template,
        blocks_considered=considered,
        blocks_scanned=len(survivors),
        tuples_scanned=tuples_scanned,
        rows_returned=rows_returned,
        columns_read=len(scan_columns),
        modeled_ms=engine.profile.modeled_ms(
            blocks_scanned=len(survivors),
            tuples_scanned=tuples_scanned,
            columns_read=len(scan_columns),
        ),
        wall_seconds=0.0,
        bytes_read=bytes_read,
    )


def reference_row_ids(
    engine: ScanEngine,
    query: Query,
    survivors: Sequence[int],
    read: Reader = _decode,
) -> np.ndarray:
    """``engine.collect_row_ids(query, survivors, pruned=True)``, one
    block at a time."""
    matched = [
        block.row_ids[_evaluate(query, block, read)]
        for block in engine.store.blocks(survivors)
    ]
    if not matched:
        return np.empty(0, dtype=np.int64)
    return np.unique(np.concatenate(matched))
