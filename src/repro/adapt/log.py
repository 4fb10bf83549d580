"""Query-log capture: the observed side of the adaptation loop.

:class:`QueryLog` is a bounded, thread-safe ring of
:class:`QueryRecord` — one statement's SQL and normalized filter
shape — holding the adaptive service's most recent statements: its
capacity is :attr:`AdaptPolicy.window
<repro.adapt.reoptimize.AdaptPolicy.window>`, the window the drift
check and the rebuild read.  The adaptive service's generations feed
it through the ``RecordStage`` at their pipeline's tail.  What a
query cost is in ``ServeResult.stats`` and its trace, not here.

The log answers two questions for the control plane:

* *what does live traffic look like?* — :meth:`signature` folds the
  most recent window into a
  :class:`~repro.adapt.signature.WorkloadSignature` the
  :class:`~repro.adapt.drift.DriftDetector` compares against the
  layout's build-time signature;
* *what would it cost to serve better?* — :meth:`statements` hands the
  window's SQL (frequency-weighted) to the
  :class:`~repro.adapt.reoptimize.Reoptimizer` as the training
  workload for a candidate layout.
"""

from __future__ import annotations

import threading
from collections import Counter, deque
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .signature import WorkloadSignature, template_key

__all__ = ["QueryLog", "QueryRecord"]


@dataclass(frozen=True)
class QueryRecord:
    """One served statement's fingerprint."""

    sql: str
    #: Canonical filter shape (:func:`~repro.adapt.signature.template_key`).
    template: str
    #: Columns the filter referenced (sorted).
    filter_columns: Tuple[str, ...]


class QueryLog:
    """Bounded thread-safe ring of the most recent query records.

    Implements the record-sink protocol (:meth:`observe`) the
    pipeline's ``RecordStage`` calls, so a log can be passed directly
    as :func:`~repro.exec.pipeline.single_layout_pipeline`'s
    ``record_sink=``.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._records: "deque[QueryRecord]" = deque(maxlen=capacity)

    # -- the RecordStage sink protocol ---------------------------------

    def observe(self, ctx) -> None:
        """Fold one finished :class:`~repro.exec.context.ExecContext`
        into the ring (duck-typed so this module never imports
        :mod:`repro.exec`)."""
        query = ctx.query
        if query is None:
            return
        self.append(
            QueryRecord(
                sql=ctx.sql,
                template=template_key(query),
                filter_columns=tuple(
                    sorted(query.predicate.referenced_columns())
                ),
            )
        )

    def append(self, record: QueryRecord) -> None:
        with self._lock:
            self._records.append(record)

    # -- reading the window --------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._records)

    def window(self, n: Optional[int] = None) -> Tuple[QueryRecord, ...]:
        """The ``n`` most recent records (default: the whole ring)."""
        with self._lock:
            records = tuple(self._records)
        if n is not None and n < len(records):
            records = records[-n:]
        return records

    def signature(self, n: Optional[int] = None) -> WorkloadSignature:
        """The live mix over the most recent window, as a signature.

        Goes through the same :meth:`WorkloadSignature.from_counts`
        constructor as the build-time side (no re-planning needed —
        the template/columns pair is everything ``from_queries`` would
        derive), so the two histograms are comparable by construction.
        """
        counts: Dict[Tuple[str, Tuple[str, ...]], int] = Counter(
            (r.template, r.filter_columns) for r in self.window(n)
        )
        return WorkloadSignature.from_counts(counts.items())

    def statements(
        self, n: Optional[int] = None
    ) -> List[Tuple[str, int]]:
        """Distinct SQL in the window with frequencies, most frequent
        first — the re-optimizer's training workload."""
        counts = Counter(r.sql for r in self.window(n))
        return counts.most_common()

    def __repr__(self) -> str:
        return f"QueryLog({len(self)}/{self.capacity} records)"
