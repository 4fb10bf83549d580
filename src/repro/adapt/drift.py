"""Workload-drift detection: when does the live mix stop resembling
the mix the layout was built for?

:class:`DriftDetector` holds the layout's build-time
:class:`~repro.adapt.signature.WorkloadSignature` (persisted in
layout metadata, so it survives ``Database.save``/``open``) and scores
the divergence between it and the most recent window of the
:class:`~repro.adapt.log.QueryLog`.  The score is total-variation
distance in ``[0, 1]``; crossing ``threshold`` with at least
``min_records`` of evidence arms the re-optimizer.

After a successful swap the detector is :meth:`rebase`-d onto the
window the new layout was built from — it was built *for* that mix,
so it becomes the new "no drift" reference.
"""

from __future__ import annotations

import threading
from typing import Optional

from .log import QueryLog
from .signature import WorkloadSignature, divergence

__all__ = ["DriftDetector"]


class DriftDetector:
    """Windowed divergence between a baseline and the live mix.

    Parameters
    ----------
    baseline:
        The build-time workload signature (empty signature = never
        fires; there is nothing to drift *from*).
    threshold:
        Divergence in ``[0, 1]`` at which :meth:`drifted` turns true.
    min_records:
        Evidence floor: the live window must hold at least this many
        records before any score counts (a two-query window trivially
        diverges from anything).
    """

    def __init__(
        self,
        baseline: Optional[WorkloadSignature] = None,
        threshold: float = 0.3,
        min_records: int = 32,
    ) -> None:
        if not 0.0 < threshold <= 1.0:
            raise ValueError("threshold must be in (0, 1]")
        if min_records < 1:
            raise ValueError("min_records must be >= 1")
        self._lock = threading.Lock()
        self._baseline = baseline or WorkloadSignature()
        self.threshold = threshold
        self.min_records = min_records
        self._last_score = 0.0

    @property
    def baseline(self) -> WorkloadSignature:
        with self._lock:
            return self._baseline

    @property
    def last_score(self) -> float:
        """The most recently computed drift score."""
        with self._lock:
            return self._last_score

    def score(self, log: QueryLog) -> float:
        """Divergence between the baseline and the log's window (the
        whole ring; ``0.0`` until it holds ``min_records`` records)."""
        live = log.signature()
        value = (
            0.0
            if live.weight < self.min_records
            else divergence(self.baseline, live)
        )
        with self._lock:
            self._last_score = value
        return value

    def drifted(self, log: QueryLog) -> bool:
        """True when the live mix has moved past the threshold."""
        return self.score(log) >= self.threshold

    def rebase(self, baseline: WorkloadSignature) -> None:
        """Adopt a new reference mix (called after a layout swap: the
        new layout was built for the drifted mix, so that mix is now
        the expectation)."""
        with self._lock:
            self._baseline = baseline
            self._last_score = 0.0

    def __repr__(self) -> str:
        return (
            f"DriftDetector(threshold={self.threshold}, "
            f"last_score={self.last_score:.3f})"
        )
