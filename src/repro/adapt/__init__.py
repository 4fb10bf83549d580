"""Online workload-drift adaptation: the control plane over serving.

The qd-tree paper builds a layout *once* from a training workload;
every layer grown since (serving, sharding, caching, multi-layout
arbitration) serves that frozen artifact.  This package closes the
loop the paper leaves as future work — **observe the live query
stream, rebuild and hot-swap layouts inline on the serving worker
that detects drift**:

* :class:`QueryLog` (:mod:`~repro.adapt.log`) — bounded, thread-safe
  ring of the last ``window`` statements' fingerprints, fed by the
  ``RecordStage`` at the tail of each of the adaptive service's
  single-layout pipelines;
* :class:`WorkloadSignature` / :func:`divergence`
  (:mod:`~repro.adapt.signature`) — comparable template/filter-column
  histograms; the build-time signature persists in layout metadata;
* :class:`DriftDetector` (:mod:`~repro.adapt.drift`) — windowed
  divergence between the build-time mix and the live log;
* :class:`Reoptimizer` (:mod:`~repro.adapt.reoptimize`) — drift-
  triggered inline rebuild through the strategy registry, offline
  blocks-scanned evaluation, install-or-discard via the existing
  generation lifecycle, and the :class:`AdaptSnapshot` ledger;
* :class:`AdaptiveService` (:mod:`~repro.adapt.service`) — the
  serving facade tying it together, constructed via
  :meth:`repro.db.Database.auto_adapt`.
"""

from .drift import DriftDetector
from .log import QueryLog, QueryRecord
from .reoptimize import (
    AdaptEvent,
    AdaptPolicy,
    AdaptSnapshot,
    Reoptimizer,
    offline_blocks_cost,
)
from .service import AdaptiveService
from .signature import WorkloadSignature, divergence, template_key

__all__ = [
    "AdaptEvent",
    "AdaptPolicy",
    "AdaptSnapshot",
    "AdaptiveService",
    "DriftDetector",
    "QueryLog",
    "QueryRecord",
    "Reoptimizer",
    "WorkloadSignature",
    "divergence",
    "offline_blocks_cost",
    "template_key",
]
