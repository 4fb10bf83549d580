"""Concurrent query serving over learned layouts.

The paper evaluates layouts one query at a time; this subsystem turns
a finished layout into something that serves traffic.  There is one
serving surface, :class:`Service`: it owns a :mod:`repro.exec` query
pipeline (the plan/route/cache/scan/merge logic), a front
:class:`Scheduler`, a :class:`ServingMetrics` window and a flat list
of *resources* (everything holding counters or threads), and
implements the client calls, the replay drivers, ``snapshot`` /
``publish_metrics`` / ``report`` and ``close`` exactly once.  The
topologies are constructors that wire resources and pick the pipeline
configuration:

* :class:`LayoutService` — one layout, one engine, a memory-budgeted
  :class:`BlockCache` buffer pool.
* :class:`ShardedLayoutService` (:mod:`repro.serve.shard`) — the block
  store partitioned across N :class:`Shard` records (a store, its
  engine and its buffer pool; round-robin by BID or by qd-tree
  subtree) behind a scatter-gather coordinator whose scheduler is the
  tier's only pool; each query scans only the shards owning surviving
  blocks, and per-shard stats merge into one bit-identical result.
* :class:`MultiLayoutService` (:mod:`repro.serve.multi`) — the same
  table under several layouts at once, with a cost-model arbiter
  routing each query to the layout that scans the least
  (blocks-surviving × bytes-scanned argmin) and per-layout win counts
  in the metrics.
* :class:`repro.adapt.AdaptiveService` — a single layout that
  re-learns itself; one scheduler for its whole life, and a pipeline
  and buffer pool per generation.  Its query log and adaptation
  ledger are :mod:`repro.adapt`'s own: no other topology records.

:class:`~repro.exec.ResultCache` (:mod:`repro.exec.result_cache`)
layers full result memoization over the routing memo: finished
:class:`~repro.engine.executor.QueryStats` are keyed by (query
fingerprint, layout generation), so repeated queries skip scanning
entirely, and a generation change (ingest or layout swap
through :class:`repro.db.Database`) can never serve a stale result.
The cache's byte-bounded row-id store makes repeated
``collect_row_ids`` calls free as well.
"""

from .cache import BlockCache, CacheStats
from .metrics import MetricsSnapshot, ServingMetrics
from .multi import MultiLayoutService
from .scheduler import AdmissionRejected, Scheduler, SchedulerStats
from .service import (
    DEFAULT_CACHE_BUDGET,
    LayoutService,
    ReplayResult,
    Service,
    run_serial_baseline,
)
from .shard import Shard, ShardedLayoutService

__all__ = [
    "AdmissionRejected",
    "BlockCache",
    "DEFAULT_CACHE_BUDGET",
    "CacheStats",
    "LayoutService",
    "MetricsSnapshot",
    "MultiLayoutService",
    "ReplayResult",
    "Scheduler",
    "SchedulerStats",
    "Service",
    "ServingMetrics",
    "Shard",
    "ShardedLayoutService",
    "run_serial_baseline",
]
