"""repro.obs — observability: tracing, metrics registry.

Four seams, all opt-in and zero-cost when unused:

* :mod:`repro.obs.trace` — per-query :class:`Trace`/:class:`Span`
  recording with JSON-lines and Chrome trace-event (Perfetto) export;
* :mod:`repro.obs.stats` — the declare-once :class:`Stats` base:
  a resource's counters are fields of one dataclass, and its window
  (``since``), shard aggregate (``merged``) and export rows are
  derived from the declaration; :func:`plain` flattens a snapshot
  into the JSON document ``--json`` prints;
* :mod:`repro.obs.registry` — labelled views over those stats,
  exported as Prometheus text or JSON;
* :mod:`repro.obs.clock` — the sanctioned monotonic/wall clocks.
"""

from .clock import now, wall_time
from .registry import MetricsRegistry, Sample
from .stats import Stats, counter, gauge, plain
from .trace import Span, Trace, TraceBuilder, Tracer

__all__ = [
    "MetricsRegistry",
    "Sample",
    "Span",
    "Stats",
    "Trace",
    "TraceBuilder",
    "Tracer",
    "counter",
    "gauge",
    "now",
    "plain",
    "wall_time",
]
