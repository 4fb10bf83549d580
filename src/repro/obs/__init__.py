"""repro.obs — observability: tracing, metrics registry, trajectories.

Five seams, all opt-in and zero-cost when unused:

* :mod:`repro.obs.trace` — per-query :class:`Trace`/:class:`Span`
  recording with JSON-lines and Chrome trace-event (Perfetto) export;
* :mod:`repro.obs.stats` — the declare-once :class:`Stats` base:
  a resource's counters are fields of one dataclass, and its window
  (``since``), shard aggregate (``merged``) and export rows are
  derived from the declaration;
* :mod:`repro.obs.registry` — labelled views over those stats,
  exported as Prometheus text or JSON;
* :mod:`repro.obs.bench` — schema-versioned ``BENCH_<scenario>.json``
  trajectory files for PR-over-PR perf tracking;
* :mod:`repro.obs.clock` — the sanctioned monotonic/wall clocks.
"""

from .bench import (
    BENCH_SCHEMA_VERSION,
    bench_document,
    bench_path,
    plain,
    validate_bench,
    write_bench,
)
from .clock import now, wall_time
from .registry import MetricsRegistry, Sample
from .stats import Stats, counter, gauge
from .trace import Span, Trace, TraceBuilder, Tracer

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "MetricsRegistry",
    "Sample",
    "Span",
    "Stats",
    "Trace",
    "TraceBuilder",
    "Tracer",
    "bench_document",
    "bench_path",
    "counter",
    "gauge",
    "now",
    "plain",
    "validate_bench",
    "wall_time",
    "write_bench",
]
