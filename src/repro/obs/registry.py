"""The unified metrics registry: labeled counters, gauges, histograms.

Before this module, the serving stack reported its work through four
disconnected snapshot structs (``ServingMetrics``/``MetricsSnapshot``,
``CacheStats``, ``SchedulerStats``, ``AdaptSnapshot``) with no
machine-readable export.  :class:`MetricsRegistry` is the one place
they all publish into:

* **primitives** — :class:`Counter` (monotonic), :class:`Gauge`
  (point-in-time), :class:`Histogram` (bucketed distribution), each
  supporting Prometheus-style labels;
* **collectors** — existing stat providers register a zero-argument
  callback yielding :class:`Sample` rows at export time, so their
  snapshot dataclasses stay the source of truth (thin views, no
  behavior change) and the registry never duplicates their locking;
* **exporters** — :meth:`MetricsRegistry.to_prometheus_text` (the
  ``text/plain; version=0.0.4`` exposition format) and
  :meth:`MetricsRegistry.to_json` (one JSON document).

Every serving resource implements ``publish(registry, **labels)`` on
top of :meth:`MetricsRegistry.register_view`, and
:meth:`repro.serve.Service.publish_metrics` loops over them; the CLI's
``metrics-export`` subcommand and the ``BENCH_*.json`` trajectory
emitter (:mod:`repro.obs.bench`) are the first consumers.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Sample",
]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets (seconds-flavoured, Prometheus-style).
DEFAULT_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class Sample:
    """One exported time-series point (collector callbacks yield
    these; direct metrics are flattened into them at export time)."""

    name: str
    value: float
    labels: LabelKey = ()
    help: str = ""
    kind: str = "gauge"  # "counter" | "gauge" | "histogram"

    @staticmethod
    def of(
        name: str,
        value: float,
        labels: Optional[Mapping[str, object]] = None,
        help: str = "",
        kind: str = "gauge",
    ) -> "Sample":
        return Sample(
            name=name,
            value=float(value),
            labels=_label_key(labels or {}),
            help=help,
            kind=kind,
        )


class _Metric:
    """Shared label-map plumbing for the three primitives."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        self.name = name
        self.help = help
        self._lock = threading.Lock()
        self._series: Dict[LabelKey, float] = {}

    def _bump(self, labels: Mapping[str, object], value: float, add: bool) -> None:
        key = _label_key(labels)
        with self._lock:
            if add:
                self._series[key] = self._series.get(key, 0.0) + value
            else:
                self._series[key] = value

    def value(self, **labels: object) -> float:
        """Current value of one labeled series (0.0 when unseen)."""
        with self._lock:
            return self._series.get(_label_key(labels), 0.0)

    def samples(self) -> List[Sample]:
        with self._lock:
            series = dict(self._series)
        if not series:
            # A declared-but-untouched metric still exports one zero
            # sample, so dashboards see the series exists.
            series = {(): 0.0}
        return [
            Sample(self.name, value, key, self.help, self.kind)
            for key, value in sorted(series.items())
        ]


class Counter(_Metric):
    """Monotonically increasing count (queries served, bytes scanned)."""

    kind = "counter"

    def inc(self, value: float = 1.0, **labels: object) -> None:
        if value < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._bump(labels, value, add=True)


class Gauge(_Metric):
    """Point-in-time value that can go both ways (queue depth, drift)."""

    kind = "gauge"

    def set(self, value: float, **labels: object) -> None:
        self._bump(labels, float(value), add=False)

    def inc(self, value: float = 1.0, **labels: object) -> None:
        self._bump(labels, float(value), add=True)

    def dec(self, value: float = 1.0, **labels: object) -> None:
        self._bump(labels, -float(value), add=True)


@dataclass
class _HistogramSeries:
    bucket_counts: List[int]
    count: int = 0
    sum: float = 0.0


class Histogram(_Metric):
    """Cumulative-bucket distribution (latencies, span durations)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.buckets = bounds
        self._hseries: Dict[LabelKey, _HistogramSeries] = {}

    def observe(self, value: float, **labels: object) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._hseries.get(key)
            if series is None:
                series = _HistogramSeries([0] * len(self.buckets))
                self._hseries[key] = series
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    series.bucket_counts[i] += 1
            series.count += 1
            series.sum += value

    def series(self, **labels: object) -> Optional[_HistogramSeries]:
        with self._lock:
            found = self._hseries.get(_label_key(labels))
            if found is None:
                return None
            return _HistogramSeries(
                list(found.bucket_counts), found.count, found.sum
            )

    def samples(self) -> List[Sample]:
        """Flattened Prometheus shape: ``_bucket{le=...}`` (cumulative,
        plus ``+Inf``), ``_sum`` and ``_count`` per labeled series."""
        with self._lock:
            snapshot = {
                key: _HistogramSeries(list(s.bucket_counts), s.count, s.sum)
                for key, s in self._hseries.items()
            }
        out: List[Sample] = []
        for key, s in sorted(snapshot.items()):
            for bound, cumulative in zip(self.buckets, s.bucket_counts):
                le = ("le", _format_value(bound))
                out.append(
                    Sample(
                        f"{self.name}_bucket",
                        cumulative,
                        key + (le,),
                        self.help,
                        self.kind,
                    )
                )
            out.append(
                Sample(
                    f"{self.name}_bucket",
                    s.count,
                    key + (("le", "+Inf"),),
                    self.help,
                    self.kind,
                )
            )
            out.append(Sample(f"{self.name}_sum", s.sum, key, self.help, self.kind))
            out.append(
                Sample(f"{self.name}_count", s.count, key, self.help, self.kind)
            )
        return out


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


@dataclass
class _CollectorEntry:
    fn: Callable[[], Iterable[Sample]]
    name: str = ""


@dataclass
class MetricsRegistry:
    """One process-wide (or per-test) home for every exported metric."""

    _lock: threading.Lock = field(default_factory=threading.Lock)
    _metrics: "Dict[str, _Metric]" = field(default_factory=dict)
    _collectors: List[_CollectorEntry] = field(default_factory=list)

    # -- creation (get-or-create, kind-checked) ------------------------

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> _Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if not isinstance(existing, cls):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    # -- collectors (existing snapshot structs publish through these) --

    def register_collector(
        self, fn: Callable[[], Iterable[Sample]], name: str = ""
    ) -> None:
        """Register a callback yielding :class:`Sample` rows at export
        time.  This is how :class:`~repro.serve.metrics.ServingMetrics`,
        :class:`~repro.serve.cache.BlockCache`,
        :class:`~repro.serve.scheduler.Scheduler` and the adapt control
        plane publish — their snapshot dataclasses stay authoritative
        and are merely *viewed* through the registry."""
        with self._lock:
            self._collectors.append(_CollectorEntry(fn, name))

    def register_view(
        self,
        name: str,
        labels: Mapping[str, object],
        rows: Callable[[], Iterable[tuple]],
    ) -> None:
        """Register a collector from plain rows: ``rows()`` yields
        ``(sample name, value, help, kind)`` — optionally followed by a
        mapping of extra labels for that row — and every row is
        stamped with ``labels``.  The one way serving resources
        publish, so none of them builds :class:`Sample` objects."""

        def collect() -> Iterable[Sample]:
            for sample, value, help_text, kind, *extra in rows():
                row_labels = {**labels, **extra[0]} if extra else labels
                yield Sample.of(sample, value, row_labels, help_text, kind)

        self.register_collector(collect, name=name)

    def collect(self) -> List[Sample]:
        """Every sample: direct metrics first, then collector output.
        A collector that raises is skipped (observability must never
        take the serving path down) but never silently: the failure is
        itself exported as ``repro_collector_errors``."""
        with self._lock:
            metrics = list(self._metrics.values())
            collectors = list(self._collectors)
        samples: List[Sample] = []
        for metric in metrics:
            samples.extend(metric.samples())
        errors = 0
        for entry in collectors:
            try:
                samples.extend(entry.fn())
            except Exception:
                errors += 1
        if errors:
            samples.append(
                Sample.of(
                    "repro_collector_errors",
                    errors,
                    help="Collectors that raised during this export",
                    kind="gauge",
                )
            )
        return samples

    # -- exporters ------------------------------------------------------

    def to_prometheus_text(self) -> str:
        """The Prometheus text exposition format (version 0.0.4)."""
        by_family: "Dict[str, List[Sample]]" = {}
        meta: Dict[str, Tuple[str, str]] = {}
        for sample in self.collect():
            family = _family_name(sample)
            by_family.setdefault(family, []).append(sample)
            if family not in meta or not meta[family][0]:
                meta[family] = (sample.help, sample.kind)
        lines: List[str] = []
        for family in sorted(by_family):
            help_text, kind = meta[family]
            if help_text:
                lines.append(f"# HELP {family} {_escape_help(help_text)}")
            lines.append(f"# TYPE {family} {kind}")
            for sample in by_family[family]:
                lines.append(_render_sample(sample))
        return "\n".join(lines) + "\n"

    def to_json(self) -> Dict[str, object]:
        """One JSON document: ``{family: {help, type, samples: [...]}}``."""
        out: Dict[str, dict] = {}
        for sample in self.collect():
            family = _family_name(sample)
            entry = out.setdefault(
                family,
                {"help": sample.help, "type": sample.kind, "samples": []},
            )
            if not entry["help"] and sample.help:
                entry["help"] = sample.help
            entry["samples"].append(
                {
                    "name": sample.name,
                    "labels": dict(sample.labels),
                    "value": sample.value,
                }
            )
        return out

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics) + len(self._collectors)


def _family_name(sample: Sample) -> str:
    """Histogram ``_bucket``/``_sum``/``_count`` samples share one
    metric family for HELP/TYPE purposes."""
    if sample.kind == "histogram":
        for suffix in ("_bucket", "_sum", "_count"):
            if sample.name.endswith(suffix):
                return sample.name[: -len(suffix)]
    return sample.name


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _render_sample(sample: Sample) -> str:
    if sample.labels:
        labels = ",".join(
            f'{k}="{_escape_label(v)}"' for k, v in sample.labels
        )
        return f"{sample.name}{{{labels}}} {_format_value(sample.value)}"
    return f"{sample.name} {_format_value(sample.value)}"
