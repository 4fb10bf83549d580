"""The metrics registry: one way in, two exporters out.

The serving stack keeps its counters on declare-once stats dataclasses
(:mod:`repro.obs.stats`), next to the locks that guard them.
:class:`MetricsRegistry` is the one place they are all *viewed*
through:

* **views** — a resource's ``publish(registry, **labels)`` is one
  :meth:`MetricsRegistry.register_view` over ``stats().rows()``; the
  rows are produced at export time, so the stats dataclass stays the
  source of truth and the registry never duplicates a resource's
  locking (:meth:`MetricsRegistry.register_collector` is the same
  thing for callers that build :class:`Sample` objects themselves);
* **exporters** — :meth:`MetricsRegistry.to_prometheus_text` (the
  ``text/plain; version=0.0.4`` exposition format) and
  :meth:`MetricsRegistry.to_json` (one JSON document).

:meth:`repro.serve.Service.publish_metrics` loops over the resources'
``publish`` hooks; the CLI's ``metrics-export`` subcommand is the
first consumer.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["MetricsRegistry", "Sample"]

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    for name in labels:
        if not _LABEL_RE.match(name):
            raise ValueError(f"invalid label name {name!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


@dataclass(frozen=True)
class Sample:
    """One exported time-series point (collector callbacks yield
    these; view rows are turned into them at export time)."""

    name: str
    value: float
    labels: LabelKey = ()
    help: str = ""
    kind: str = "gauge"  # "counter" | "gauge"

    @staticmethod
    def of(
        name: str,
        value: float,
        labels: Optional[Mapping[str, object]] = None,
        help: str = "",
        kind: str = "gauge",
    ) -> "Sample":
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name {name!r}")
        return Sample(
            name=name,
            value=float(value),
            labels=_label_key(labels or {}),
            help=help,
            kind=kind,
        )


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
    _collectors: List[_CollectorEntry] = field(default_factory=list)

    def register_collector(
        self, fn: Callable[[], Iterable[Sample]], name: str = ""
    ) -> None:
        """Register a callback yielding :class:`Sample` rows at export
        time (the producer stays authoritative and is merely *viewed*
        through the registry)."""
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
        publish (``rows`` is ``lambda: self.stats().rows()``, see
        :class:`repro.obs.stats.Stats`), so none of them builds
        :class:`Sample` objects."""

        def collect() -> Iterable[Sample]:
            for sample, value, help_text, kind, *extra in rows():
                row_labels = {**labels, **extra[0]} if extra else labels
                yield Sample.of(sample, value, row_labels, help_text, kind)

        self.register_collector(collect, name=name)

    def collect(self) -> List[Sample]:
        """Every sample, in registration order.  A collector that
        raises is skipped (observability must never take the serving
        path down) but never silently: the failure is itself exported
        as ``repro_collector_errors``."""
        with self._lock:
            collectors = list(self._collectors)
        samples: List[Sample] = []
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
            family = sample.name
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
            entry = out.setdefault(
                sample.name,
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
            return len(self._collectors)


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
