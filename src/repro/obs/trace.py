"""Structured per-query tracing: every execution a traceable process.

A :class:`Tracer` turns each pipeline execution into one
:class:`Trace` — a stable trace id (query fingerprint + arrival
sequence number) plus one :class:`Span` per pipeline stage
(``plan``/``route``/``result_cache``/``scan``/``merge``, the
multi-layout ``arbitrate`` variant, per-shard ``scatter_scan.shard<i>``
child spans) — and the control plane records ``drift_check`` /
``rebuild`` / ``generation_swap`` control traces through the same
object.  Spans carry the stage's *avoided-work* attributes (generation,
blocks surviving, bytes scanned, cache hit, winning layout), so "why
did this query scan 40 blocks on generation 7 via shard 2?" is
answered by reading the trace, not a debugger.

Tracing is strictly opt-in and zero-cost when off: pipelines carry
``tracer=None`` by default and guard every touch with one ``is not
None`` check, so the differential suites (bit-identical results) and
the serving hot path are unaffected unless a tracer is attached.

Exports:

* :meth:`Tracer.write_jsonl` — one JSON object per line per trace
  (grep/jq-friendly);
* :meth:`Tracer.write_chrome_trace` — Chrome trace-event format
  (``ph: "X"`` complete events on a shared microsecond timeline),
  loadable directly in Perfetto / ``chrome://tracing``.

All span times are measured on the monotonic perf clock
(:func:`repro.obs.clock.now`); exports share that single timeline.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

from .clock import now, wall_time

__all__ = ["Span", "Trace", "TraceBuilder", "Tracer"]


@dataclass(frozen=True)
class Span:
    """One timed step inside a trace.

    ``parent`` names the enclosing span for child spans (a per-shard
    ``scatter_scan.shard3`` span carries ``parent="scan"``); top-level
    stage spans have ``parent=None``.
    """

    name: str
    #: Start on the monotonic perf clock (shared across all spans).
    start: float
    duration: float
    parent: Optional[str] = None
    attrs: Mapping[str, object] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, object]:
        d: Dict[str, object] = {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
        }
        if self.parent is not None:
            d["parent"] = self.parent
        if self.attrs:
            d["attrs"] = dict(self.attrs)
        return d


@dataclass(frozen=True)
class Trace:
    """One finished traced process (a served query, or a control-plane
    operation such as a drift check or a generation swap)."""

    trace_id: str
    #: ``"query"`` (pipeline execution) or ``"control"`` (adapt loop).
    kind: str
    #: The SQL text for query traces; the operation name for control.
    name: str
    start: float
    duration: float
    spans: Tuple[Span, ...] = ()
    attrs: Mapping[str, object] = field(default_factory=dict)
    #: OS thread that ran the traced process (trace-event ``tid``).
    thread_id: int = 0

    def span(self, name: str) -> Optional[Span]:
        """First span with the given name (``None`` when absent)."""
        for s in self.spans:
            if s.name == name:
                return s
        return None

    def child_spans(self, parent: str) -> Tuple[Span, ...]:
        return tuple(s for s in self.spans if s.parent == parent)

    def to_dict(self) -> Dict[str, object]:
        return {
            "trace_id": self.trace_id,
            "kind": self.kind,
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "attrs": dict(self.attrs),
            "spans": [s.to_dict() for s in self.spans],
        }


class TraceBuilder:
    """Mutable accumulator for one in-flight trace.

    A builder belongs to exactly one execution (pipeline contexts are
    never shared across queries), so it needs no lock of its own; the
    owning :class:`Tracer` synchronizes only the publish step.
    """

    __slots__ = ("_tracer", "seq", "kind", "name", "start", "_spans")

    def __init__(self, tracer: "Tracer", seq: int, kind: str, name: str) -> None:
        self._tracer = tracer
        self.seq = seq
        self.kind = kind
        self.name = name
        self.start = now()
        self._spans: list = []

    def add_span(
        self,
        name: str,
        start: float,
        duration: float,
        parent: Optional[str] = None,
        **attrs: object,
    ) -> None:
        self._spans.append(Span(name, start, duration, parent, attrs))

    def finish(self, fingerprint: object = None, **attrs: object) -> Trace:
        """Freeze and publish the trace.  ``fingerprint`` is any
        hashable query identity (e.g. the result-cache key); combined
        with the arrival sequence number it yields the stable trace
        id ``q<fingerprint hex>-<seq>``."""
        if self.kind == "query":
            fp = f"{hash(fingerprint) & 0xFFFFFFFFFFFFFFFF:016x}"
            trace_id = f"q{fp}-{self.seq}"
        else:
            trace_id = f"c{self.seq}-{self.name}"
        trace = Trace(
            trace_id=trace_id,
            kind=self.kind,
            name=self.name,
            start=self.start,
            duration=now() - self.start,
            spans=tuple(self._spans),
            attrs=attrs,
            thread_id=threading.get_ident(),
        )
        self._tracer._publish(trace)
        return trace


class Tracer:
    """Thread-safe collector of finished traces (bounded ring).

    One tracer serves a whole serving stack — single service, sharded
    coordinator, multi-layout arbiter, adaptive control plane — and
    survives generation hot-swaps (the adaptive facade hands the same
    tracer to every inner service it builds).
    """

    #: Pipelines check this instead of ``isinstance`` so any duck-typed
    #: tracer can plug in.
    enabled = True

    def __init__(self, capacity: int = 8192) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._lock = threading.Lock()
        self._seq = itertools.count()
        self._traces: "deque[Trace]" = deque(maxlen=capacity)
        self._dropped = 0
        self._finished = 0

    # -- recording ------------------------------------------------------

    def begin_query(self, sql: str) -> TraceBuilder:
        """Open a trace for one pipeline execution (called by the
        pipeline; every admitted query gets exactly one)."""
        return TraceBuilder(self, next(self._seq), "query", sql)

    def begin_control(self, name: str) -> TraceBuilder:
        """Open a trace for one control-plane operation."""
        return TraceBuilder(self, next(self._seq), "control", name)

    @contextmanager
    def control_span(self, name: str, **attrs: object):
        """Measure one control-plane operation as a single-span trace.

        Yields a mutable attribute dict the caller can fill with the
        operation's outcome (drift score, swap generation, ...); the
        attributes land on both the span and the trace.
        """
        builder = self.begin_control(name)
        out: Dict[str, object] = dict(attrs)
        t0 = now()
        try:
            yield out
        finally:
            builder.add_span(name, t0, now() - t0, **out)
            builder.finish(**out)

    def _publish(self, trace: Trace) -> None:
        with self._lock:
            if len(self._traces) == self._traces.maxlen:
                self._dropped += 1
            self._traces.append(trace)
            self._finished += 1

    # -- reading --------------------------------------------------------

    def traces(self, kind: Optional[str] = None) -> Tuple[Trace, ...]:
        """Finished traces, oldest first (optionally one kind only)."""
        with self._lock:
            snapshot = tuple(self._traces)
        if kind is None:
            return snapshot
        return tuple(t for t in snapshot if t.kind == kind)

    def query_traces(self) -> Tuple[Trace, ...]:
        return self.traces("query")

    def control_traces(self) -> Tuple[Trace, ...]:
        return self.traces("control")

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)

    @property
    def finished(self) -> int:
        """Traces ever finished (ring overwrites don't subtract)."""
        with self._lock:
            return self._finished

    @property
    def dropped(self) -> int:
        """Traces the bounded ring had to overwrite."""
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        with self._lock:
            self._traces.clear()

    # -- exports --------------------------------------------------------

    def jsonl_lines(self) -> Iterable[str]:
        """One compact JSON object per finished trace."""
        for trace in self.traces():
            yield json.dumps(trace.to_dict(), separators=(",", ":"))

    def write_jsonl(self, path) -> int:
        """Write the JSON-lines export; returns the trace count."""
        count = 0
        with open(path, "w") as f:
            for line in self.jsonl_lines():
                f.write(line + "\n")
                count += 1
        return count

    def chrome_trace_events(self) -> list:
        """Chrome trace-event ``"X"`` (complete) events, one per span
        plus one enclosing event per trace, on a shared microsecond
        timeline.  ``pid`` separates query vs control traces into two
        Perfetto process tracks; ``tid`` is the serving thread."""
        events = []
        for trace in self.traces():
            pid = 1 if trace.kind == "query" else 2
            common = {"pid": pid, "tid": trace.thread_id, "ph": "X"}
            events.append(
                {
                    **common,
                    "name": trace.name if trace.kind == "control" else "query",
                    "cat": trace.kind,
                    "ts": trace.start * 1e6,
                    "dur": trace.duration * 1e6,
                    "args": {"trace_id": trace.trace_id, **trace.attrs},
                }
            )
            for span in trace.spans:
                events.append(
                    {
                        **common,
                        "name": span.name,
                        "cat": f"{trace.kind}.stage",
                        "ts": span.start * 1e6,
                        "dur": span.duration * 1e6,
                        "args": {"trace_id": trace.trace_id, **span.attrs},
                    }
                )
        return events

    def write_chrome_trace(self, path) -> int:
        """Write the Perfetto-loadable trace-event file; returns the
        event count."""
        events = self.chrome_trace_events()
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "metadata": {"exported_unix": wall_time()},
        }
        with open(path, "w") as f:
            json.dump(doc, f)
        return len(events)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"Tracer({len(self._traces)}/{self.capacity} traces, "
                f"{self._finished} finished, {self._dropped} dropped)"
            )
