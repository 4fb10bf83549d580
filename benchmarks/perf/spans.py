"""The benchmark's own tracing: spans recorded from outside the program.

The traced pass does not call ``service.execute_sql``; it walks
``service.pipeline.stages`` itself, with a ``query`` root span per
statement and one child span around each ``stage.run(ctx)`` and each
``stage.finish(ctx)``, and reads the counts (``routed``, ``survivors``,
``owners``, ``stats``) off the ``ExecContext`` at the same boundary.
Spans stay in memory and are written out when the run ends.  Nothing
under ``src/`` is instrumented; moving the benchmark onto spans the
program emits is a later change, and ``bench.stage_seconds_gap_frac``
is the evidence it will need.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

from repro.exec import ExecContext, ScatterScanStage

now = time.perf_counter

#: pipeline stage name -> layer (this repo's module) that does the work
STAGE_LAYER = {
    "plan": "sql.plan",
    "route": "core.route",
    "result_cache": "exec.result_cache",
    "prune": "engine.prune",
    "scan": "engine.scan",
    "merge": "exec.merge",
}
SCATTER_LAYER = "serve.shard.scatter"


def stage_layer(stage) -> str:
    if isinstance(stage, ScatterScanStage):
        return SCATTER_LAYER
    return STAGE_LAYER.get(stage.name, f"exec.stage.{stage.name}")


SPAN_FIELDS = (
    "trace_id", "span_id", "parent_id", "name", "start", "end", "counts"
)


class SpanRecorder:
    """In-memory span store (tuples in ``SPAN_FIELDS`` order, to keep
    the walk cheap).  Appending a tuple to a list is atomic
    under the interpreter lock, so client threads share one list; ids
    come from a locked counter."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self._ids = 0
        self._lock = threading.Lock()

    def new_id(self) -> int:
        with self._lock:
            self._ids += 1
            return self._ids

    def add(
        self,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        start: float,
        end: float,
        counts: Optional[Dict[str, float]] = None,
    ) -> None:
        self.spans.append(
            (trace_id, span_id, parent_id, name, start, end, counts)
        )

    @contextmanager
    def span(
        self, name: str, trace_id: int, parent_id: Optional[int] = None
    ) -> Iterator[int]:
        span_id = self.new_id()
        start = now()
        try:
            yield span_id
        finally:
            self.add(trace_id, span_id, parent_id, name, start, now())

    def seconds_by_name(self) -> Dict[str, float]:
        total: Dict[str, float] = defaultdict(float)
        for _, _, _, name, start, end, _ in self.spans:
            total[name] += end - start
        return total

    def write_jsonl(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for span in self.spans:
                record = dict(zip(SPAN_FIELDS, span))
                record["counts"] = record["counts"] or {}
                out.write(json.dumps(record) + "\n")


class TracedWalk:
    """Executes statements by walking a service's pipeline stages,
    recording one span per stage call and summing the counts."""

    def __init__(self, service, recorder: SpanRecorder) -> None:
        self.stages: Tuple = tuple(service.pipeline.stages)
        self.layers = [stage_layer(stage) for stage in self.stages]
        self.recorder = recorder
        self.counts: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()

    def __call__(self, sql: str) -> ExecContext:
        recorder = self.recorder
        trace_id = root_id = recorder.new_id()
        t_root = now()
        ctx = ExecContext(sql=sql, admitted_at=t_root)
        for hook in ("run", "finish"):
            for stage, layer in zip(self.stages, self.layers):
                span_id = recorder.new_id()
                t0 = now()
                getattr(stage, hook)(ctx)
                recorder.add(trace_id, span_id, root_id, layer, t0, now())
        stats = ctx.stats
        counts = {
            "routed": 0 if ctx.routed is None else len(ctx.routed),
            "cached": int(ctx.cached),
            "blocks_scanned": stats.blocks_scanned,
            "tuples_scanned": stats.tuples_scanned,
            "rows_returned": stats.rows_returned,
        }
        if not ctx.cached:
            # a cache hit skipped prune and scan: only executions that
            # did the work count towards those layers' ratios
            counts["executed"] = 1
            counts["routed_executed"] = counts["routed"]
            counts["survivors"] = _survivors(ctx)
            counts["tuples_executed"] = stats.tuples_scanned
            if ctx.owners is not None:
                counts["scattered"] = 1
                counts["fanout"] = len(ctx.owners)
        recorder.add(trace_id, root_id, None, "query", t_root, now(), counts)
        with self._lock:
            self.counts["queries"] += 1
            for key, value in counts.items():
                self.counts[key] += value
        return ctx


def _survivors(ctx: ExecContext) -> int:
    if ctx.per_shard is not None:
        return sum(len(part) for part in ctx.per_shard)
    return 0 if ctx.survivors is None else len(ctx.survivors)
