"""Golden test: one ``Service``, four constructors, unchanged output.

The serving surface was collapsed from four parallel facades into one
:class:`repro.serve.Service`; ``report()`` and ``publish_metrics()``
are now a loop over each topology's resources.  This test pins what
those loops emit against ``tests/golden/service_surface.json``, which
was captured by running :func:`capture` at the parent commit (four
hand-written ``report``/``publish_metrics`` pairs) — so a line or a
sample that the refactor dropped, renamed, reordered or miscounted
fails here.

The replay is sequential and drained after every query, so every
counter is exact; only wall-clock quantities (window, throughput,
latency) are masked.

The deliberate differences from the parent are recorded in
``ADDED_SINCE_PARENT``: the sharded and multi-layout services used to
print a result-cache line in ``report()`` but forgot to publish its
counters (with one resource loop they publish whatever they report),
and two failure counters arrived as one field declaration each —
``repro_serve_errors_total`` wherever a ``ServingMetrics`` publishes,
``repro_scheduler_failed_total`` wherever a ``Scheduler`` does (the
adaptive service publishes no per-generation pool).
"""

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from repro.adapt import AdaptPolicy
from repro.db import Database
from repro.exec import ResultCache
from repro.obs import MetricsRegistry
from repro.storage import Schema, Table, categorical, numeric

GOLDEN = Path(__file__).parent / "golden" / "service_surface.json"

X_SQL = [
    f"SELECT x FROM t WHERE x >= {lo} AND x < {lo + 6}"
    for lo in (3, 17, 31, 45, 59, 73)
]
Y_SQL = [
    f"SELECT y FROM t WHERE y >= {lo:.2f} AND y < {lo + 0.06:.2f}"
    for lo in (0.03, 0.31, 0.59, 0.87)
]

#: Report lines whose numbers are wall-clock measurements.
_TIMED_LINE = re.compile(r"^(window|throughput|latency)\b")
_NUMBER = re.compile(r"\d+(\.\d+)?")
#: Gauges whose values are wall-clock measurements.
_TIMED_SAMPLE = re.compile(r"^repro_serve_(qps|window_seconds|latency_\w+)$")

_RESULT_CACHE_FAMILIES = {
    "repro_result_cache_entries",
    "repro_result_cache_hits_total",
    "repro_result_cache_misses_total",
    "repro_result_cache_tuples_avoided_total",
}
_FAILURE_FAMILIES = {"repro_scheduler_failed_total", "repro_serve_errors_total"}
ADDED_SINCE_PARENT = {
    "single": _FAILURE_FAMILIES,
    "sharded": _RESULT_CACHE_FAMILIES | _FAILURE_FAMILIES,
    "multi": _RESULT_CACHE_FAMILIES | _FAILURE_FAMILIES,
    "adaptive": {"repro_serve_errors_total"},
}


def _database() -> Database:
    rng = np.random.default_rng(11)
    schema = Schema(
        [
            numeric("x", (0.0, 100.0)),
            numeric("y", (0.0, 1.0)),
            categorical("kind", ["a", "b", "c"]),
        ]
    )
    n = 6000
    table = Table(
        schema,
        {
            "x": rng.uniform(0, 100, n),
            "y": rng.uniform(0, 1, n),
            "kind": rng.integers(0, 3, n),
        },
    )
    return Database.from_table(table, min_block_size=300)


def _open(topology: str):
    db = _database()
    db.build_layout("greedy", workload=X_SQL)
    if topology == "single":
        return db.serve(result_cache=ResultCache(), max_workers=1)
    if topology == "sharded":
        return db.serve(
            shards=2,
            partition="subtree",
            result_cache=ResultCache(),
            max_workers=1,
            cache_budget_bytes=1 << 20,
        )
    if topology == "multi":
        db.build_layout("range", column="y", label="by-y", activate=False)
        return db.serve_multi(result_cache=ResultCache(), max_workers=1)
    if topology == "adaptive":
        # threshold=1.0 keeps the background loop from ever firing on
        # this mixed replay; the one rebuild is the synchronous
        # adapt_now() below, so the ledger is deterministic.
        policy = AdaptPolicy(
            window=32, min_records=8, check_every=8, threshold=1.0
        )
        return db.auto_adapt(
            policy=policy, result_cache=ResultCache(), max_workers=1
        )
    raise ValueError(topology)


def _samples(service):
    registry = MetricsRegistry()
    service.publish_metrics(registry, service="golden")
    return registry.collect()


def _drain(service) -> None:
    """Wait until every scheduler's done-callbacks have run, so
    completed / in-flight / peak counters are exact, not racing the
    future's waiter."""
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        busy = [
            s
            for s in _samples(service)
            if s.name == "repro_scheduler_in_flight" and s.value
        ]
        if not busy:
            return
        time.sleep(0.001)
    raise AssertionError("schedulers never drained")


def _mask(line: str) -> str:
    return _NUMBER.sub("#", line) if _TIMED_LINE.match(line) else line


def capture(topology: str) -> dict:
    """Replay a fixed statement sequence; return the masked report
    lines and the published samples keyed by name + labels."""
    with _open(topology) as service:
        replay = X_SQL + Y_SQL + X_SQL[:3]
        for sql in replay:
            service.execute_sql(sql)
            _drain(service)
        for sql in Y_SQL + X_SQL[:2]:
            service.submit_sql(sql).result()
            _drain(service)
        if topology == "adaptive":
            service.reoptimizer.adapt_now()
            for sql in replay:
                service.execute_sql(sql)
        service.collect_row_ids(X_SQL[0])
        service.collect_row_ids(X_SQL[0])
        report = [_mask(line) for line in service.report().splitlines()]
        samples = {}
        for s in _samples(service):
            key = s.name + json.dumps(dict(s.labels), sort_keys=True)
            samples[key] = (
                "timed" if _TIMED_SAMPLE.match(s.name) else s.value
            )
    return {"report": report, "samples": samples}


@pytest.mark.parametrize("topology", sorted(ADDED_SINCE_PARENT))
def test_report_and_metrics_match_parent(topology):
    golden = json.loads(GOLDEN.read_text())[topology]
    got = capture(topology)
    assert got["report"] == golden["report"]
    for key, value in golden["samples"].items():
        assert key in got["samples"], f"sample dropped: {key}"
        assert got["samples"][key] == value, key
    added = {
        key.split("{")[0] for key in set(got["samples"]) - set(golden["samples"])
    }
    assert added == ADDED_SINCE_PARENT[topology]


if __name__ == "__main__":  # regenerate: run at the commit to pin
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps(
            {t: capture(t) for t in sorted(ADDED_SINCE_PARENT)},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
