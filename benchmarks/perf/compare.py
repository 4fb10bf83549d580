"""``run.py compare A.json B.json``: did B get worse than A?

One row per (workload, end-to-end metric): both values, the relative
change with A as its base, the bound, and a verdict:

``ok``          within the bound
``regressed``   worse than A by more than the bound (exit code 1)
``improved``    better than A by more than the bound
``unresolved``  the repeats inside one of the runs already spread (quartile
                distance over median) wider than the bound, so the
                difference shows nothing
``refused``     an exact counter on runs whose inputs differ

A timing's bound comes from ``BENCHMARK.json``.  The skip counters are
*exact*: the same code on the same inputs gives the same number, so any
increase is a regression — and they are only compared when both runs
hashed the same table, training SQL and statement stream.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

EXACT = (
    "blocks_scanned_per_query",
    "tuples_scanned_frac",
    "scan_overhead_x",
    "stored_bytes_ratio",
    "failed_frac",
)
#: metrics of the full document that ``BENCHMARK.json`` does not list
EXTRA = {
    "latency_p99_ms": {"better": "lower", "bound": 0.25},
    "ingest_rows_per_s": {"better": "higher", "bound": 0.25},
    "failed_frac": {"better": "lower", "bound": 0.0},
}
SKIP = ("latency_samples",)


def spread(metric: Dict[str, object]) -> float:
    """Quartile distance of the in-run repeats over their median, as the
    driver takes it across runs; 0 without repeats."""
    values = metric.get("repeats") or ()
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def verdict(
    name: str,
    a: Dict[str, object],
    b: Dict[str, object],
    rule: Dict[str, object],
    same_inputs: bool,
) -> Dict[str, object]:
    va, vb = a["value"], b["value"]
    row = {"a": va, "b": vb, "bound": rule["bound"], "change": None}
    if va is None or vb is None:
        row["verdict"] = "ok" if va is vb else "unresolved"
        return row
    worse = (vb - va) if rule["better"] == "lower" else (va - vb)
    row["change"] = (vb - va) / va if va else None
    if name in EXACT:
        row["bound"] = 0.0
        if not same_inputs:
            row["verdict"] = "refused"
        else:
            row["verdict"] = (
                "ok" if worse == 0 else "regressed" if worse > 0 else "improved"
            )
        return row
    relative = worse / abs(va) if va else 0.0
    if max(spread(a), spread(b)) > rule["bound"]:
        row["verdict"] = "unresolved"
    elif relative > rule["bound"]:
        row["verdict"] = "regressed"
    elif relative < -rule["bound"]:
        row["verdict"] = "improved"
    else:
        row["verdict"] = "ok"
    return row


def compare(
    a: Dict[str, object], b: Dict[str, object], spec: Dict[str, object]
) -> List[Dict[str, object]]:
    rules = {m["name"]: m for m in spec["end_to_end"]}
    rules.update(EXTRA)
    rows = []
    for workload, doc_a in a["workloads"].items():
        doc_b = b["workloads"].get(workload)
        if doc_b is None:
            continue
        same_inputs = doc_a["inputs"] == doc_b["inputs"]
        for name, metric in doc_a["metrics"].items():
            if name in SKIP or name not in doc_b["metrics"]:
                continue
            row = verdict(
                name, metric, doc_b["metrics"][name], rules[name], same_inputs
            )
            rows.append(dict(row, workload=workload, metric=name))
    return rows


def main(argv: Sequence[str], spec: Dict[str, object]) -> int:
    if len(argv) != 2:
        print("usage: run.py compare A.json B.json", file=sys.stderr)
        return 2
    a, b = (json.loads(Path(path).read_text()) for path in argv)
    if a["trace"] or b["trace"]:
        print(
            "compare judges end-to-end documents (--trace 0); per-layer "
            "numbers carry no bound",
            file=sys.stderr,
        )
        return 2
    rows = compare(a, b, spec)

    def cell(value: Optional[float]) -> str:
        return "null" if value is None else f"{value:.6g}"

    print(
        f"{'workload':16s} {'metric':26s} {'A':>12s} {'B':>12s} "
        f"{'(B-A)/A':>9s} {'bound':>6s}  verdict"
    )
    for row in rows:
        change = "" if row["change"] is None else f"{row['change']:+.2%}"
        print(
            f"{row['workload']:16s} {row['metric']:26s} {cell(row['a']):>12s} "
            f"{cell(row['b']):>12s} {change:>9s} {row['bound']:>6.2f}  "
            f"{row['verdict']}"
        )
    counts: Dict[str, int] = {}
    for row in rows:
        counts[row["verdict"]] = counts.get(row["verdict"], 0) + 1
    print(", ".join(f"{n} {v}" for v, n in sorted(counts.items())))
    return 1 if counts.get("regressed") else 0
