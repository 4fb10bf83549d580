"""The repo's benchmark: one command, every metric by name.

    python3 benchmarks/perf/run.py --workload <name|all> --seed N
        [--seconds S] [--trace 0|1] [--scale full|smoke] [--out FILE]
    python3 benchmarks/perf/run.py compare A.json B.json

``--trace 0`` measures the end-to-end metrics with no tracing at all;
``--trace 1`` is the separate traced pass that yields the per-layer
metrics (and writes ``out/trace_<workload>.jsonl``).  Every answer is
checked against brute-force row evaluation; a wrong answer makes the
command exit non-zero.  The last line on standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` for the (last)
workload run; ``--out`` keeps the full document of all of them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT = HERE / "out"

if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"run.py: no program to measure: {ROOT / 'src' / 'repro'} is missing")
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import bench  # noqa: E402
import compare  # noqa: E402
import verify  # noqa: E402
import workloads as W  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PINNED = json.loads((HERE / "inputs.json").read_text())

#: Reported in the ``--out`` document beside the contract's metrics,
#: which must be defined (and never 0) on every workload.
EXTRA_UNITS = {
    "latency_p99_ms": "ms",
    "ingest_rows_per_s": "rows/s",
    "failed_frac": "fraction",
    "latency_samples": "count",
}
#: What the contract line carries for a per-layer metric that could
#: not be measured in this tree (the ``--out`` document says ``null``
#: and lists it under ``probes_unavailable``).
UNAVAILABLE = -1.0


def run_workload(
    name: str, seed: int, scale_name: str, seconds: float, trace: bool
) -> Dict[str, object]:
    scale = W.SCALES[scale_name]
    prepared = bench.prepare(name, scale, seed)
    try:
        if trace:
            import layers
            from spans import SpanRecorder

            recorder = SpanRecorder()
            scratch = OUT / f"tmp_{os.getpid()}"
            try:
                per_layer, replies = layers.traced_pass(
                    prepared, scale, recorder, scratch
                )
            finally:
                shutil.rmtree(scratch, ignore_errors=True)
            recorder.write_jsonl(OUT / f"trace_{name}.jsonl")
            metrics = {
                m["name"]: {"value": per_layer.get(m["name"]), "unit": m["unit"]}
                for m in SPEC["per_layer"]
            }
            missing = sorted(set(per_layer) - set(metrics))
            if missing:
                raise SystemExit(f"per-layer metrics not in BENCHMARK.json: {missing}")
        else:
            repeats = bench.measure(prepared, scale.repeats, seconds)
            replies = [r for repeat in repeats for r in repeat.replies]
            measured = bench.end_to_end(prepared, repeats, scale)
            units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
            units.update(EXTRA_UNITS)
            metrics = {
                key: dict(value, unit=units[key]) for key, value in measured.items()
            }

        failed, problems = verify.check_replies(prepared.db, replies)
        rng = np.random.default_rng([seed, 99])
        asked = [r.sql for r in replies]
        sample = [
            asked[i]
            for i in rng.choice(
                len(asked), size=min(scale.verify_row_ids, len(asked)), replace=False
            )
        ]
        problems += verify.check_row_ids(prepared.db, prepared.service, sample)
        inputs = {
            "table_sha1": W.sha1_table(prepared.db.table.slice(0, scale_rows(name, scale))),
            "train_sha1": W.sha1_lines(prepared.train_sql),
            "sql_sha1": W.sha1_lines(prepared.issued[: prepared.fixed_ops]),
        }
    finally:
        prepared.close()

    if not trace:
        metrics["failed_frac"] = {
            "value": failed / len(replies),
            "unit": EXTRA_UNITS["failed_frac"],
        }
    return {
        "workload": name,
        "seed": seed,
        "scale": scale_name,
        "trace": int(trace),
        "seconds": seconds,
        "clients": prepared.clients,
        "attempted": len(replies),
        "failed": failed,
        "correct": not problems,
        "problems": problems,
        "inputs": inputs,
        "inputs_match": inputs_match(name, scale_name, seed, trace, inputs),
        "probes_unavailable": sorted(
            key for key, m in metrics.items() if trace and m["value"] is None
        ),
        "metrics": metrics,
    }


def scale_rows(name: str, scale: W.Scale) -> int:
    """Rows of the generated table (before ``build_ingest`` grew it)."""
    return scale.build_rows if name == "build_ingest" else scale.rows


def inputs_match(
    name: str, scale_name: str, seed: int, trace: bool, inputs: Dict[str, str]
) -> bool:
    """Are the generated inputs the ones ``inputs.json`` pins?  The
    table and the training SQL do not depend on the seed; a statement
    stream is pinned for the end-to-end pass at seed 0 only."""
    pinned = PINNED[scale_name]
    rows = "build_table_sha1" if name == "build_ingest" else "table_sha1"
    same = (
        inputs["table_sha1"] == pinned[rows]
        and inputs["train_sha1"] == pinned["train_sha1"]
    )
    if seed == 0 and not trace:
        same = same and inputs["sql_sha1"] == pinned["sql_sha1"].get(name)
    return same


def contract_line(doc: Dict[str, object]) -> str:
    """The one JSON object the benchmark contract asks for."""
    listed = SPEC["per_layer"] if doc["trace"] else SPEC["end_to_end"]
    metrics = {}
    for m in listed:
        value = doc["metrics"][m["name"]]["value"]
        metrics[m["name"]] = {
            "value": UNAVAILABLE if value is None else value,
            "unit": m["unit"],
        }
    return json.dumps(
        {
            "correct": doc["correct"],
            "attempted": doc["attempted"],
            "failed": doc["failed"],
            "metrics": metrics,
        }
    )


def print_report(doc: Dict[str, object]) -> None:
    print(
        f"== {doc['workload']}  seed={doc['seed']} scale={doc['scale']} "
        f"trace={doc['trace']} clients={doc['clients']}"
    )
    for key, m in doc["metrics"].items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        spread = ""
        series = m.get("repeats") or m.get("samples") or ()
        if len(series) > 1:
            spread = "  of " + " ".join(f"{v:.6g}" for v in series)
        print(f"{key:40s} {value:>14s} {m['unit']}{spread}")
    print(f"attempted: {doc['attempted']}  failed: {doc['failed']}")
    print(f"inputs_match: {str(doc['inputs_match']).lower()}")
    for problem in doc["problems"]:
        print(f"WRONG: {problem}")


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:], SPEC)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=bench.WORKLOADS + ("all",)
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds",
        type=float,
        default=SPEC["run_seconds"],
        help="measure at least the fixed repeats, then until this long",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(W.SCALES), default="full")
    parser.add_argument("--out", help="write the full JSON document here")
    args = parser.parse_args(argv)

    names = bench.WORKLOADS if args.workload == "all" else (args.workload,)
    docs = []
    for name in names:
        doc = run_workload(
            name, args.seed, args.scale, args.seconds, bool(args.trace)
        )
        docs.append(doc)
        print_report(doc)
        print(contract_line(doc), flush=True)
    if args.out:
        document = {
            "schema": 1,
            "seed": args.seed,
            "scale": args.scale,
            "trace": args.trace,
            "workloads": {doc["workload"]: doc for doc in docs},
            "claim": None,
        }
        Path(args.out).write_text(json.dumps(document, indent=1) + "\n")
    return 0 if all(doc["correct"] for doc in docs) else 1


if __name__ == "__main__":
    sys.exit(main())
