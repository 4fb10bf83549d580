"""Smoke self-test of the benchmark harness (tier-1: seconds, no timing
assertions).  Runs ``run.py`` the way the driver does — as a command —
at ``--scale smoke`` and checks structure, determinism and correctness."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT = (
    "blocks_scanned_per_query",
    "tuples_scanned_frac",
    "scan_overhead_x",
    "stored_bytes_ratio",
)


def run(out: Path, *args: str):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(out.read_text()), proc.stdout


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("perf_smoke")
    common = ("--workload", "all", "--scale", "smoke", "--seconds", "0")
    out = {}
    for tag, extra in (
        ("first", ("--seed", "0")),
        ("again", ("--seed", "0")),
        ("other", ("--seed", "1")),
        ("traced", ("--seed", "0", "--trace", "1")),
    ):
        path = tmp / f"{tag}.json"
        doc, stdout = run(path, *common, *extra, "--out", str(path))
        out[tag] = {"doc": doc, "stdout": stdout, "path": path}
    return out


def test_benchmark_json_names_and_counts():
    names = (
        WORKLOADS
        + [m["name"] for m in SPEC["end_to_end"]]
        + [m["name"] for m in SPEC["per_layer"]]
    )
    assert len(names) == len(set(names))
    assert all(re.match(r"^[A-Za-z0-9_.-]+$", name) for name in names)
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("tag,listed", [("first", "end_to_end"), ("traced", "per_layer")])
def test_every_listed_metric_is_reported_with_its_unit(runs, tag, listed):
    doc = runs[tag]["doc"]
    assert list(doc["workloads"]) == WORKLOADS
    assert list(doc)[-1] == "claim" and doc["claim"] is None
    lines = [
        json.loads(line)
        for line in runs[tag]["stdout"].splitlines()
        if line.startswith("{")
    ]
    assert len(lines) == len(WORKLOADS)
    for name, line in zip(WORKLOADS, lines):
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert set(line["metrics"]) == {m["name"] for m in SPEC[listed]}
        for m in SPEC[listed]:
            reported = doc["workloads"][name]["metrics"][m["name"]]
            assert reported["unit"] == m["unit"]
            assert isinstance(reported["value"], (int, float)), m["name"]
            assert line["metrics"][m["name"]] == {
                "value": reported["value"],
                "unit": m["unit"],
            }
            assert f"\n{m['name']} " in runs[tag]["stdout"]


def test_nothing_failed_and_every_probe_ran(runs):
    for tag in runs:
        for name, doc in runs[tag]["doc"]["workloads"].items():
            assert doc["correct"] and doc["failed"] == 0, (tag, name, doc["problems"])
            assert doc["attempted"] >= 1
            assert doc["probes_unavailable"] == [], (tag, name)
    for doc in runs["first"]["doc"]["workloads"].values():
        assert doc["metrics"]["failed_frac"]["value"] == 0


def test_same_seed_gives_identical_counters_and_inputs(runs):
    first, again = runs["first"]["doc"], runs["again"]["doc"]
    for name in WORKLOADS:
        a, b = first["workloads"][name], again["workloads"][name]
        assert a["inputs"] == b["inputs"]
        assert a["inputs_match"] and b["inputs_match"], name
        assert a["attempted"] == b["attempted"]
        for metric in EXACT:
            assert a["metrics"][metric]["value"] == b["metrics"][metric]["value"]


def test_another_seed_gives_other_sql_on_the_same_table(runs):
    first, other = runs["first"]["doc"], runs["other"]["doc"]
    for name in WORKLOADS:
        a, b = first["workloads"][name]["inputs"], other["workloads"][name]["inputs"]
        assert a["sql_sha1"] != b["sql_sha1"]
        assert a["table_sha1"] == b["table_sha1"]
        assert a["train_sha1"] == b["train_sha1"]
        assert other["workloads"][name]["inputs_match"]


def test_every_span_has_a_parent_that_contains_it(runs):
    for name in WORKLOADS:
        spans = [
            json.loads(line)
            for line in (HERE / "out" / f"trace_{name}.jsonl").read_text().splitlines()
        ]
        by_id = {span["span_id"]: span for span in spans}
        assert len(by_id) == len(spans)
        assert any(span["name"] == "query" for span in spans)
        for span in spans:
            assert span["start"] <= span["end"]
            if span["parent_id"] is None:
                continue
            parent = by_id[span["parent_id"]]
            assert parent["trace_id"] == span["trace_id"]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]


def test_compare_holds_exact_counters_and_refuses_other_inputs(runs):
    def verdicts(a: str, b: str):
        proc = subprocess.run(
            [
                sys.executable,
                str(HERE / "run.py"),
                "compare",
                str(runs[a]["path"]),
                str(runs[b]["path"]),
            ],
            capture_output=True,
            text=True,
            cwd=ROOT,
            timeout=60,
        )
        assert proc.returncode in (0, 1), proc.stderr  # timings may differ
        rows = [line.split() for line in proc.stdout.splitlines()[1:-1]]
        return {(row[0], row[1]): row[-1] for row in rows}

    same = verdicts("first", "again")
    differ = verdicts("first", "other")
    for name in WORKLOADS:
        for metric in EXACT + ("failed_frac",):
            assert same[(name, metric)] == "ok"
            assert differ[(name, metric)] == "refused"
