"""Bring your own workload: SQL in, learned layout out.

Shows the full user-facing pipeline on a custom table:

1. define a schema and load (raw, unencoded) data,
2. express the workload as SQL WHERE clauses — the planner extracts the
   pushed-down predicates, including a binary column comparison that
   becomes an advanced cut and a LIKE that compiles to a dictionary IN,
3. learn a greedy qd-tree, persist it with the block catalog,
4. reload everything and route new queries.

Run:  python examples/custom_workload.py
"""

import tempfile
from pathlib import Path

import numpy as np

from repro.core import QueryRouter, QdTree
from repro.db import Database
from repro.engine import SPARK_PARQUET, ScanEngine, WorkloadReport
from repro.storage import (
    Schema,
    Table,
    categorical,
    load_store,
    numeric,
    save_store,
)


def make_table(num_rows: int = 40_000, seed: int = 7) -> Table:
    """A small web-requests table with raw values."""
    rng = np.random.default_rng(seed)
    statuses = [200, 301, 404, 500, 503]
    regions = ["us-east", "us-west", "eu-central", "ap-south"]
    paths = ["/home", "/api/v1/users", "/api/v1/orders", "/static/app.js",
             "/health", "/api/v2/users"]
    schema = Schema(
        [
            numeric("latency_ms", (0.0, 5000.0)),
            numeric("bytes_sent", (0.0, 1e6)),
            numeric("bytes_received", (0.0, 1e6)),
            numeric("hour", (0, 24)),
            categorical("status"),
            categorical("region"),
            categorical("path"),
        ]
    )
    raw = {
        "latency_ms": rng.gamma(2.0, 120.0, num_rows).clip(0, 5000),
        "bytes_sent": rng.exponential(20_000.0, num_rows).clip(0, 1e6),
        "bytes_received": rng.exponential(5_000.0, num_rows).clip(0, 1e6),
        "hour": rng.integers(0, 24, num_rows).astype(float),
        "status": [statuses[i] for i in rng.choice(5, num_rows,
                                                   p=[.8, .05, .08, .04, .03])],
        "region": [regions[i] for i in rng.integers(0, 4, num_rows)],
        "path": [paths[i] for i in rng.integers(0, 6, num_rows)],
    }
    return Table.from_raw(schema, raw)


SQL_WORKLOAD = [
    "SELECT latency_ms FROM requests WHERE status IN (500, 503) AND hour >= 9 AND hour < 18",
    "SELECT * FROM requests WHERE region = 'eu-central' AND latency_ms > 1000",
    "SELECT path FROM requests WHERE path LIKE '/api/%' AND status = 404",
    "SELECT bytes_sent FROM requests WHERE bytes_sent > bytes_received AND latency_ms > 2000",
    "SELECT * FROM requests WHERE hour < 6 OR hour >= 22",
]


def main() -> None:
    table = make_table()
    db = Database.from_table(table, min_block_size=500)
    workload = db.planner.plan_workload(SQL_WORKLOAD)
    registry = db.planner.candidate_cuts(workload)
    print(f"planned {len(workload)} queries -> {len(registry)} candidate "
          f"cuts ({registry.num_advanced_cuts} advanced)")
    for cut in registry.cuts:
        print(f"  cut: {cut!r}")

    layout = db.build_layout("greedy", workload=workload, registry=registry)
    tree, store = layout.tree, layout.store
    print(f"\nlearned tree: {len(tree.leaves())} blocks")

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "requests-layout"
        save_store(store, path)
        tree.save(str(path / "qdtree.json"))

        # A fresh process would reload both artifacts:
        store2 = load_store(path)
        tree2 = QdTree.load(str(path / "qdtree.json"), table.schema, registry)
        print(f"reloaded {store2.num_blocks} blocks from {path.name}/")

    router = QueryRouter(tree2)
    engine = ScanEngine(store2, SPARK_PARQUET,
                        num_advanced_cuts=registry.num_advanced_cuts)
    stats = []
    for query in workload:
        routed = router.route(query)
        stats.append(engine.execute(query, routed.block_ids))
    report = WorkloadReport("custom", stats)
    print(f"\nworkload scanned {report.total_tuples_scanned} tuples "
          f"across {report.total_blocks_scanned} block reads "
          f"({report.access_percentage(table.num_rows):.1f}% access)")


if __name__ == "__main__":
    main()
