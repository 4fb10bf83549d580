"""Adaptive serving: the layout follows the workload.

A greedy qd-tree layout is built for an x-range workload, then the
live traffic *drifts* — the filter-column distribution shifts from
``x`` to ``y`` mid-replay.  ``db.auto_adapt`` closes the loop the
paper leaves open: every served query lands in a bounded query log,
a drift detector compares the live template mix against the layout's
build-time workload signature, and when the divergence crosses the
threshold a candidate layout is rebuilt from the logged window
inline on the serving worker that detects drift, evaluated offline on
the blocks-scanned cost model, and hot-swapped in through the generation lifecycle (result
cache purged, serving re-pointed) — with bit-identical results
throughout.

Run:  python examples/adaptive_serving.py [--rows 40000] [--repeat 12]
"""

import argparse

import numpy as np

from repro.adapt import AdaptPolicy, offline_blocks_cost
from repro.db import Database
from repro.storage import Schema, Table, categorical, numeric

X_WORKLOAD = [
    f"SELECT x FROM t WHERE x >= {lo} AND x < {lo + 5}"
    for lo in (5, 20, 35, 50, 65, 80)
]
Y_WORKLOAD = [
    f"SELECT y FROM t WHERE y >= {lo:.2f} AND y < {lo + 0.05:.2f}"
    for lo in (0.05, 0.20, 0.35, 0.50, 0.65, 0.80)
]


def make_table(rows: int) -> Table:
    rng = np.random.default_rng(7)
    schema = Schema(
        [
            numeric("x", (0.0, 100.0)),
            numeric("y", (0.0, 1.0)),
            categorical("kind", ["a", "b", "c"]),
        ]
    )
    return Table(
        schema,
        {
            "x": rng.uniform(0, 100, rows),
            "y": rng.uniform(0, 1, rows),
            "kind": rng.integers(0, 3, rows),
        },
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=40_000)
    parser.add_argument("--repeat", type=int, default=12,
                        help="times each phase's workload is replayed")
    args = parser.parse_args()

    db = Database.from_table(make_table(args.rows), min_block_size=1000)
    frozen = db.build_layout("greedy", workload=X_WORKLOAD)
    print(
        f"frozen layout: gen {frozen.generation}, "
        f"{frozen.num_blocks} blocks, built for the x-range workload"
    )
    print(f"build signature: {frozen.workload_signature}\n")

    policy = AdaptPolicy(
        window=72,
        threshold=0.4,
        min_records=24,
        check_every=6,
        min_improvement=0.1,
    )
    with db.auto_adapt(policy=policy) as service:
        phase1 = service.run_closed_loop(X_WORKLOAD, repeat=args.repeat)
        print(
            f"phase 1 (stationary x traffic): {phase1.completed} queries, "
            f"drift {service.detector.last_score:.3f}, "
            f"still serving gen {service.generation}"
        )

        phase2 = service.run_closed_loop(Y_WORKLOAD, repeat=args.repeat)
        print(
            f"phase 2 (drifted y traffic):    {phase2.completed} queries, "
            f"drift detected -> now serving gen {service.generation}"
        )
        for event in service.events:
            print(
                f"  adaptation event [{event.kind}]: drift "
                f"{event.drift_score:.3f}, window blocks "
                f"{event.incumbent_blocks} -> {event.candidate_blocks} "
                f"({100 * event.improvement:.1f}% less scan work)"
            )

        print("\n--- adaptive service report ---")
        print(service.report())

    adapted = db.active_layout
    y_queries = [(db.planner.plan(sql).query, 1) for sql in Y_WORKLOAD]
    frozen_cost = offline_blocks_cost(frozen, y_queries)
    adapted_cost = offline_blocks_cost(adapted, y_queries)
    print(
        f"\npost-drift workload cost: frozen layout {frozen_cost} blocks, "
        f"adapted layout {adapted_cost} blocks "
        f"({100 * (1 - adapted_cost / frozen_cost):.1f}% avoided work)"
    )
    print(
        "results stayed bit-identical across the swap: generations are "
        "immutable snapshots of the same rows, and the result cache is "
        "purged on every generation change."
    )


if __name__ == "__main__":
    main()
