"""repro — a full reproduction of "Qd-tree: Learning Data Layouts for
Big Data Analytics" (Yang et al., SIGMOD 2020).

The package implements the qd-tree data structure, its greedy and deep
reinforcement-learning (Woodblock) construction algorithms, the
block-based columnar storage and scan-engine substrates the paper's
experiments run on, every baseline the paper compares against, and the
three evaluation workloads.

Subpackages
-----------
``repro.db``
    The unified :class:`~repro.db.Database` facade: tables, layouts
    built through a pluggable string-keyed strategy registry,
    monotonically increasing layout generations, persistence, serving
    and a generation-keyed result cache with automatic invalidation
    on ingest/layout swap.
``repro.core``
    Qd-tree, predicates, cost model, greedy construction, routers,
    overlap/replication extensions.
``repro.rl``
    Woodblock: the PPO agent that learns to construct qd-trees.
``repro.sql``
    A small SQL WHERE-clause planner for candidate-cut extraction.
``repro.storage``
    Dictionary-encoded tables, columnar blocks, min-max indexes.
``repro.engine``
    Scan-oriented execution engine with pluggable cost profiles.
``repro.exec``
    The unified query pipeline: plan/route/result-cache/scan/merge
    stages over an explicit execution context; every execution
    path is a thin configuration of it.
``repro.serve``
    Concurrent query serving: thread-pool scheduling, buffer-pool
    caching, routing memoization, latency/throughput metrics,
    sharded scatter-gather and cost-arbitrated multi-layout facades.
``repro.baselines``
    Random, range, Bottom-Up (Sun et al.) and k-d tree partitioners.
``repro.workloads``
    TPC-H-like, ErrorLog-Int/Ext, and microbenchmark generators.
``repro.bench``
    Experiment harness and metrics used by the ``benchmarks/`` suite.
"""

from . import (
    baselines,
    bench,
    core,
    db,
    engine,
    exec,
    rl,
    serve,
    sql,
    storage,
    workloads,
)

__version__ = "1.3.0"

__all__ = [
    "__version__",
    "baselines",
    "bench",
    "core",
    "db",
    "engine",
    "exec",
    "rl",
    "serve",
    "sql",
    "storage",
    "workloads",
]
