"""Shared fixtures for the benchmark suite.

Datasets and layouts are session-scoped: each is generated/trained once
and reused by every table/figure bench.  Scales are chosen so the whole
suite completes in minutes on a laptop while preserving the paper's
result *shapes* (who wins, rough factors, crossovers).
"""

import pytest

from repro.db import Database
from repro.workloads import (
    errorlog_ext_dataset,
    errorlog_int_dataset,
    tpch_dataset,
)

# Benchmark scales (rows are ~1/2000 of the paper's datasets).
TPCH_ROWS = 40_000
ERRLOG_ROWS = 40_000
ERRLOG_QUERIES = 400
RL_EPISODES = 60


@pytest.fixture(scope="session")
def tpch():
    return tpch_dataset(
        num_rows=TPCH_ROWS,
        seeds_per_template=5,
        seed=0,
        test_seeds_per_template=15,
    )


@pytest.fixture(scope="session")
def errlog_int():
    return errorlog_int_dataset(
        num_rows=ERRLOG_ROWS, num_queries=ERRLOG_QUERIES, seed=0
    )


@pytest.fixture(scope="session")
def errlog_ext():
    return errorlog_ext_dataset(
        num_rows=ERRLOG_ROWS,
        num_queries=ERRLOG_QUERIES,
        num_apps=1200,
        seed=0,
    )


# ----------------------------------------------------------------------
# Registries
# ----------------------------------------------------------------------


@pytest.fixture(scope="session")
def tpch_registry(tpch):
    return tpch.registry()


@pytest.fixture(scope="session")
def errlog_int_registry(errlog_int):
    return errlog_int.registry()


@pytest.fixture(scope="session")
def errlog_ext_registry(errlog_ext):
    return errlog_ext.registry()


# ----------------------------------------------------------------------
# TPC-H layouts
# ----------------------------------------------------------------------


def _database(dataset) -> Database:
    return Database.from_table(
        dataset.table, min_block_size=dataset.min_block_size
    )


def _baseline_block(dataset) -> int:
    """Baseline block size: comparable block count to the qd-trees."""
    return max(dataset.min_block_size * 4, 64)


@pytest.fixture(scope="session")
def tpch_random(tpch):
    return _database(tpch).build_layout(
        "random", min_block_size=_baseline_block(tpch), activate=False
    )


def _bottom_up_plus(db, dataset, registry):
    """Bottom-Up tuned as BU+ (features more selective than 10%
    dropped); its groups of at least ``block`` rows are stored as
    blocks of at most ``block`` rows."""
    block = max(dataset.min_block_size, 64)
    return db.build_layout(
        "bottom_up", workload=dataset.workload, registry=registry,
        min_block_size=block, selectivity_threshold=0.10,
        max_block_size=block, label="bottom-up+", activate=False,
    )


@pytest.fixture(scope="session")
def tpch_bottom_up(tpch, tpch_registry):
    return _bottom_up_plus(_database(tpch), tpch, tpch_registry)


@pytest.fixture(scope="session")
def tpch_greedy(tpch, tpch_registry):
    return _database(tpch).build_layout(
        "greedy", workload=tpch.workload, registry=tpch_registry
    )


@pytest.fixture(scope="session")
def tpch_rl(tpch, tpch_registry):
    return _database(tpch).build_layout(
        "woodblock", workload=tpch.workload, registry=tpch_registry,
        episodes=RL_EPISODES, hidden_dim=128, seed=0,
    )


# ----------------------------------------------------------------------
# ErrorLog layouts
# ----------------------------------------------------------------------


def _errlog_layouts(dataset, registry, episodes=RL_EPISODES):
    block = max(dataset.min_block_size, 64)
    # Range blocks are sized so per-block categorical dictionaries
    # saturate, as they do at the paper's 100M-row scale — otherwise
    # the workload-oblivious baseline gets lucky dictionary pruning
    # that the production system never saw.
    range_block = max(block * 8, dataset.num_rows // 12)
    db = _database(dataset)
    range_layout = db.build_layout(
        "range", column="ingest_date", min_block_size=range_block,
        activate=False,
    )
    bu_layout = _bottom_up_plus(db, dataset, registry)
    greedy_layout = db.build_layout(
        "greedy", workload=dataset.workload, registry=registry
    )
    rl_layout = db.build_layout(
        "woodblock", workload=dataset.workload, registry=registry,
        episodes=episodes, hidden_dim=128, seed=0,
    )
    return range_layout, bu_layout, greedy_layout, rl_layout


@pytest.fixture(scope="session")
def errlog_int_layouts(errlog_int, errlog_int_registry):
    return _errlog_layouts(errlog_int, errlog_int_registry)


@pytest.fixture(scope="session")
def errlog_ext_layouts(errlog_ext, errlog_ext_registry):
    return _errlog_layouts(errlog_ext, errlog_ext_registry)
