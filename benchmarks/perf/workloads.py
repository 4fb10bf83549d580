"""Benchmark inputs: SQL templates, seeded statement streams, sizes.

Eight templates over the TPC-H-style columns of
``repro.workloads.tpch.generate_table``.  A template maps draws from
the unit interval to SQL literals, and every template has at least one
continuous literal, so a stream can promise *never-repeated literal
tuples* (the plan/route/prune memos and the result cache key on the
exact predicate, so one changed digit makes an arrival fully cold).

Streams are stratified on purpose: every stream holds the same number
of statements per template, and each literal is a jittered stratified
draw over its range (a Latin hypercube per template).  The seed still
decides every literal, but the *mix* no longer wanders with it — which
is what lets per-query means (blocks per query, QPS) repeat across
seeds within the bounds ``BENCHMARK.json`` fixes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.workloads.tpch import (
    BRANDS,
    CONTAINERS,
    MKTSEGMENTS,
    REGIONS,
    RETURNFLAGS,
    SHIPMODES,
    TYPES,
)

TABLE = "lineitem"


def _pick(values: Sequence[str], u: float) -> str:
    return values[min(int(u * len(values)), len(values) - 1)]


def _pick_pair(values: Sequence[str], u: float) -> Tuple[str, str]:
    """Two distinct values from one draw."""
    n = len(values)
    k = min(int(u * n * (n - 1)), n * (n - 1) - 1)
    i, j = divmod(k, n - 1)
    return values[i], values[j if j < i else j + 1]


def _span(lo: float, hi: float, u: float) -> str:
    # 4 decimals: the table's dates/quantities are integers, so the
    # fraction only serves to keep literals from ever repeating.
    return f"{lo + (hi - lo) * u:.4f}"


def t1_date_range(u: Sequence[float]) -> str:
    start = 110.0 * u[0]
    width = 3.0 + 11.0 * u[1]
    return (
        f"SELECT l_extendedprice, l_discount FROM {TABLE} "
        f"WHERE l_shipdate >= {start:.4f} AND l_shipdate < {start + width:.4f}"
    )


def t2_q6_three_ranges(u: Sequence[float]) -> str:
    start = 90.0 * u[0]
    discount = 0.02 + 0.07 * u[1]
    return (
        f"SELECT l_extendedprice FROM {TABLE} "
        f"WHERE l_shipdate >= {start:.4f} AND l_shipdate < {start + 30:.4f} "
        f"AND l_discount BETWEEN {discount - 0.011:.4f} AND {discount + 0.011:.4f} "
        f"AND l_quantity < {_span(20, 30, u[2])}"
    )


def t3_q12_in_advanced(u: Sequence[float]) -> str:
    a, b = _pick_pair(SHIPMODES, u[0])
    start = 120.0 * u[1]
    return (
        f"SELECT l_shipmode, o_orderpriority FROM {TABLE} "
        f"WHERE l_shipmode IN ('{a}', '{b}') "
        f"AND l_commitdate < l_receiptdate AND l_shipdate < l_commitdate "
        f"AND l_receiptdate >= {start:.4f} AND l_receiptdate < {start + 30:.4f}"
    )


def t4_equality_90day(u: Sequence[float]) -> str:
    flag = _pick(RETURNFLAGS, u[0])
    start = -150.0 + 240.0 * u[1]
    return (
        f"SELECT l_extendedprice, c_acctbal FROM {TABLE} "
        f"WHERE l_returnflag = '{flag}' "
        f"AND o_orderdate >= {start:.4f} AND o_orderdate < {start + 90:.4f}"
    )


def t5_q19_two_arm_or(u: Sequence[float]) -> str:
    small = [c for c in CONTAINERS if c.startswith("SM ")][:4]
    medium = [c for c in CONTAINERS if c.startswith("MED ")][:4]
    arms = []
    for containers, brand_u, qty_u, lo, hi in (
        (small, u[0], u[1], 1, 11),
        (medium, u[2], u[3], 10, 21),
    ):
        qty = lo + (hi - lo) * qty_u
        names = ", ".join(f"'{c}'" for c in containers)
        arms.append(
            f"(p_brand = '{_pick(BRANDS, brand_u)}' "
            f"AND p_container IN ({names}) "
            f"AND l_quantity >= {qty:.4f} AND l_quantity <= {qty + 10:.4f})"
        )
    return f"SELECT * FROM {TABLE} WHERE {arms[0]} OR {arms[1]}"


def t6_equality_open_range(u: Sequence[float]) -> str:
    return (
        f"SELECT * FROM {TABLE} WHERE p_type = '{_pick(TYPES, u[0])}' "
        f"AND c_acctbal > {_span(-1000, 9000, u[1])}"
    )


def t7_in_advanced_two_year(u: Sequence[float]) -> str:
    a, b = _pick_pair(REGIONS, u[0])
    start = -800.0 + 860.0 * u[1]
    return (
        f"SELECT l_extendedprice, l_discount FROM {TABLE} "
        f"WHERE sr_name IN ('{a}', '{b}') AND c_nationkey = s_nationkey "
        f"AND o_orderdate >= {start:.4f} AND o_orderdate < {start + 730:.4f}"
    )


def t8_q3_opposed_ranges(u: Sequence[float]) -> str:
    date = _span(-20, 120, u[1])
    return (
        f"SELECT l_extendedprice FROM {TABLE} "
        f"WHERE c_mktsegment = '{_pick(MKTSEGMENTS, u[0])}' "
        f"AND o_orderdate < {date} AND l_shipdate > {date}"
    )


#: (template, number of unit draws it consumes), in T1..T8 order.
TEMPLATES: Tuple[Tuple[Callable[[Sequence[float]], str], int], ...] = (
    (t1_date_range, 2),
    (t2_q6_three_ranges, 3),
    (t3_q12_in_advanced, 2),
    (t4_equality_90day, 2),
    (t5_q19_two_arm_or, 4),
    (t6_equality_open_range, 2),
    (t7_in_advanced_two_year, 2),
    (t8_q3_opposed_ranges, 2),
)


def _latin(n: int, dims: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` points of a jittered Latin hypercube in ``[0, 1)^dims``."""
    cells = np.stack([rng.permutation(n) for _ in range(dims)], axis=1)
    return (cells + rng.random((n, dims))) / n


def draw(n: int, rng: np.random.Generator, seen: Set[str]) -> List[str]:
    """``n`` statements nobody in ``seen`` has issued, an equal share
    per template (the remainder goes to the first templates), shuffled.
    ``seen`` is updated, so consecutive draws never repeat either."""
    out: List[str] = []
    for k, (template, dims) in enumerate(TEMPLATES):
        share = n // len(TEMPLATES) + (k < n % len(TEMPLATES))
        for point in _latin(share, dims, rng):
            sql = template(point)
            while sql in seen:  # 4-decimal collision: redraw that one
                sql = template(rng.random(dims))
            seen.add(sql)
            out.append(sql)
    return [out[i] for i in rng.permutation(len(out))]


def zipf_ranks(
    n: int, pool: int, exponent: float, rng: np.random.Generator
) -> np.ndarray:
    """``n`` pool indices, rank ``r`` drawn with weight ``r**-exponent``."""
    weights = np.arange(1, pool + 1, dtype=np.float64) ** -exponent
    return rng.choice(pool, size=n, p=weights / weights.sum())


def sha1_lines(statements: Sequence[str]) -> str:
    return hashlib.sha1("\n".join(statements).encode()).hexdigest()


def sha1_table(table) -> str:
    digest = hashlib.sha1()
    for name in table.schema.column_names:
        digest.update(name.encode())
        digest.update(np.ascontiguousarray(table.column(name)).tobytes())
    return digest.hexdigest()


# ----------------------------------------------------------------------
# Sizes
# ----------------------------------------------------------------------

#: Seed of the training draw.  Fixed, like the table's: a layout that
#: changed with ``--seed`` would move blocks-per-query (and with it
#: every timing) by more between seeds than the regression bounds allow.
TRAIN_SEED = 0


@dataclass(frozen=True)
class Scale:
    """Row and operation counts of one ``--scale``."""

    rows: int
    train_per_template: int
    min_block_size: int
    build_rows: int
    build_min_block_size: int
    builds: int
    ingests: int
    ingest_rows: int
    repeats: int  # measured repeats at least; --seconds may add more
    verify_row_ids: int
    #: buffer pool of ``served_zipf_2c``: far smaller than the decoded
    #: columns its statements touch, so the pool thrashes
    small_pool_bytes: int
    probe_seconds: float
    #: per workload: (pool size or 0, statements per repeat and client —
    #: on ``warm_scan`` a multiple of the pool size)
    ops: Dict[str, Tuple[int, int]]


SCALES: Dict[str, Scale] = {
    "full": Scale(
        rows=200_000,
        train_per_template=5,
        min_block_size=400,
        build_rows=60_000,
        build_min_block_size=200,
        builds=3,
        ingests=10,
        ingest_rows=5_000,
        repeats=5,
        verify_row_ids=200,
        small_pool_bytes=2 * 1024 * 1024,
        probe_seconds=0.2,
        ops={
            "cold_params": (0, 160),
            "warm_scan": (320, 640),
            "served_zipf_2c": (256, 340),
            "build_ingest": (0, 256),
        },
    ),
    "smoke": Scale(
        rows=5_000,
        train_per_template=2,
        min_block_size=250,
        build_rows=5_000,
        build_min_block_size=250,
        builds=1,
        ingests=2,
        ingest_rows=500,
        repeats=1,
        verify_row_ids=16,
        small_pool_bytes=64 * 1024,
        probe_seconds=0.01,
        ops={
            "cold_params": (0, 48),
            "warm_scan": (32, 96),
            "served_zipf_2c": (32, 48),
            "build_ingest": (0, 48),
        },
    ),
}

ZIPF_EXPONENT = 1.1
ZIPF_FRESH_SHARE = 0.10
