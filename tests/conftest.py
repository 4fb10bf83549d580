"""Shared fixtures: small schemas, tables and workloads."""

import numpy as np
import pytest

from repro.core import Query, Workload, column_eq, column_ge, column_lt, conjunction
from repro.storage import Schema, Table, categorical, numeric


@pytest.fixture
def two_col_schema() -> Schema:
    return Schema([numeric("cpu", (0.0, 100.0)), numeric("disk", (0.0, 1.0))])


@pytest.fixture
def two_col_table(two_col_schema: Schema) -> Table:
    rng = np.random.default_rng(0)
    return Table(
        two_col_schema,
        {
            "cpu": rng.uniform(0.0, 100.0, 5000),
            "disk": rng.uniform(0.0, 1.0, 5000),
        },
    )


@pytest.fixture
def mixed_schema() -> Schema:
    return Schema(
        [
            numeric("age", (0, 100)),
            numeric("salary", (0.0, 200_000.0)),
            categorical("city", ["nyc", "sf", "sea", "aus"]),
            categorical("level", ["junior", "mid", "senior"]),
        ]
    )


@pytest.fixture
def mixed_table(mixed_schema: Schema) -> Table:
    rng = np.random.default_rng(1)
    n = 2000
    return Table(
        mixed_schema,
        {
            "age": rng.integers(0, 100, n).astype(float),
            "salary": rng.uniform(0, 200_000, n),
            "city": rng.integers(0, 4, n),
            "level": rng.integers(0, 3, n),
        },
    )


@pytest.fixture
def mixed_workload(mixed_schema: Schema) -> Workload:
    sf = mixed_schema.encode_literal("city", "sf")
    senior = mixed_schema.encode_literal("level", "senior")
    return Workload(
        [
            Query(
                conjunction([column_ge("age", 30), column_lt("age", 40)]),
                name="age-band",
                template="age",
            ),
            Query(column_eq("city", sf), name="sf", template="city"),
            Query(
                conjunction(
                    [column_eq("level", senior), column_ge("salary", 150_000)]
                ),
                name="senior-high",
                template="comp",
            ),
        ]
    )


@pytest.fixture
def count_routes(monkeypatch):
    """``count_routes(router)`` wraps the router's ``route`` and
    returns the list every query walk is appended to."""

    def wrap(router):
        walks = []
        route = router.route

        def counted(query):
            walks.append(query)
            return route(query)

        monkeypatch.setattr(router, "route", counted)
        return walks

    return wrap
