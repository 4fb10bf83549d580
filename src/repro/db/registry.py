"""Pluggable layout-construction strategies behind one registry.

The paper's contribution is a *family* of layout builders — the greedy
qd-tree (Sec. 4), the Woodblock deep-RL agent (Sec. 5) and the
baselines they are compared against (Sec. 7.3) — but each historically
had a bespoke entry point.  :class:`LayoutStrategy` is the one
protocol they all implement now: given a :class:`BuildContext` (table,
construction sample, workload, candidate cuts, block-size floor), a
strategy returns a :class:`BuiltLayout` — either a qd-tree to freeze
or a per-row BID assignment — and :class:`repro.db.Database`
materializes it into a block store.

Strategies are looked up by name in a string-keyed registry
(:func:`get_strategy`); third-party partitioners join by calling
:func:`register_strategy`.  Unknown names raise
:class:`UnknownStrategyError`, whose message lists every registered
name — the CLI surfaces it verbatim.

Each adapter constructs exactly the configuration its legacy entry
point (``build_greedy_tree``, ``Woodblock``, ``baselines/*``) would
have used, so for equal inputs the built layout is identical — the
differential suite in ``tests/test_db_differential.py`` holds every
registered strategy to that.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from ..baselines import (
    BottomUpConfig,
    BottomUpPartitioner,
    HashPartitioner,
    KdTreePartitioner,
    RandomPartitioner,
    RangePartitioner,
)
from ..core.cuts import CutRegistry
from ..core.greedy import GreedyConfig, build_greedy_tree
from ..core.tree import QdTree
from ..core.workload import Workload
from ..rl.woodblock import Woodblock, WoodblockConfig
from ..storage.schema import Schema
from ..storage.table import Table

__all__ = [
    "BuildContext",
    "BuiltLayout",
    "LayoutStrategy",
    "UnknownStrategyError",
    "get_strategy",
    "register_strategy",
    "strategy_names",
]


@dataclass(frozen=True)
class BuildContext:
    """Everything a strategy may draw on to construct a layout.

    ``table`` is the full table the layout will be materialized over;
    ``sample`` is the (possibly smaller) construction sample with
    ``sample_block_size`` the block-size floor scaled to it
    (Sec. 5.2.1) — tree builders learn on the sample, partitioners
    assign BIDs over the full table with the unscaled
    ``min_block_size``.  ``workload``/``registry`` are ``None`` for
    workload-oblivious strategies.  ``options`` carries
    strategy-specific knobs; adapters reject unknown keys so typos
    fail loudly.
    """

    schema: Schema
    table: Table
    sample: Table
    min_block_size: int
    sample_block_size: int
    workload: Optional[Workload] = None
    registry: Optional[CutRegistry] = None
    options: Dict[str, object] = field(default_factory=dict)

    def require_workload(self, strategy: str) -> Tuple[Workload, CutRegistry]:
        """The (workload, registry) pair, or a helpful error."""
        if self.workload is None or self.registry is None:
            raise ValueError(
                f"strategy {strategy!r} is workload-driven: pass "
                f"workload=... (SQL statements or a Workload) to "
                f"build_layout()"
            )
        return self.workload, self.registry


@dataclass(frozen=True)
class BuiltLayout:
    """What a strategy hands back: a tree to freeze, or a per-row BID
    assignment over ``ctx.table`` (exactly one must be set).
    ``diagnostics`` carries builder-specific artifacts (e.g. the
    Woodblock training result)."""

    tree: Optional[QdTree] = None
    assignment: Optional[np.ndarray] = None
    diagnostics: Optional[object] = None

    def __post_init__(self) -> None:
        if (self.tree is None) == (self.assignment is None):
            raise ValueError(
                "BuiltLayout needs exactly one of tree / assignment"
            )


class LayoutStrategy:
    """Protocol every registered strategy implements.

    Subclassing is optional — any object with a ``name`` attribute and
    a ``build(ctx: BuildContext) -> BuiltLayout`` method qualifies.
    """

    name: str = ""

    def build(self, ctx: BuildContext) -> BuiltLayout:
        raise NotImplementedError


class UnknownStrategyError(ValueError):
    """Raised for a strategy name the registry does not know."""

    def __init__(self, name: str, known: Tuple[str, ...]) -> None:
        self.strategy = name
        self.known = known
        super().__init__(
            f"unknown layout strategy {name!r}; registered strategies: "
            + ", ".join(known)
        )


_REGISTRY: Dict[str, LayoutStrategy] = {}


def register_strategy(
    strategy: LayoutStrategy, replace: bool = False
) -> LayoutStrategy:
    """Add a strategy under ``strategy.name``; returns it for chaining."""
    name = strategy.name
    if not name:
        raise ValueError("strategy needs a non-empty name")
    if name in _REGISTRY and not replace:
        raise ValueError(f"strategy {name!r} already registered")
    _REGISTRY[name] = strategy
    return strategy


def strategy_names() -> Tuple[str, ...]:
    """Registered strategy names, in registration order."""
    return tuple(_REGISTRY)


def get_strategy(name: str) -> LayoutStrategy:
    """Look a strategy up by name (:class:`UnknownStrategyError` on miss)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise UnknownStrategyError(name, strategy_names()) from None


# ----------------------------------------------------------------------
# Adapter plumbing
# ----------------------------------------------------------------------


def _take(options: Dict[str, object], strategy: str, **defaults):
    """Pop known option keys with defaults; reject leftovers."""
    values = [options.pop(key, default) for key, default in defaults.items()]
    if options:
        raise ValueError(
            f"strategy {strategy!r} got unknown options: "
            + ", ".join(sorted(map(str, options)))
            + f" (accepts: {', '.join(defaults)})"
        )
    return values


def _numeric_names(schema: Schema) -> Tuple[str, ...]:
    return tuple(col.name for col in schema.numeric_columns)


# ----------------------------------------------------------------------
# The built-in strategies
# ----------------------------------------------------------------------


class GreedyStrategy(LayoutStrategy):
    """Greedy top-down qd-tree (wraps :func:`build_greedy_tree`)."""

    name = "greedy"

    def build(self, ctx: BuildContext) -> BuiltLayout:
        workload, registry = ctx.require_workload(self.name)
        allow_small, max_depth = _take(
            dict(ctx.options),
            self.name,
            allow_small_children=False,
            max_depth=None,
        )
        tree = build_greedy_tree(
            ctx.schema,
            registry,
            ctx.sample,
            workload,
            GreedyConfig(
                min_leaf_size=ctx.sample_block_size,
                allow_small_children=bool(allow_small),
                max_depth=max_depth,
            ),
        )
        return BuiltLayout(tree=tree)


class WoodblockStrategy(LayoutStrategy):
    """Woodblock deep-RL qd-tree (wraps :class:`Woodblock`)."""

    name = "woodblock"

    def build(self, ctx: BuildContext) -> BuiltLayout:
        workload, registry = ctx.require_workload(self.name)
        episodes, budget, hidden, seed, allow_small = _take(
            dict(ctx.options),
            self.name,
            episodes=150,
            time_budget_seconds=None,
            hidden_dim=128,
            seed=0,
            allow_small_children=False,
        )
        agent = Woodblock(
            ctx.schema,
            registry,
            ctx.sample,
            workload,
            WoodblockConfig(
                min_leaf_size=ctx.sample_block_size,
                episodes=int(episodes),
                time_budget_seconds=budget,
                hidden_dim=int(hidden),
                seed=int(seed),
                allow_small_children=bool(allow_small),
            ),
        )
        result = agent.train()
        return BuiltLayout(tree=result.best_tree, diagnostics=result)


class KdTreeStrategy(LayoutStrategy):
    """Median-split k-d tree baseline (workload-oblivious)."""

    name = "kdtree"

    def build(self, ctx: BuildContext) -> BuiltLayout:
        (columns,) = _take(dict(ctx.options), self.name, columns=None)
        partitioner = KdTreePartitioner(
            columns=tuple(columns) if columns else _numeric_names(ctx.schema),
            min_block_size=ctx.min_block_size,
        )
        return BuiltLayout(assignment=partitioner.partition(ctx.table))


class HashStrategy(LayoutStrategy):
    """Hash partitioning baseline (workload-oblivious)."""

    name = "hash"

    def build(self, ctx: BuildContext) -> BuiltLayout:
        columns, num_blocks = _take(
            dict(ctx.options), self.name, columns=None, num_blocks=None
        )
        if num_blocks is None:
            num_blocks = max(
                1, int(np.ceil(ctx.table.num_rows / ctx.min_block_size))
            )
        partitioner = HashPartitioner(
            columns=tuple(columns) if columns else _numeric_names(ctx.schema),
            num_blocks=int(num_blocks),
        )
        return BuiltLayout(assignment=partitioner.partition(ctx.table))


class RangeStrategy(LayoutStrategy):
    """Single-column range partitioning baseline."""

    name = "range"

    def build(self, ctx: BuildContext) -> BuiltLayout:
        (column,) = _take(dict(ctx.options), self.name, column=None)
        if column is None:
            numeric = _numeric_names(ctx.schema)
            if not numeric:
                raise ValueError(
                    "range strategy needs a numeric column "
                    "(pass column=...)"
                )
            column = numeric[0]
        partitioner = RangePartitioner(
            column=str(column), block_size=ctx.min_block_size
        )
        return BuiltLayout(assignment=partitioner.partition(ctx.table))


class RandomStrategy(LayoutStrategy):
    """Shuffled fixed-size blocks baseline."""

    name = "random"

    def build(self, ctx: BuildContext) -> BuiltLayout:
        (seed,) = _take(dict(ctx.options), self.name, seed=0)
        partitioner = RandomPartitioner(
            block_size=ctx.min_block_size, seed=int(seed)
        )
        return BuiltLayout(assignment=partitioner.partition(ctx.table))


class BottomUpStrategy(LayoutStrategy):
    """Bottom-Up row grouping (Sun et al.), the paper's SOTA baseline.

    Clustering only guarantees groups of *at least* ``b`` rows, so the
    adapter stores each group as balanced blocks of at most ``2b``.
    """

    name = "bottom_up"

    def build(self, ctx: BuildContext) -> BuiltLayout:
        workload, registry = ctx.require_workload(self.name)
        max_features, freq, selectivity, max_block = _take(
            dict(ctx.options),
            self.name,
            max_features=15,
            frequency_threshold=1,
            selectivity_threshold=None,
            max_block_size=2 * ctx.min_block_size,
        )
        partitioner = BottomUpPartitioner(
            registry,
            workload,
            BottomUpConfig(
                min_block_size=ctx.min_block_size,
                max_features=int(max_features),
                frequency_threshold=int(freq),
                selectivity_threshold=selectivity,
                max_block_size=max_block,
            ),
        )
        return BuiltLayout(
            assignment=partitioner.partition(ctx.table),
            diagnostics=tuple(partitioner.selected_features),
        )


for _strategy in (
    GreedyStrategy(),
    WoodblockStrategy(),
    KdTreeStrategy(),
    HashStrategy(),
    RangeStrategy(),
    RandomStrategy(),
    BottomUpStrategy(),
):
    register_strategy(_strategy)
