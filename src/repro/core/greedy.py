"""Greedy top-down qd-tree construction (paper Sec. 4, Algorithm 1).

Starting from the singleton tree, every splittable leaf greedily takes
the cut that maximizes the skipping objective ``C(T ⊕ (p, n))``; a
split is kept only when it strictly improves ``C`` (the paper proves
approximation guarantees for this scheme under tree-submodularity).

Greedy is one *chooser* over the construction walk of
:mod:`repro.core.construct`, which states legality, the row partition
and the incremental query-hit vectors; this module only scores the
legal cuts of a node (:func:`cut_gains`) and picks the best one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..storage.schema import Schema
from ..storage.table import Table
from .construct import ConstructionEnv, CutOptions, Episode
from .cuts import CutRegistry
from .node import QdNode
from .tree import QdTree
from .workload import Workload

__all__ = ["GreedyConfig", "build_greedy_tree", "choose_max_gain", "cut_gains"]


@dataclass
class GreedyConfig:
    """Tuning knobs for greedy construction.

    Parameters
    ----------
    min_leaf_size:
        ``b`` — the minimum rows per block, in *sample* rows.  Callers
        working with a sample of ratio ``s`` should pass
        ``max(1, round(b * s))``.
    allow_small_children:
        The Sec. 6.2 relaxation: permit one child below ``b`` (used
        before overlap-based replication).
    max_depth:
        Optional hard depth cap.
    """

    min_leaf_size: int
    allow_small_children: bool = False
    max_depth: Optional[int] = None


def cut_gains(episode: Episode, node: QdNode, options: CutOptions) -> np.ndarray:
    """``C(T ⊕ (p, node)) - C(T)`` per candidate cut ``p`` over the
    sample: ``>= 0`` for a legal cut, ``-1`` for an illegal one."""
    actions = np.flatnonzero(options.legal)
    left_hits, right_hits = episode.child_hits(node, actions)
    hits = episode.hits[node.node_id]
    num_queries = len(hits)
    gains = np.full(len(options.legal), -1, dtype=np.int64)
    gains[actions] = (
        options.left_sizes[actions] * (num_queries - left_hits.sum(axis=1))
        + options.right_sizes[actions] * (num_queries - right_hits.sum(axis=1))
        - episode.sizes[node.node_id] * (num_queries - int(hits.sum()))
    )
    return gains


def choose_max_gain(
    episode: Episode, node: QdNode, options: CutOptions
) -> Optional[int]:
    """Algorithm 1's policy: the first cut (registry order) of maximal
    gain, kept only when it strictly improves ``C``."""
    gains = cut_gains(episode, node, options)
    best = int(gains.argmax())
    return best if gains[best] > 0 else None


def build_greedy_tree(
    schema: Schema,
    registry: CutRegistry,
    sample: Table,
    workload: Workload,
    config: GreedyConfig,
) -> QdTree:
    """Run Algorithm 1 and return the constructed qd-tree.

    ``sample`` is the (possibly down-sampled) tuple set used to size
    children and estimate gains.
    """
    if config.min_leaf_size < 1:
        raise ValueError("min_leaf_size must be >= 1")
    env = ConstructionEnv(
        schema,
        registry,
        sample,
        workload,
        config.min_leaf_size,
        config.allow_small_children,
    )
    return env.walk(choose_max_gain, max_depth=config.max_depth).tree
