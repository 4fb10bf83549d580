"""Core qd-tree library: the paper's primary contribution.

Exports the predicate algebra, node descriptions, the
:class:`~repro.core.tree.QdTree` itself, candidate-cut extraction, the
skipping cost model, the construction environment and its greedy policy,
the ingestion and query routers, and the Sec. 6 extensions (overlap,
two-tree replication).
"""

from .cost import (
    access_percentage,
    leaf_sizes,
    per_query_accessed,
    scan_ratio,
    skipped_tuples,
    subtree_skips,
    tuples_accessed,
)
from .construct import ConstructionEnv
from .cuts import CutRegistry, extract_candidate_cuts
from .greedy import GreedyConfig, build_greedy_tree
from .ingest import IngestionPipeline
from .hypercube import Hypercube, Interval
from .node import NodeDescription, QdNode
from .overlap import OverlapLayout, build_overlap_layout, hypercubes_adjacent
from .predicates import (
    AdvancedCut,
    And,
    ColumnPredicate,
    Not,
    Op,
    Or,
    Predicate,
    TruePredicate,
    column_eq,
    column_ge,
    column_gt,
    column_in,
    column_le,
    column_lt,
    conjunction,
    disjunction,
)
from .replication import TwoTreeLayout, build_two_tree_layout, combined_accessed
from .router import QueryRouter, RoutedQuery
from .tree import QdTree
from .validate import ValidationReport, validate_layout
from .workload import Query, Workload

__all__ = [
    "AdvancedCut",
    "And",
    "ColumnPredicate",
    "ConstructionEnv",
    "CutRegistry",
    "GreedyConfig",
    "Hypercube",
    "IngestionPipeline",
    "Interval",
    "NodeDescription",
    "Not",
    "Op",
    "Or",
    "OverlapLayout",
    "Predicate",
    "QdNode",
    "QdTree",
    "Query",
    "QueryRouter",
    "RoutedQuery",
    "TruePredicate",
    "TwoTreeLayout",
    "ValidationReport",
    "Workload",
    "validate_layout",
    "access_percentage",
    "build_greedy_tree",
    "build_overlap_layout",
    "build_two_tree_layout",
    "column_eq",
    "column_ge",
    "column_gt",
    "column_in",
    "column_le",
    "column_lt",
    "combined_accessed",
    "conjunction",
    "disjunction",
    "extract_candidate_cuts",
    "hypercubes_adjacent",
    "leaf_sizes",
    "per_query_accessed",
    "scan_ratio",
    "skipped_tuples",
    "subtree_skips",
    "tuples_accessed",
]
