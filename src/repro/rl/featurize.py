"""State featurization for the Woodblock agent (paper Sec. 5.2.3).

Each MDP state is a qd-tree node; its feature vector is built from the
node's semantic description:

* per numeric column: the interval bounds, normalized into ``[0, 1]``
  by the column's domain (the paper binary-encodes integer bounds; for
  float-valued domains a normalized continuous encoding carries the
  same information into the first dense layer);
* per categorical column: the raw ``|Dom|``-bit categorical mask;
* per advanced cut: the ``(may_true, may_false)`` possibility bits;
* per candidate cut: two bits ``(may_true, may_false)`` describing
  whether the node straddles the cut — giving the policy a direct view
  of which actions still discriminate (the "special treatment of
  categorical predicates in featurization" the paper alludes to,
  generalized to all cuts).  The caller supplies them: the agent reads
  them off its cut-outcome matrix (does the node hold sample records on
  each side of the cut?).
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

import numpy as np

from ..core.cuts import CutRegistry
from ..core.node import NodeDescription
from ..storage.schema import Schema

__all__ = ["Featurizer"]


class Featurizer:
    """Maps :class:`NodeDescription` states to fixed-size vectors."""

    def __init__(self, schema: Schema, registry: CutRegistry) -> None:
        self.schema = schema
        self.registry = registry
        self._numeric = [c.name for c in schema.numeric_columns]
        self._categorical = [
            (c.name, c.domain_size) for c in schema.categorical_columns
        ]
        self._domains: Dict[str, Tuple[float, float]] = {}
        for col in schema.numeric_columns:
            if col.domain is not None:
                self._domains[col.name] = (float(col.domain[0]), float(col.domain[1]))
        self.num_advanced = registry.num_advanced_cuts
        self.num_cuts = len(registry)
        self.dim = (
            2 * len(self._numeric)
            + sum(size for _, size in self._categorical)
            + 2 * self.num_advanced
            + 2 * self.num_cuts
        )

    def _normalize(self, column: str, value: float, default: float) -> float:
        if not math.isfinite(value):
            return default
        domain = self._domains.get(column)
        if domain is None:
            return default
        lo, hi = domain
        if hi <= lo:
            return default
        return min(max((value - lo) / (hi - lo), 0.0), 1.0)

    def featurize(
        self, description: NodeDescription, cut_state: np.ndarray
    ) -> np.ndarray:
        """The feature vector for one node description and its
        per-cut ``(may_true, may_false)`` bits ``cut_state`` (shape
        ``(2 * num_cuts,)``)."""
        if len(cut_state) != 2 * self.num_cuts:
            raise ValueError(f"cut_state must have length {2 * self.num_cuts}")
        parts: List[np.ndarray] = []
        bounds = np.empty(2 * len(self._numeric))
        for i, name in enumerate(self._numeric):
            interval = description.hypercube.interval(name)
            bounds[2 * i] = self._normalize(name, interval.lo, 0.0)
            bounds[2 * i + 1] = self._normalize(name, interval.hi, 1.0)
        parts.append(bounds)
        for name, size in self._categorical:
            mask = description.categorical_masks.get(name)
            if mask is None:
                parts.append(np.ones(size))
            else:
                parts.append(mask.astype(np.float64))
        if self.num_advanced:
            parts.append(description.adv_true.astype(np.float64))
            parts.append(description.adv_false.astype(np.float64))
        parts.append(np.asarray(cut_state, dtype=np.float64))
        vec = np.concatenate(parts)
        assert len(vec) == self.dim
        return vec
