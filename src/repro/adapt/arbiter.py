"""Learned multi-layout arbitration: realized costs over priors.

The static arbiter scores every candidate layout with **(blocks
surviving the min-max prune, estimated bytes the filter columns
occupy)** and takes the lexicographic argmin.  The first component is
exact — the prune *is* the scan's block list — but the second is a
min-max-stats estimate that knows nothing about what serving actually
pays (projection columns, dictionary widths, repeated templates).

:class:`LearnedArbiter` is a drop-in ``policy`` for
:class:`~repro.exec.stages.ArbitrateStage` that keeps the exact blocks
component as the primary criterion (so it can never scan *more* blocks
than the static arbiter) and replaces the bytes estimate with a
**realized-cost posterior** per (layout generation, template key),
learned online from the record sink.  Decision rule per arrival:

1. score each layout ``(blocks_surviving, posterior mean realized
   bytes)``, falling back to the static min-max bytes prior for
   (generation, template) arms that have never been observed;
2. with probability ``epsilon``, explore uniformly among the arms
   *tied on the exact blocks minimum* (exploration is free in blocks,
   it only samples the bytes dimension);
3. otherwise exploit: lexicographic argmin of the learned scores.

Because the primary component is exact and exploration never leaves
the blocks-minimal set, cumulative blocks scanned is ≤ the static
arbiter's by construction; on a stationary workload the posteriors
converge and the winners coincide with the static choice whenever the
priors ranked the layouts correctly.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..obs.stats import Stats, counter, gauge
from .signature import template_key

__all__ = ["ArbiterStats", "LearnedArbiter"]


@dataclass
class ArbiterStats(Stats):
    """Counters describing the learned arbiter's behaviour so far."""

    decisions: int = counter("repro_arbiter_decisions_total", "Arbitration decisions")
    #: Decisions that agreed with the static (blocks, bytes-estimate)
    #: argmin — the arbiter's "wins with the prior", convergence signal.
    agreements: int = counter("repro_arbiter_agreements_total", "Decisions matching the prior")
    #: Decisions taken by ε-exploration rather than exploitation.
    explored: int = counter("repro_arbiter_explored_total", "Decisions taken by exploration")
    #: Cumulative estimated extra bytes accepted to explore (chosen
    #: arm's learned bytes − best arm's learned bytes at decision
    #: time).  Zero in blocks: exploration never leaves the
    #: blocks-minimal set.
    regret_bytes: int = counter("repro_arbiter_regret_bytes_total", "Bytes accepted to explore")
    #: Distinct (generation, template) arms with observed posteriors.
    arms_learned: int = gauge("repro_arbiter_arms_learned", "Arms with posteriors")
    #: Realized-cost observations folded into the posteriors.
    observations: int = counter()

    @property
    def agreement_rate(self) -> float:
        return self.agreements / self.decisions if self.decisions else 0.0


class LearnedArbiter:
    """ε-greedy bandit over layouts, keyed by (generation, template).

    Implements both seams of the adaptive multi-layout loop: the
    ``policy`` protocol of :class:`~repro.exec.stages.ArbitrateStage`
    (:meth:`choose`) and the record-sink protocol of the pipeline's
    tail stage (:meth:`observe`), so wiring it in is::

        arbiter = LearnedArbiter(epsilon=0.05, seed=0)
        db.serve_multi(layouts, arbiter=arbiter)   # wires both ends

    Parameters
    ----------
    epsilon:
        Exploration probability among blocks-tied arms.  ``0`` makes
        the policy deterministic (pure exploitation over posteriors).
    seed:
        RNG seed for exploration draws (deterministic replays).
    """

    def __init__(self, epsilon: float = 0.05, seed: int = 0) -> None:
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must be in [0, 1]")
        self.epsilon = epsilon
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        #: (generation, template) -> (observations, mean realized bytes)
        self._posterior: Dict[Tuple[int, str], Tuple[int, float]] = {}
        self._stats = ArbiterStats()

    # -- the ArbitrateStage policy protocol ----------------------------

    def choose(
        self,
        query,
        bindings: Sequence[object],
        scores: Sequence[Tuple[int, int]],
    ) -> int:
        """Pick a layout index for this arrival (see module docstring)."""
        template = template_key(query)
        with self._lock:
            learned = []
            for binding, (blocks, bytes_est) in zip(bindings, scores):
                arm = (binding.generation, template)
                seen = self._posterior.get(arm)
                learned.append(
                    (blocks, seen[1] if seen is not None else float(bytes_est))
                )
            min_blocks = min(b for b, _ in learned)
            tied = [
                i for i, (b, _) in enumerate(learned) if b == min_blocks
            ]
            greedy = min(tied, key=lambda i: (learned[i][1], i))
            explore = (
                len(tied) > 1
                and self.epsilon > 0.0
                and self._rng.random() < self.epsilon
            )
            index = (
                int(tied[self._rng.integers(len(tied))]) if explore else greedy
            )
            self._stats.decisions += 1
            static = min(range(len(scores)), key=lambda i: scores[i])
            if index == static:
                self._stats.agreements += 1
            if explore:
                self._stats.explored += 1
                self._stats.regret_bytes += int(
                    round(learned[index][1] - learned[greedy][1])
                )
            return index

    # -- the RecordStage sink protocol ---------------------------------

    def observe(self, ctx) -> None:
        """Fold one finished execution's realized cost back into the
        posterior of the (generation, template) arm that served it."""
        query, stats = ctx.query, ctx.stats
        if query is None or stats is None:
            return
        arm = (ctx.generation, template_key(query))
        with self._lock:
            count, mean = self._posterior.get(arm, (0, 0.0))
            count += 1
            mean += (float(stats.bytes_read) - mean) / count
            self._posterior[arm] = (count, mean)
            self._stats.observations += 1

    # -- observability -------------------------------------------------

    def posterior(
        self, generation: int, template: str
    ) -> Optional[Tuple[int, float]]:
        """(observations, mean realized bytes) for one arm, if seen."""
        with self._lock:
            return self._posterior.get((generation, template))

    def stats(self) -> ArbiterStats:
        with self._lock:
            return replace(self._stats, arms_learned=len(self._posterior))

    def publish(self, registry: object, **labels: object) -> None:
        """Publish :meth:`stats` as a view into a
        :class:`~repro.obs.registry.MetricsRegistry`."""
        registry.register_view(
            "learned_arbiter", labels, lambda: self.stats().rows()
        )

    def report_lines(self) -> Tuple[str, ...]:
        s = self.stats()
        return (
            f"learned arbiter    {s.decisions} decisions / "
            f"{100 * s.agreement_rate:.1f}% agree with prior / "
            f"{s.explored} explored / regret {s.regret_bytes} bytes "
            f"({s.arms_learned} arms)",
        )

    def __repr__(self) -> str:
        s = self.stats()
        return (
            f"LearnedArbiter(decisions={s.decisions}, "
            f"agreement={s.agreement_rate:.2f}, arms={s.arms_learned})"
        )
