"""Woodblock: the deep-RL agent that learns to construct qd-trees.

Implements paper Sec. 5.2.  The tree-construction MDP treats every node
as an independent state (the NeuroCuts-style decomposition of
Sec. 5.2.4): an episode constructs one complete tree by popping nodes
off an exploration queue, sampling a legal cut from the policy, and
pushing the resulting children.  When a node has no legal cuts — both
children must keep at least ``b`` (sample-scaled) records, Sec. 5.2.1 —
it becomes a leaf.

After an episode, every action taken at node ``n`` receives the
normalized reward ``R = S(n) / (|W| * |n.records|)`` (Sec. 5.2.2) where
``S(n)`` is the number of skipped (record, query) pairs under ``n``'s
subtree, and PPO updates the policy.  The best tree seen (by sample
scan ratio) is tracked continuously, so a layout can be deployed at any
time/compute budget — the anytime behaviour behind paper Fig. 8.

The MDP itself — legality, the row partition, query-hit vectors and
``S(n)`` — is :mod:`repro.core.construct`, shared with Greedy; this
module is the policy (featurize, forward, sample from the masked
logits), the transition log and the PPO training loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from ..core.construct import ConstructionEnv, CutOptions, Episode
from ..core.cuts import CutRegistry
from ..core.node import QdNode
from ..core.tree import QdTree
from ..core.workload import Workload
from ..obs.clock import now
from ..storage.schema import Schema
from ..storage.table import Table
from .featurize import Featurizer
from .network import PolicyValueNet
from .ppo import PPOConfig, PPOTrainer, masked_sample

__all__ = ["WoodblockConfig", "LearningCurvePoint", "WoodblockResult", "Woodblock"]


@dataclass
class WoodblockConfig:
    """Agent configuration.

    ``min_leaf_size`` is ``b`` expressed in *sample* rows (callers
    using a sample of ratio ``s`` pass ``max(1, round(b * s))``).
    """

    min_leaf_size: int
    episodes: int = 200
    time_budget_seconds: Optional[float] = None
    hidden_dim: int = 512
    seed: int = 0
    allow_small_children: bool = False
    episodes_per_update: int = 4
    ppo: PPOConfig = field(default_factory=PPOConfig)


@dataclass(frozen=True)
class LearningCurvePoint:
    """One point of the Fig.-8-style learning curve."""

    episode: int
    elapsed_seconds: float
    episode_scan_ratio: float
    best_scan_ratio: float


@dataclass
class WoodblockResult:
    """Training outcome: the deployed tree plus diagnostics."""

    best_tree: QdTree
    best_scan_ratio: float
    curve: List[LearningCurvePoint]
    episodes_run: int
    update_stats: List[Dict[str, float]]


class _Transition:
    """One (state, action) record awaiting its episode-end reward."""

    __slots__ = ("features", "action", "mask", "log_prob", "value", "node_id")

    def __init__(
        self,
        features: np.ndarray,
        action: int,
        mask: np.ndarray,
        log_prob: float,
        value: float,
        node_id: int,
    ) -> None:
        self.features = features
        self.action = action
        self.mask = mask
        self.log_prob = log_prob
        self.value = value
        self.node_id = node_id


@dataclass
class EpisodeResult:
    """One constructed tree plus its learning signals."""

    tree: QdTree
    transitions: List["_Transition"]
    rewards: np.ndarray
    scan_ratio: float


class Woodblock:
    """The deep RL qd-tree constructor."""

    def __init__(
        self,
        schema: Schema,
        registry: CutRegistry,
        sample: Table,
        workload: Workload,
        config: WoodblockConfig,
    ) -> None:
        if len(registry) == 0:
            raise ValueError("candidate cut set is empty")
        if config.min_leaf_size < 1:
            raise ValueError("min_leaf_size must be >= 1")
        self.registry = registry
        self.config = config
        self.env = ConstructionEnv(
            schema,
            registry,
            sample,
            workload,
            config.min_leaf_size,
            config.allow_small_children,
        )
        self.featurizer = Featurizer(schema, registry)
        self.net = PolicyValueNet(
            self.featurizer.dim,
            num_actions=len(registry),
            hidden_dim=config.hidden_dim,
            seed=config.seed,
        )
        self.trainer = PPOTrainer(self.net, config.ppo)
        self.rng = np.random.default_rng(config.seed)

    def legal_actions(self, sample_indices: np.ndarray) -> np.ndarray:
        """Mask of cuts legal at a node holding these sample rows (the
        stopping condition of Sec. 5.2.1: none legal -> leaf)."""
        return self.env.legal_cuts(sample_indices).legal

    # ------------------------------------------------------------------
    # Episodes
    # ------------------------------------------------------------------

    def run_episode(self, deterministic: bool = False) -> EpisodeResult:
        """Construct one tree and compute its rewards."""
        transitions: List[_Transition] = []

        def choose(_episode: Episode, node: QdNode, options: CutOptions) -> int:
            cut_state = np.empty(2 * len(self.registry))
            cut_state[0::2] = options.left_sizes > 0
            cut_state[1::2] = options.right_sizes > 0
            features = self.featurizer.featurize(node.description, cut_state)
            logits, values = self.net.forward(features[None, :])
            if deterministic:
                masked = np.where(options.legal, logits[0], -np.inf)
                action = int(masked.argmax())
                log_prob = 0.0
            else:
                action, log_prob = masked_sample(logits[0], options.legal, self.rng)
            transitions.append(
                _Transition(
                    features,
                    action,
                    options.legal,
                    log_prob,
                    float(values[0]),
                    node.node_id,
                )
            )
            return action

        episode = self.env.walk(choose)
        # R((n, p)) = S(n) / (|W| * |n.records|) per transition.
        skips = episode.subtree_skips()
        num_queries = len(self.env.workload)
        rewards = np.array(
            [
                skips[tr.node_id]
                / (num_queries * max(episode.sizes[tr.node_id], 1))
                for tr in transitions
            ]
        )
        return EpisodeResult(
            tree=episode.tree,
            transitions=transitions,
            rewards=rewards,
            scan_ratio=episode.scan_ratio(),
        )

    # ------------------------------------------------------------------
    # Training loop
    # ------------------------------------------------------------------

    def train(
        self,
        episodes: Optional[int] = None,
        time_budget_seconds: Optional[float] = None,
    ) -> WoodblockResult:
        """Run episodes until the episode count or time budget is hit.

        Either limit may be given here or in the config; the tighter
        one wins.  Returns the best tree found (the paper deploys the
        best tree after the budget expires).
        """
        max_episodes = episodes if episodes is not None else self.config.episodes
        budget = (
            time_budget_seconds
            if time_budget_seconds is not None
            else self.config.time_budget_seconds
        )
        start = now()
        best_tree: Optional[QdTree] = None
        best_ratio = float("inf")
        curve: List[LearningCurvePoint] = []
        update_stats: List[Dict[str, float]] = []
        pending: List[EpisodeResult] = []
        episodes_run = 0
        for episode in range(max_episodes):
            if budget is not None and now() - start > budget:
                break
            result = self.run_episode()
            episodes_run += 1
            if result.scan_ratio < best_ratio:
                best_ratio = result.scan_ratio
                best_tree = result.tree
            curve.append(
                LearningCurvePoint(
                    episode=episode,
                    elapsed_seconds=now() - start,
                    episode_scan_ratio=result.scan_ratio,
                    best_scan_ratio=best_ratio,
                )
            )
            pending.append(result)
            if len(pending) >= self.config.episodes_per_update:
                stats = self._update(pending)
                if stats is not None:
                    update_stats.append(stats)
                pending = []
        if pending:
            stats = self._update(pending)
            if stats is not None:
                update_stats.append(stats)
        if best_tree is None:
            # No episodes ran (zero budget); fall back to one
            # deterministic rollout of the untrained policy.
            fallback = self.run_episode(deterministic=True)
            best_tree, best_ratio = fallback.tree, fallback.scan_ratio
            episodes_run += 1
        return WoodblockResult(
            best_tree=best_tree,
            best_scan_ratio=best_ratio,
            curve=curve,
            episodes_run=episodes_run,
            update_stats=update_stats,
        )

    def _update(self, episodes: List[EpisodeResult]) -> Optional[Dict[str, float]]:
        """One PPO update from a batch of completed episodes."""
        all_transitions: List[_Transition] = []
        all_rewards: List[np.ndarray] = []
        for result in episodes:
            if not result.transitions:
                continue
            all_transitions.extend(result.transitions)
            all_rewards.append(result.rewards)
        if not all_transitions:
            return None
        states = np.stack([t.features for t in all_transitions])
        actions = np.array([t.action for t in all_transitions], dtype=np.int64)
        masks = np.stack([t.mask for t in all_transitions])
        old_log_probs = np.array([t.log_prob for t in all_transitions])
        old_values = np.array([t.value for t in all_transitions])
        rewards = np.concatenate(all_rewards)
        return self.trainer.update(
            states, actions, masks, old_log_probs, rewards, old_values, self.rng
        )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def save_policy(self, path: str) -> None:
        """Persist the current policy/value network weights (npz)."""
        np.savez_compressed(path, **self.net.state_dict())

    def load_policy(self, path: str) -> None:
        """Restore weights saved by :meth:`save_policy`.

        The agent must have been constructed with the same schema,
        registry and hidden size (the state shapes must match).
        """
        with np.load(path) as data:
            self.net.load_state_dict({key: data[key] for key in data.files})
