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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.cuts import CutRegistry
from ..core.greedy import _affected_queries, _queries_referencing
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
        self.schema = schema
        self.registry = registry
        self.sample = sample
        self.workload = workload
        self.config = config
        self.featurizer = Featurizer(schema, registry)
        self.net = PolicyValueNet(
            self.featurizer.dim,
            num_actions=len(registry),
            hidden_dim=config.hidden_dim,
            seed=config.seed,
        )
        self.trainer = PPOTrainer(self.net, config.ppo)
        self.rng = np.random.default_rng(config.seed)
        # Cut outcomes over the sample are reused by every episode.
        self._cut_masks = registry.evaluate_all(sample.columns(), sample.num_rows)
        self._by_column, self._by_adv = _queries_referencing(workload)
        self._num_queries = len(workload)

    # ------------------------------------------------------------------
    # Legality (stopping condition, Sec. 5.2.1)
    # ------------------------------------------------------------------

    def legal_actions(self, sample_indices: np.ndarray) -> np.ndarray:
        """Mask of cuts whose children both meet the size constraint."""
        mask, _, _ = self._legal_actions_with_sizes(sample_indices)
        return mask

    def _legal_actions_with_sizes(
        self, sample_indices: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(legal mask, left sizes, right sizes) per candidate cut."""
        size = len(sample_indices)
        left_sizes = self._cut_masks[:, sample_indices].sum(axis=1)
        right_sizes = size - left_sizes
        b = self.config.min_leaf_size
        if self.config.allow_small_children:
            # Sec. 6.2 relaxation: one child may fall below b.
            mask = (
                (left_sizes >= 1)
                & (right_sizes >= 1)
                & (np.maximum(left_sizes, right_sizes) >= b)
            )
        else:
            mask = (left_sizes >= b) & (right_sizes >= b)
        return mask, left_sizes, right_sizes

    # ------------------------------------------------------------------
    # Episodes
    # ------------------------------------------------------------------

    def run_episode(self, deterministic: bool = False) -> EpisodeResult:
        """Construct one tree and compute its rewards."""
        tree = QdTree(self.schema, self.registry)
        tree.attach_sample(self.sample)
        root_hits = np.array(
            [tree.root.description.may_match(q.predicate) for q in self.workload],
            dtype=bool,
        )
        transitions: List[_Transition] = []
        # node_id -> #queries that intersect the node (for leaf rewards).
        hit_counts: Dict[int, int] = {}
        queue: List[Tuple[int, np.ndarray]] = [(0, root_hits)]
        while queue:
            node_id, hits = queue.pop(0)
            node = tree.node(node_id)
            indices = node.sample_indices
            assert indices is not None
            mask, left_sizes, right_sizes = self._legal_actions_with_sizes(indices)
            if not mask.any():
                hit_counts[node_id] = int(hits.sum())
                continue
            cut_state = np.empty(2 * len(self.registry))
            cut_state[0::2] = left_sizes > 0
            cut_state[1::2] = right_sizes > 0
            features = self.featurizer.featurize(node.description, cut_state)
            logits, values = self.net.forward(features[None, :])
            if deterministic:
                masked = np.where(mask, logits[0], -np.inf)
                action = int(masked.argmax())
                log_prob = 0.0
            else:
                action, log_prob = masked_sample(logits[0], mask, self.rng)
            cut = self.registry.cut(action)
            left, right = tree.apply_cut(node, cut)
            left_desc, right_desc = left.description, right.description
            left_hits = hits.copy()
            right_hits = hits.copy()
            for qi in _affected_queries(cut, self._by_column, self._by_adv):
                if not hits[qi]:
                    continue
                pred = self.workload[qi].predicate
                left_hits[qi] = left_desc.may_match(pred)
                right_hits[qi] = right_desc.may_match(pred)
            transitions.append(
                _Transition(
                    features, action, mask, log_prob, float(values[0]), node_id
                )
            )
            queue.append((left.node_id, left_hits))
            queue.append((right.node_id, right_hits))

        skips = self._subtree_skips(tree, hit_counts)
        total = self.sample.num_rows * self._num_queries
        scan_ratio = 1.0 - (skips[0] / total if total else 0.0)
        tree.assign_block_ids()
        rewards = self._rewards(tree, transitions, skips)
        return EpisodeResult(
            tree=tree, transitions=transitions, rewards=rewards, scan_ratio=scan_ratio
        )

    def _subtree_skips(
        self, tree: QdTree, leaf_hit_counts: Dict[int, int]
    ) -> Dict[int, int]:
        """Per-node S(n) from cached leaf hit counts (Sec. 5.2.2)."""
        skips: Dict[int, int] = {}
        # Children always have larger ids than their parent, so one
        # reverse pass computes every subtree sum.
        for node in reversed(tree.nodes()):
            if node.is_leaf:
                assert node.sample_indices is not None
                size = len(node.sample_indices)
                missed = self._num_queries - leaf_hit_counts.get(node.node_id, 0)
                skips[node.node_id] = size * missed
            else:
                assert node.left is not None and node.right is not None
                skips[node.node_id] = (
                    skips[node.left.node_id] + skips[node.right.node_id]
                )
        return skips

    def _rewards(
        self, tree: QdTree, transitions: List[_Transition], skips: Dict[int, int]
    ) -> np.ndarray:
        """R((n, p)) = S(n) / (|W| * |n.records|) per transition."""
        rewards = np.empty(len(transitions))
        for i, tr in enumerate(transitions):
            node = tree.node(tr.node_id)
            assert node.sample_indices is not None
            size = max(len(node.sample_indices), 1)
            rewards[i] = skips[tr.node_id] / (self._num_queries * size)
        return rewards

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
