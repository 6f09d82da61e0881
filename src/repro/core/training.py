"""Training and evaluation loops for placement agents.

The loops are built around :class:`VecTrainer`, which drives one agent
through the K lanes of a :class:`~repro.core.soa.SoAVecPlacementEnv` with
batched ``select_actions`` / ``observe_batch`` calls — one agent forward pass
serves K environment steps.  K=1 is the serial loop: one lane built without
auto-reset (:class:`~repro.core.manager.VNFManager` does this), which every
agent routes to its serial path for one-row batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.agents.base import Agent
from repro.core.soa import SoAVecPlacementEnv
from repro.utils.validation import check_positive


@dataclass
class TrainingConfig:
    """Configuration of the episodic training loop."""

    num_episodes: int = 200
    max_steps_per_episode: int = 2000
    evaluation_interval: int = 25
    evaluation_episodes: int = 3
    log_window: int = 10

    def __post_init__(self) -> None:
        check_positive(self.num_episodes, "num_episodes")
        check_positive(self.max_steps_per_episode, "max_steps_per_episode")
        check_positive(self.evaluation_interval, "evaluation_interval")
        check_positive(self.evaluation_episodes, "evaluation_episodes")
        check_positive(self.log_window, "log_window")


@dataclass
class TrainingHistory:
    """Per-episode training curves (the data behind the convergence figure)."""

    episode_rewards: List[float] = field(default_factory=list)
    episode_acceptance: List[float] = field(default_factory=list)
    episode_latency: List[float] = field(default_factory=list)
    episode_losses: List[float] = field(default_factory=list)
    evaluation_rewards: List[float] = field(default_factory=list)
    evaluation_episodes_at: List[int] = field(default_factory=list)

    def moving_average_reward(self, window: int = 10) -> List[float]:
        """Smoothed reward curve used in the convergence figure."""
        rewards = self.episode_rewards
        if not rewards:
            return []
        smoothed: List[float] = []
        for index in range(len(rewards)):
            start = max(0, index - window + 1)
            smoothed.append(float(np.mean(rewards[start : index + 1])))
        return smoothed

    def as_dict(self) -> Dict[str, object]:
        """JSON-friendly view of the full history."""
        return {
            "episode_rewards": list(self.episode_rewards),
            "episode_acceptance": list(self.episode_acceptance),
            "episode_latency": list(self.episode_latency),
            "episode_losses": list(self.episode_losses),
            "evaluation_rewards": list(self.evaluation_rewards),
            "evaluation_episodes_at": list(self.evaluation_episodes_at),
        }


@dataclass
class EvaluationResult:
    """Aggregate greedy-policy performance over a handful of episodes."""

    mean_reward: float
    mean_acceptance: float
    mean_latency_ms: float
    episodes: int
    #: Mean accepted-then-disrupted placements per episode (0 without
    #: fault injection).
    mean_disrupted: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly view of the evaluation result."""
        return {
            "mean_reward": self.mean_reward,
            "mean_acceptance": self.mean_acceptance,
            "mean_latency_ms": self.mean_latency_ms,
            "episodes": self.episodes,
            "mean_disrupted": self.mean_disrupted,
        }


class VecTrainer:
    """Episodic trainer driving one agent through K vectorized lanes.

    Every decision loop iteration performs one batched
    ``agent.select_actions`` over the ``(K, state_dim)`` state batch, one
    ``venv.step`` and one batched ``agent.observe_batch`` — the per-step agent
    cost is amortized over K environment transitions.  Episode accounting is
    lane-agnostic: each lane completion contributes one entry to the training
    history, in completion order; at K=1 that is the serial episode sequence.
    """

    def __init__(
        self,
        venv: SoAVecPlacementEnv,  # or the reference oracle, same surface
        agent: Agent,
        config: Optional[TrainingConfig] = None,
    ) -> None:
        if agent.state_dim != venv.state_dim:
            raise ValueError(
                f"agent expects state_dim={agent.state_dim} but the environment "
                f"produces {venv.state_dim}"
            )
        if agent.num_actions != venv.num_actions:
            raise ValueError(
                f"agent expects num_actions={agent.num_actions} but the environment "
                f"has {venv.num_actions}"
            )
        self.venv = venv
        self.agent = agent
        self.config = config or TrainingConfig()
        self.history = TrainingHistory()

    @property
    def num_lanes(self) -> int:
        """Number of parallel environment lanes."""
        return self.venv.num_lanes

    # ------------------------------------------------------------------ #
    # The vectorized decision loop
    # ------------------------------------------------------------------ #
    def run_episodes(
        self, episodes: int, learn: bool = True, greedy: bool = False
    ) -> List[Dict[str, float]]:
        """Reset all lanes and stream until ``episodes`` lane-episodes finish.

        Returns one summary dict per completed episode (in completion order)
        with its ``reward``, ``acceptance``, ``latency``, ``loss`` and the
        completing ``lane``.  Lanes that exceed ``max_steps_per_episode`` are
        truncated and summarized from their in-progress statistics.

        Masks are a pure function of lane state, so a learning run selects
        with the ``next_masks`` it computed for the replay after the previous
        step; masks are recomputed only when a lane was restarted through
        ``reset_lane`` (and on every step of a non-learning run).
        """
        if episodes <= 0:
            return []
        venv = self.venv
        states = venv.reset()
        lane_steps = np.zeros(venv.num_lanes, dtype=int)
        summaries: List[Dict[str, float]] = []
        #: Losses observed since the last episode completion; each completing
        #: episode is labelled with their mean (for K=1 this is exactly the
        #: episode's own mean loss).
        recent_losses: List[float] = []
        masks = None
        while len(summaries) < episodes:
            if masks is None:
                masks = venv.valid_action_masks()
            actions = self.agent.select_actions(states, masks, greedy=greedy)
            # Lean-step protocol: the trainer only consumes episode_stats of
            # done lanes, which the lean accessors expose without the venv
            # building K info dicts per step.
            next_states, rewards, dones, _ = venv.step(actions, info=False)
            lane_steps += 1
            # Lanes hitting the step cap end their episode here.  The
            # truncation flag is handed to the learner separately from the
            # termination flag: replay learners keep bootstrapping through
            # the cap, rollout learners flush the capped lane so no buffer
            # spans the forced reset below.
            truncations = (
                lane_steps >= self.config.max_steps_per_episode
            ) & ~dones
            next_masks = None
            if learn:
                next_masks = venv.valid_action_masks()
                self.agent.observe_batch(
                    states, actions, rewards, next_states, dones,
                    next_masks, truncations=truncations,
                )
                diagnostics = self.agent.update()
                if diagnostics and "loss" in diagnostics:
                    recent_losses.append(diagnostics["loss"])
            finished_this_step: List[Dict[str, float]] = []
            # Finishing lanes restart only when a later step will run them.
            finishing = int(np.count_nonzero(dones | truncations))
            more_needed = len(summaries) + finishing < episodes
            lane_stats = None  # fetched once per step, only if a lane truncates
            for lane, done in enumerate(dones):
                truncated = bool(truncations[lane])
                if not done and not truncated:
                    continue
                if done:
                    stats = venv.last_episode_stats(lane)
                else:
                    if lane_stats is None:
                        lane_stats = venv.lane_stats()
                    stats = lane_stats[lane].as_dict()
                finished_this_step.append(
                    {
                        "reward": float(stats["total_reward"]),
                        "acceptance": float(stats["acceptance_ratio"]),
                        "latency": float(stats["mean_latency_ms"]),
                        "lane": lane,
                    }
                )
                lane_steps[lane] = 0
                # Keep the lane streaming if more episodes are needed; a
                # done lane on an auto-reset venv has restarted already.
                needs_restart = (not venv.auto_reset) if done else True
                if needs_restart and more_needed:
                    next_states[lane] = venv.reset_lane(lane)
                    next_masks = None
            if finished_this_step:
                loss = float(np.mean(recent_losses)) if recent_losses else 0.0
                recent_losses.clear()
                for summary in finished_this_step:
                    summary["loss"] = loss
                summaries.extend(finished_this_step)
            states = next_states
            masks = next_masks
        if learn:
            self.agent.end_episode()
        return summaries[:episodes]

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    def train(self, verbose: bool = False) -> TrainingHistory:
        """Run the full training schedule and return the learning curves."""
        target = self.config.num_episodes
        interval = self.config.evaluation_interval
        completed = 0
        while completed < target:
            boundary = min(target, (completed // interval + 1) * interval)
            for summary in self.run_episodes(
                boundary - completed, learn=True, greedy=False
            ):
                self.history.episode_rewards.append(summary["reward"])
                self.history.episode_acceptance.append(summary["acceptance"])
                self.history.episode_latency.append(summary["latency"])
                self.history.episode_losses.append(summary["loss"])
            completed = boundary
            if completed % interval == 0:
                evaluation = self.evaluate(self.config.evaluation_episodes)
                self.history.evaluation_rewards.append(evaluation.mean_reward)
                self.history.evaluation_episodes_at.append(completed)
                if verbose:
                    window = self.config.log_window
                    recent = self.history.episode_rewards[-window:]
                    print(
                        f"episode {completed:4d} | "
                        f"reward(avg {window}) {np.mean(recent):8.2f} | "
                        f"eval reward {evaluation.mean_reward:8.2f} | "
                        f"eval acceptance {evaluation.mean_acceptance:5.2f}"
                    )
        return self.history

    # ------------------------------------------------------------------ #
    # Evaluation
    # ------------------------------------------------------------------ #
    def evaluate(self, episodes: Optional[int] = None) -> EvaluationResult:
        """Run greedy (no-exploration, no-learning) episodes."""
        episodes = episodes or self.config.evaluation_episodes
        summaries = self.run_episodes(episodes, learn=False, greedy=True)
        return EvaluationResult(
            mean_reward=float(np.mean([s["reward"] for s in summaries])),
            mean_acceptance=float(np.mean([s["acceptance"] for s in summaries])),
            mean_latency_ms=float(np.mean([s["latency"] for s in summaries])),
            episodes=episodes,
        )

    def close(self) -> None:
        """Release the vectorized environment."""
        self.venv.close()
