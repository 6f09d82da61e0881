"""Deep Q-Network agents: DQN, Double DQN and Dueling DQN.

These are the learning algorithms at the heart of the reproduced paper.  The
implementation follows the standard recipe — experience replay, a separate
target network updated every ``target_update_interval`` steps (or softly with
``tau``), epsilon-greedy exploration over masked action values, and a Huber
loss on the TD error.  Learning is fully vectorized: every update samples a
contiguous ``(batch, features)`` minibatch from replay and performs exactly
one training-mode forward pass and one backward pass on the online network.

>>> agent = DQNAgent(state_dim=16, num_actions=5, seed=0)
>>> action = agent.select_action(state, mask=valid_mask)
>>> agent.observe(state, action, reward, next_state, done, next_mask=mask)
>>> diagnostics = agent.update()       # {} until min_replay_size is reached
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.agents.base import Agent
from repro.agents.exploration import EpsilonGreedy, ExplorationSchedule, LinearDecaySchedule
from repro.agents.replay import (
    PrioritizedReplayBuffer,
    ReplayBuffer,
    Transition,
    TransitionBatch,
)
from repro.nn.losses import HuberLoss
from repro.nn.network import MLP
from repro.nn.optimizers import Adam
from repro.utils.rng import RandomState, derive_seed
from repro.utils.validation import check_positive, check_probability


@dataclass
class DQNConfig:
    """Hyperparameters of the DQN family.

    The defaults are the reference configuration used by the benchmark
    harness; they train to a sensible policy on the 16-edge topology in a few
    hundred episodes on a laptop.
    """

    hidden_layers: Sequence[int] = (128, 128)
    learning_rate: float = 1e-3
    discount: float = 0.95
    batch_size: int = 64
    replay_capacity: int = 50_000
    min_replay_size: int = 500
    target_update_interval: int = 250
    soft_target_tau: Optional[float] = None
    gradient_clip_norm: float = 10.0
    update_every: int = 1
    double_q: bool = False
    dueling: bool = False
    prioritized_replay: bool = False
    priority_alpha: float = 0.6
    priority_beta: float = 0.4
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_steps: int = 20_000

    def __post_init__(self) -> None:
        check_positive(self.learning_rate, "learning_rate")
        check_probability(self.discount, "discount")
        check_positive(self.batch_size, "batch_size")
        check_positive(self.replay_capacity, "replay_capacity")
        check_positive(self.min_replay_size, "min_replay_size")
        check_positive(self.target_update_interval, "target_update_interval")
        check_positive(self.update_every, "update_every")
        if self.soft_target_tau is not None:
            check_probability(self.soft_target_tau, "soft_target_tau")
        if self.min_replay_size < self.batch_size:
            raise ValueError("min_replay_size must be >= batch_size")

    def exploration_schedule(self) -> ExplorationSchedule:
        """The epsilon schedule implied by the config."""
        return LinearDecaySchedule(
            self.epsilon_start, self.epsilon_end, self.epsilon_decay_steps
        )


class DQNAgent(Agent):
    """Deep Q-learning with experience replay and a target network."""

    name = "dqn"

    def __init__(
        self,
        state_dim: int,
        num_actions: int,
        config: Optional[DQNConfig] = None,
        seed: RandomState = None,
    ) -> None:
        super().__init__(state_dim, num_actions)
        self.config = config or DQNConfig()
        if self.config.double_q and self.config.dueling:
            self.name = "dueling_double_dqn"
        elif self.config.double_q:
            self.name = "double_dqn"
        elif self.config.dueling:
            self.name = "dueling_dqn"

        network_seed = derive_seed(seed, "online")
        target_seed = derive_seed(seed, "target")
        layer_sizes = [state_dim, *self.config.hidden_layers, self._head_dim()]
        self.online_network = MLP(layer_sizes, seed=network_seed)
        self.target_network = MLP(layer_sizes, seed=target_seed)
        self.target_network.copy_from(self.online_network, tau=1.0)

        self.optimizer = Adam(self.config.learning_rate)
        self.loss = HuberLoss()
        if self.config.prioritized_replay:
            self.replay: ReplayBuffer = PrioritizedReplayBuffer(
                self.config.replay_capacity,
                alpha=self.config.priority_alpha,
                beta=self.config.priority_beta,
                seed=derive_seed(seed, "replay"),
            )
        else:
            self.replay = ReplayBuffer(
                self.config.replay_capacity, seed=derive_seed(seed, "replay")
            )
        self.exploration = EpsilonGreedy(
            self.config.exploration_schedule(), seed=derive_seed(seed, "explore")
        )
        self._environment_steps = 0
        self._steps_since_update = 0
        self.last_loss: Optional[float] = None

    # ------------------------------------------------------------------ #
    # Q-value heads
    # ------------------------------------------------------------------ #
    def _head_dim(self) -> int:
        """Width of the network output head.

        The dueling architecture predicts one state value plus one advantage
        per action and combines them in :meth:`_combine_head`.
        """
        return self.num_actions + 1 if self.config.dueling else self.num_actions

    def _combine_head(self, head: np.ndarray) -> np.ndarray:
        """Combine the network head into Q-values."""
        head = np.atleast_2d(head)
        if not self.config.dueling:
            return head
        value = head[:, :1]
        advantage = head[:, 1:]
        return value + advantage - advantage.mean(axis=1, keepdims=True)

    def q_values(self, state: np.ndarray, target: bool = False) -> np.ndarray:
        """Q-values of a single state from the online (or target) network."""
        state = self._validate_state(state)
        network = self.target_network if target else self.online_network
        return self._combine_head(network.predict(state))[0]

    def batch_q_values(self, states: np.ndarray, target: bool = False) -> np.ndarray:
        """Q-values of a batch of states."""
        network = self.target_network if target else self.online_network
        return self._combine_head(network.predict(np.atleast_2d(states)))

    # ------------------------------------------------------------------ #
    # Agent interface
    # ------------------------------------------------------------------ #
    def select_action(
        self,
        state: np.ndarray,
        mask: Optional[np.ndarray] = None,
        greedy: bool = False,
    ) -> int:
        q_values = self.q_values(state)
        return self.exploration.select(
            q_values, self._environment_steps, mask=mask, greedy=greedy
        )

    def select_actions(
        self,
        states: np.ndarray,
        masks: Optional[np.ndarray] = None,
        greedy: bool = False,
    ) -> np.ndarray:
        """One ``batch_q_values`` forward plus vectorized masked epsilon-greedy.

        For a single row this calls :meth:`select_action` so that K=1
        training consumes the exploration RNG exactly like the serial loop.
        """
        states = self._validate_states(states)
        masks = self._validate_masks(masks, states.shape[0])
        if states.shape[0] == 1:
            mask = None if masks is None else masks[0]
            return np.array(
                [self.select_action(states[0], mask=mask, greedy=greedy)], dtype=int
            )
        q_values = self.batch_q_values(states)
        return self.exploration.select_batch(
            q_values, self._environment_steps, masks=masks, greedy=greedy
        )

    def observe_batch(
        self,
        states: np.ndarray,
        actions: np.ndarray,
        rewards: np.ndarray,
        next_states: np.ndarray,
        dones: np.ndarray,
        next_masks: Optional[np.ndarray] = None,
        truncations: Optional[np.ndarray] = None,
    ) -> None:
        """Push one replay transition per lane (validated batch-wise).

        ``truncations`` is accepted but deliberately ignored: a step-cap
        truncation is not a termination, so the stored transition keeps
        ``done=False`` and the TD target bootstraps from the next state —
        the standard terminated-vs-truncated treatment (and exactly what the
        serial trainer always stored at its step cap).
        """
        states = self._validate_states(states)
        next_states = self._validate_states(next_states)
        actions = np.asarray(actions, dtype=int).ravel()
        rewards = np.asarray(rewards, dtype=float).ravel()
        dones = np.asarray(dones, dtype=bool).ravel()
        next_masks = self._validate_masks(next_masks, states.shape[0])
        for row in range(states.shape[0]):
            self._environment_steps += 1
            self._steps_since_update += 1
            self.replay.add(
                Transition(
                    state=states[row],
                    action=self._validate_action(int(actions[row])),
                    reward=float(rewards[row]),
                    next_state=next_states[row],
                    done=bool(dones[row]),
                    next_mask=None if next_masks is None else next_masks[row],
                )
            )

    def observe(
        self,
        state: np.ndarray,
        action: int,
        reward: float,
        next_state: np.ndarray,
        done: bool,
        next_mask: Optional[np.ndarray] = None,
    ) -> None:
        self._environment_steps += 1
        self._steps_since_update += 1
        self.replay.add(
            Transition(
                state=self._validate_state(state),
                action=self._validate_action(action),
                reward=float(reward),
                next_state=self._validate_state(next_state),
                done=bool(done),
                next_mask=None if next_mask is None else np.asarray(next_mask, bool),
            )
        )

    def update(self) -> Dict[str, float]:
        """Sample a batch and take one TD-regression step (when due).

        Each call performs at most one gradient step, due once
        ``update_every`` new transitions have accumulated beyond those
        already consumed by earlier updates — an explicit credit counter
        rather than a modulo on the global step counter, so K-lane training
        (which adds K credits per decision step) never skips updates at
        unaligned multiples.  An update consumes ``update_every`` credits,
        so repeated calls can catch up after a burst of observations; unspent
        credits saturate at ``replay_capacity`` (credits for evicted
        transitions are meaningless).  Note the update-to-data ratio under a
        once-per-decision-step caller like ``VecTrainer`` is 1/K of the
        serial trainer's — the standard synchronous-vectorized regime; call
        ``update()`` more often per step to keep the serial ratio.
        """
        if len(self.replay) < self.config.min_replay_size:
            return {}
        if self._steps_since_update < self.config.update_every:
            return {}
        self._steps_since_update = min(
            self._steps_since_update - self.config.update_every,
            self.config.replay_capacity,
        )
        batch = self.replay.sample(self.config.batch_size)
        diagnostics = self._learn_from_batch(batch)
        self.training_steps += 1
        self._maybe_update_target()
        return diagnostics

    # ------------------------------------------------------------------ #
    # Learning internals
    # ------------------------------------------------------------------ #
    def _bootstrap_values(self, batch: TransitionBatch) -> np.ndarray:
        """Max (or double-Q) next-state values, with invalid actions masked."""
        target_q = self.batch_q_values(batch.next_states, target=True)
        if self.config.double_q:
            online_q = self.batch_q_values(batch.next_states, target=False)
            selector = online_q
        else:
            selector = target_q
        if batch.next_masks is not None:
            selector = np.where(batch.next_masks, selector, -np.inf)
        best_actions = np.argmax(selector, axis=1)
        values = target_q[np.arange(len(batch)), best_actions]
        # A state whose mask excludes every action contributes zero bootstrap.
        if batch.next_masks is not None:
            no_valid = ~batch.next_masks.any(axis=1)
            values = np.where(no_valid, 0.0, values)
        return values

    def _learn_from_batch(self, batch: TransitionBatch) -> Dict[str, float]:
        """One vectorized TD-regression step on a whole minibatch.

        The online network runs exactly one training-mode forward pass on
        ``batch.states``; Q-values, TD errors, priorities and the output
        gradient are all derived from it before a single backward pass.
        """
        rows = np.arange(len(batch))
        bootstrap = self._bootstrap_values(batch)
        targets_for_actions = batch.rewards + self.config.discount * bootstrap * (
            ~batch.dones
        )

        head = np.atleast_2d(self.online_network.forward(batch.states, training=True))
        current_q = self._combine_head(head)
        td_errors = targets_for_actions - current_q[rows, batch.actions]
        self.replay.update_priorities(batch.indices, np.abs(td_errors))

        if self.config.dueling:
            # Per-action loss on the taken action; the gradient maps back to
            # the [V, A₁..A_n] head through Q_a = V + A_a − mean(A).
            loss_value, grad_q_taken = self.loss.value_and_grad(
                current_q[rows, batch.actions].reshape(-1, 1),
                targets_for_actions.reshape(-1, 1),
                batch.weights,
            )
            grad_q_taken = grad_q_taken.ravel()
            grad_head = np.zeros_like(head)
            # dQ_a / dV = 1
            grad_head[:, 0] = grad_q_taken
            # dQ_a / dA_j = δ_{aj} − 1/n
            grad_head[:, 1:] -= (grad_q_taken / self.num_actions)[:, None]
            grad_head[rows, 1 + batch.actions] += grad_q_taken
        else:
            # Full-width targets equal to the predictions everywhere except
            # the taken action, so masked-out entries contribute zero error
            # and zero gradient (same objective the seed expressed through
            # fit_batch's target_mask, without re-running the forward pass).
            q_targets = current_q.copy()
            q_targets[rows, batch.actions] = targets_for_actions
            loss_value, grad_head = self.loss.value_and_grad(
                current_q, q_targets, batch.weights
            )

        self.online_network.apply_gradient_step(
            grad_head, self.optimizer, self.config.gradient_clip_norm
        )
        self.last_loss = float(loss_value)
        return {
            "loss": float(loss_value),
            "mean_td_error": float(np.mean(np.abs(td_errors))),
            "mean_q": float(np.mean(current_q)),
        }

    def _maybe_update_target(self) -> None:
        if self.config.soft_target_tau is not None:
            self.target_network.copy_from(
                self.online_network, tau=self.config.soft_target_tau
            )
        elif self.training_steps % self.config.target_update_interval == 0:
            self.target_network.copy_from(self.online_network, tau=1.0)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path: Union[str, Path]) -> Path:
        """Save the online network weights to ``path`` (``.npz``)."""
        return self.online_network.save(path)

    def load(self, path: Union[str, Path]) -> None:
        """Load online network weights and synchronize the target network."""
        self.online_network = MLP.load(path)
        self.target_network = self.online_network.clone(seed=0)


def make_dqn_variant(
    variant: str,
    state_dim: int,
    num_actions: int,
    config: Optional[DQNConfig] = None,
    seed: RandomState = None,
) -> DQNAgent:
    """Factory for the agent-ablation experiment.

    ``variant`` is one of ``dqn``, ``double``, ``dueling`` or
    ``dueling_double``.
    """
    base = config or DQNConfig()
    variant = variant.lower()
    flags = {
        "dqn": (False, False),
        "double": (True, False),
        "dueling": (False, True),
        "dueling_double": (True, True),
    }
    if variant not in flags:
        raise ValueError(f"unknown DQN variant {variant!r}; options: {sorted(flags)}")
    double_q, dueling = flags[variant]
    cfg = DQNConfig(
        hidden_layers=base.hidden_layers,
        learning_rate=base.learning_rate,
        discount=base.discount,
        batch_size=base.batch_size,
        replay_capacity=base.replay_capacity,
        min_replay_size=base.min_replay_size,
        target_update_interval=base.target_update_interval,
        soft_target_tau=base.soft_target_tau,
        gradient_clip_norm=base.gradient_clip_norm,
        update_every=base.update_every,
        double_q=double_q,
        dueling=dueling,
        prioritized_replay=base.prioritized_replay,
        priority_alpha=base.priority_alpha,
        priority_beta=base.priority_beta,
        epsilon_start=base.epsilon_start,
        epsilon_end=base.epsilon_end,
        epsilon_decay_steps=base.epsilon_decay_steps,
    )
    return DQNAgent(state_dim, num_actions, config=cfg, seed=seed)
