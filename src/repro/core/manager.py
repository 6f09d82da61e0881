"""The high-level VNF management facade.

:class:`VNFManager` bundles the full DRL-VNF-management pipeline behind a
small API:

* build the training lanes for a scenario (one by default) on the SoA
  core, :func:`~repro.core.vecenv.make_vec_env`,
* train an agent (DQN by default) on them with
  :class:`~repro.core.training.VecTrainer`,
* expose the trained controller as an online
  :class:`~repro.sim.simulation.PlacementPolicy`, and
* evaluate it in the discrete-event simulator against a request trace.

Examples and benchmarks use this class instead of wiring the pieces by hand.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Union

from repro.agents.base import Agent
from repro.agents.dqn import DQNAgent, DQNConfig
from repro.core.env import EnvConfig
from repro.core.policy import DRLPlacementPolicy
from repro.core.reward import RewardCalculator, RewardConfig
from repro.core.state import EncoderConfig
from repro.core.training import (
    EvaluationResult,
    TrainingConfig,
    TrainingHistory,
    VecTrainer,
)
from repro.core.vecenv import make_vec_env
from repro.sim.simulation import NFVSimulation, SimulationConfig, SimulationResult
from repro.utils.rng import RandomState, derive_seed
from repro.workloads.scenarios import Scenario


@dataclass
class ManagerConfig:
    """Knobs of the end-to-end training pipeline."""

    training: TrainingConfig = None
    env: EnvConfig = None
    reward: RewardConfig = None
    encoder: EncoderConfig = None
    dqn: DQNConfig = None
    #: Number of parallel environment lanes used for training.  1 trains on
    #: the scenario's own request stream, one episode after another; >1
    #: trains on K lanes with derived per-lane workload seeds.
    training_lanes: int = 1

    def __post_init__(self) -> None:
        self.training = self.training or TrainingConfig()
        self.env = self.env or EnvConfig()
        self.reward = self.reward or RewardConfig()
        self.encoder = self.encoder or EncoderConfig()
        self.dqn = self.dqn or DQNConfig()
        if self.training_lanes < 1:
            raise ValueError(
                f"training_lanes must be >= 1, got {self.training_lanes}"
            )


class VNFManager:
    """Trains and serves a DRL placement controller for one scenario."""

    def __init__(
        self,
        scenario: Scenario,
        agent: Optional[Agent] = None,
        config: Optional[ManagerConfig] = None,
        seed: RandomState = 0,
    ) -> None:
        self.scenario = scenario
        self.config = config or ManagerConfig()
        self.seed = seed

        # The training lanes own their substrate usage, so training never
        # pollutes evaluation runs.  One lane keeps the scenario's own
        # workload seed and runs episodes back to back without auto-reset;
        # K lanes derive per-lane seeds and auto-reset.
        lanes = self.config.training_lanes
        venv = make_vec_env(
            [scenario] * lanes,
            seed=derive_seed(seed, "vec_lanes"),
            env_config=self.config.env,
            reward_config=self.config.reward,
            encoder_config=self.config.encoder,
            auto_reset=lanes > 1,
            derive_lane_seeds=lanes > 1,
        )
        self.env = venv
        self.agent = agent or DQNAgent(
            state_dim=venv.state_dim,
            num_actions=venv.num_actions,
            config=self.config.dqn,
            seed=derive_seed(seed, "agent"),
        )
        self.trainer = VecTrainer(venv, self.agent, self.config.training)
        self._trained = False

    # ------------------------------------------------------------------ #
    # Training
    # ------------------------------------------------------------------ #
    @property
    def is_trained(self) -> bool:
        """True after :meth:`train` has completed at least once."""
        return self._trained

    def train(self, verbose: bool = False) -> TrainingHistory:
        """Train the agent on the scenario and return the learning curves."""
        history = self.trainer.train(verbose=verbose)
        self._trained = True
        return history

    def evaluate_agent(self, episodes: int = 5) -> EvaluationResult:
        """Greedy evaluation of the agent inside the training environment."""
        return self.trainer.evaluate(episodes)

    # ------------------------------------------------------------------ #
    # Deployment
    # ------------------------------------------------------------------ #
    def build_policy(self, network=None) -> DRLPlacementPolicy:
        """Wrap the (trained) agent as an online placement policy.

        ``network`` must be the same substrate object the evaluation
        simulation mutates, so that the policy observes live utilization.
        """
        network = network if network is not None else self.scenario.build_network()
        return DRLPlacementPolicy(
            agent=self.agent,
            network=network,
            catalog=self.scenario.catalog,
            encoder_config=self.config.encoder,
        )

    def evaluate_online(
        self,
        requests=None,
        simulation_config: Optional[SimulationConfig] = None,
    ) -> SimulationResult:
        """Evaluate the trained controller in the discrete-event simulator."""
        network = self.scenario.build_network()
        policy = self.build_policy(network)
        simulation = NFVSimulation(
            network,
            policy,
            simulation_config
            or SimulationConfig(horizon=self.scenario.workload_config.horizon),
        )
        requests = requests if requests is not None else self.scenario.generate_requests()
        return simulation.run(requests)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save_agent(self, path: Union[str, Path]) -> Path:
        """Persist the agent's learnable parameters."""
        return self.agent.save(path)

    def load_agent(self, path: Union[str, Path]) -> None:
        """Restore agent parameters saved by :meth:`save_agent`."""
        self.agent.load(path)
        self._trained = True

    def close(self) -> None:
        """Release training resources."""
        self.trainer.close()

    def summary(self) -> Dict[str, object]:
        """A JSON-friendly description of the manager's configuration."""
        return {
            "scenario": self.scenario.name,
            "agent": self.agent.name,
            "state_dim": self.env.state_dim,
            "num_actions": self.env.num_actions,
            "trained": self._trained,
            "reward": RewardCalculator(self.config.reward).describe(),
        }
