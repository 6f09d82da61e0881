"""Tests for the training loop, the VNF manager facade and the DRL policy."""

import numpy as np
import pytest

from repro.agents.dqn import DQNAgent, DQNConfig
from repro.agents.qlearning import TabularQLearningAgent
from repro.core.env import EnvConfig
from repro.core.manager import ManagerConfig, VNFManager
from repro.core.policy import DRLPlacementPolicy
from repro.core.training import TrainingConfig, VecTrainer
from repro.sim.simulation import NFVSimulation, SimulationConfig
from repro.workloads.scenarios import reference_scenario


def small_manager(num_episodes=3, seed=0):
    scenario = reference_scenario(arrival_rate=0.6, num_edge_nodes=6, horizon=80.0, seed=2)
    config = ManagerConfig(
        training=TrainingConfig(num_episodes=num_episodes, evaluation_interval=2, evaluation_episodes=1),
        env=EnvConfig(requests_per_episode=8),
        dqn=DQNConfig(
            hidden_layers=(16, 16), min_replay_size=16, batch_size=16, epsilon_decay_steps=300
        ),
    )
    return VNFManager(scenario, config=config, seed=seed)


class TestTrainer:
    def test_dimension_mismatch_rejected(self):
        manager = small_manager()
        env = manager.env
        wrong_agent = DQNAgent(env.state_dim + 1, env.num_actions, config=DQNConfig(
            hidden_layers=(8,), min_replay_size=16, batch_size=16))
        with pytest.raises(ValueError):
            VecTrainer(env, wrong_agent)

    def test_training_history_lengths(self):
        manager = small_manager(num_episodes=4)
        history = manager.train()
        assert len(history.episode_rewards) == 4
        assert len(history.episode_acceptance) == 4
        assert len(history.evaluation_rewards) == 2  # evaluated every 2 episodes
        assert history.evaluation_episodes_at == [2, 4]

    def test_moving_average_shape(self):
        manager = small_manager(num_episodes=4)
        history = manager.train()
        smoothed = history.moving_average_reward(window=2)
        assert len(smoothed) == 4
        assert smoothed[0] == pytest.approx(history.episode_rewards[0])

    def test_moving_average_empty_history(self):
        from repro.core.training import TrainingHistory

        assert TrainingHistory().moving_average_reward(window=5) == []

    def test_moving_average_window_one_is_identity(self):
        from repro.core.training import TrainingHistory

        history = TrainingHistory(episode_rewards=[1.0, -2.0, 4.0])
        smoothed = history.moving_average_reward(window=1)
        assert smoothed == pytest.approx([1.0, -2.0, 4.0])

    def test_moving_average_window_larger_than_history(self):
        from repro.core.training import TrainingHistory

        rewards = [2.0, 4.0, 6.0]
        history = TrainingHistory(episode_rewards=rewards)
        smoothed = history.moving_average_reward(window=100)
        # Every prefix mean, length preserved, last entry = global mean.
        assert len(smoothed) == 3
        assert smoothed[0] == pytest.approx(2.0)
        assert smoothed[1] == pytest.approx(3.0)
        assert smoothed[2] == pytest.approx(4.0)

    def test_evaluation_result_fields(self):
        manager = small_manager(num_episodes=2)
        manager.train()
        result = manager.evaluate_agent(episodes=2)
        assert result.episodes == 2
        assert 0.0 <= result.mean_acceptance <= 1.0
        assert np.isfinite(result.mean_reward)

    def test_trainer_works_with_tabular_agent(self):
        manager = small_manager()
        env = manager.env
        agent = TabularQLearningAgent(env.state_dim, env.num_actions, seed=0)
        trainer = VecTrainer(env, agent, TrainingConfig(num_episodes=2, evaluation_interval=2, evaluation_episodes=1))
        history = trainer.train()
        assert len(history.episode_rewards) == 2
        assert agent.table_size > 0

    def test_history_as_dict(self):
        manager = small_manager(num_episodes=2)
        history = manager.train()
        data = history.as_dict()
        assert set(data) >= {"episode_rewards", "episode_acceptance", "evaluation_rewards"}


class TestManager:
    def test_training_marks_trained(self):
        manager = small_manager(num_episodes=2)
        assert not manager.is_trained
        manager.train()
        assert manager.is_trained

    def test_online_evaluation_summary(self):
        manager = small_manager(num_episodes=2)
        manager.train()
        result = manager.evaluate_online()
        assert result.summary.total_requests > 0
        assert 0.0 <= result.summary.acceptance_ratio <= 1.0

    def test_save_and_load_agent(self, tmp_path):
        manager = small_manager(num_episodes=2)
        manager.train()
        path = manager.save_agent(tmp_path / "agent.npz")
        fresh = small_manager(num_episodes=2, seed=3)
        fresh.load_agent(path)
        assert fresh.is_trained
        state = np.zeros(fresh.env.state_dim)
        assert np.allclose(fresh.agent.q_values(state), manager.agent.q_values(state))

    def test_summary_fields(self):
        manager = small_manager()
        summary = manager.summary()
        assert summary["agent"] == "dqn"
        assert summary["state_dim"] == manager.env.state_dim
        assert summary["trained"] is False

    def test_manager_with_vectorized_training_lanes(self):
        scenario = reference_scenario(
            arrival_rate=0.6, num_edge_nodes=6, horizon=80.0, seed=2
        )
        config = ManagerConfig(
            training=TrainingConfig(
                num_episodes=4, evaluation_interval=2, evaluation_episodes=1
            ),
            env=EnvConfig(requests_per_episode=6),
            dqn=DQNConfig(
                hidden_layers=(16, 16), min_replay_size=16, batch_size=16,
                epsilon_decay_steps=300,
            ),
            training_lanes=3,
        )
        manager = VNFManager(scenario, config=config, seed=0)
        assert isinstance(manager.trainer, VecTrainer)
        assert manager.env is manager.trainer.venv
        assert manager.trainer.num_lanes == 3 and manager.env.auto_reset
        history = manager.train()
        assert manager.is_trained
        assert len(history.episode_rewards) == 4
        assert history.evaluation_episodes_at == [2, 4]

    def test_manager_rejects_nonpositive_lanes(self):
        with pytest.raises(ValueError):
            ManagerConfig(training_lanes=0)


class TestDRLPlacementPolicy:
    def test_policy_produces_feasible_placements(self):
        manager = small_manager(num_episodes=2)
        manager.train()
        network = manager.scenario.build_network()
        policy = manager.build_policy(network)
        requests = manager.scenario.generate_requests(horizon=60.0)
        accepted = 0
        for request in requests[:20]:
            placement = policy.place(request, network)
            if placement is not None:
                assert placement.is_feasible(network)
                assert placement.satisfies_sla(network)
                accepted += 1
        assert accepted > 0

    def test_policy_name_includes_agent(self):
        manager = small_manager()
        policy = manager.build_policy()
        assert policy.name == "drl_dqn"

    def test_policy_runs_in_simulation(self):
        manager = small_manager(num_episodes=2)
        manager.train()
        network = manager.scenario.build_network()
        policy = manager.build_policy(network)
        requests = manager.scenario.generate_requests(horizon=60.0)
        simulation = NFVSimulation(network, policy, SimulationConfig(horizon=60.0))
        result = simulation.run(requests)
        assert result.summary.total_requests == len(requests)

    def test_untrained_policy_still_returns_valid_decisions(self):
        manager = small_manager()
        network = manager.scenario.build_network()
        policy = DRLPlacementPolicy(manager.agent, network, manager.scenario.catalog)
        request = manager.scenario.generate_requests(horizon=20.0)[0]
        placement = policy.place(request, network)
        assert placement is None or placement.is_feasible(network)
