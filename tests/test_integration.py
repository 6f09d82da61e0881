"""End-to-end integration tests across the whole stack.

These tests exercise the same pipeline as the examples: build a scenario,
train a controller, deploy it in the online simulator, and compare against
baselines.  They use tiny settings so the whole file stays under a minute.
"""

import numpy as np
import pytest

from repro import (
    DQNConfig,
    EnvConfig,
    ManagerConfig,
    TrainingConfig,
    VNFManager,
    reference_scenario,
    standard_baselines,
)
from repro.experiments.runner import evaluate_policies
from repro.sim.simulation import SimulationConfig


@pytest.fixture(scope="module")
def trained_manager():
    scenario = reference_scenario(arrival_rate=0.8, num_edge_nodes=6, horizon=120.0, seed=3)
    config = ManagerConfig(
        training=TrainingConfig(num_episodes=12, evaluation_interval=6, evaluation_episodes=1),
        env=EnvConfig(requests_per_episode=15),
        dqn=DQNConfig(
            hidden_layers=(32, 32),
            min_replay_size=64,
            batch_size=32,
            epsilon_decay_steps=1500,
        ),
    )
    manager = VNFManager(scenario, config=config, seed=1)
    manager.train()
    return manager


class TestEndToEndPipeline:
    def test_training_improves_reward(self, trained_manager):
        rewards = trained_manager.trainer.history.episode_rewards
        first = np.mean(rewards[:3])
        last = np.mean(rewards[-3:])
        assert last > first

    def test_online_evaluation_reasonable(self, trained_manager):
        result = trained_manager.evaluate_online()
        summary = result.summary
        assert summary.total_requests > 10
        assert summary.acceptance_ratio > 0.3
        # Every accepted request satisfied its SLA (admission-controlled).
        assert summary.sla_violation_ratio == pytest.approx(0.0)
        assert summary.total_revenue > 0

    def test_drl_beats_naive_packers(self, trained_manager):
        """The learned policy should beat the load-oblivious bin packers."""
        scenario = trained_manager.scenario
        requests = scenario.generate_requests()
        config = SimulationConfig(horizon=scenario.workload_config.horizon)

        from repro.sim.simulation import NFVSimulation
        from repro.baselines import FirstFitPolicy

        drl_network = scenario.build_network()
        drl_result = NFVSimulation(drl_network, trained_manager.build_policy(drl_network), config).run(requests)

        ff_network = scenario.build_network()
        ff_result = NFVSimulation(ff_network, FirstFitPolicy(), config).run(requests)

        assert drl_result.summary.acceptance_ratio >= ff_result.summary.acceptance_ratio

    def test_all_baselines_run_on_reference_scenario(self):
        scenario = reference_scenario(arrival_rate=0.6, num_edge_nodes=6, horizon=60.0, seed=5)
        results = evaluate_policies(scenario, standard_baselines(seed=0))
        assert len(results) == len(standard_baselines(seed=0))
        for result in results:
            assert result.summary.total_requests > 0
            # Accepted + rejected must cover every request.
            assert (
                result.summary.accepted_requests + result.summary.rejected_requests
                == result.summary.total_requests
            )

    def test_checkpoint_round_trip_preserves_policy(self, trained_manager, tmp_path):
        path = trained_manager.save_agent(tmp_path / "agent.npz")
        scenario = trained_manager.scenario
        clone = VNFManager(scenario, seed=9)
        clone.load_agent(path)
        state = np.zeros(clone.env.state_dim)
        assert np.allclose(
            clone.agent.q_values(state), trained_manager.agent.q_values(state)
        )

    def test_substrate_returns_to_empty_after_online_run(self, trained_manager):
        scenario = trained_manager.scenario
        network = scenario.build_network()
        from repro.sim.simulation import NFVSimulation

        policy = trained_manager.build_policy(network)
        requests = scenario.generate_requests(horizon=60.0)
        NFVSimulation(network, policy, SimulationConfig(horizon=60.0)).run(requests)
        assert network.total_used().is_zero()
        assert all(used == pytest.approx(0.0) for used in network.ledger.link_used)
