"""Tests for the vectorized environment layer and the batched agent API."""

import gc
import weakref

import numpy as np
import pytest

from repro.agents.actor_critic import A2CConfig, ActorCriticAgent
from repro.agents.base import Agent
from repro.agents.dqn import DQNAgent, DQNConfig
from repro.agents.exploration import ConstantSchedule, EpsilonGreedy
from repro.agents.policy_gradient import ReinforceAgent, ReinforceConfig
from repro.agents.qlearning import TabularQLearningAgent
from repro.core.env import EnvConfig
from repro.core.soa import SoAVecPlacementEnv
from repro.core.training import Trainer, TrainingConfig, VecTrainer
from repro.core.vecenv import (
    VecPlacementEnv,
    lane_failure_seed,
    lane_workload_seed,
    make_lane_env,
)
from repro.experiments.runner import evaluate_agent_across_scenarios
from repro.sim.failures import FailureConfig
from repro.sim.lifecycle import node_fence_handle
from repro.workloads.scenarios import (
    reference_scenario,
    sample_scenarios,
    scenario_grid,
)
from tests.substrate_oracles import node_available

SEED = 7
ENV_CONFIG = EnvConfig(requests_per_episode=6)


def small_scenario(seed=2):
    return reference_scenario(
        arrival_rate=0.6, num_edge_nodes=6, horizon=80.0, seed=seed
    )


def make_venv(num_lanes=3, auto_reset=True, scenario=None):
    return VecPlacementEnv.from_scenario(
        scenario or small_scenario(),
        num_lanes,
        seed=SEED,
        env_config=ENV_CONFIG,
        auto_reset=auto_reset,
    )


def masked_random_action(mask, rng):
    choices = np.flatnonzero(mask)
    return int(choices[int(rng.random() * len(choices))])


class TestVecPlacementEnvShapes:
    def test_reset_and_mask_shapes(self):
        venv = make_venv(num_lanes=4)
        states = venv.reset()
        masks = venv.valid_action_masks()
        assert states.shape == (4, venv.state_dim)
        assert masks.shape == (4, venv.num_actions)
        assert masks.dtype == bool
        assert masks.any(axis=1).all()

    def test_step_shapes_and_infos(self):
        venv = make_venv(num_lanes=3)
        venv.reset()
        masks = venv.valid_action_masks()
        rng = np.random.default_rng(0)
        actions = [masked_random_action(masks[i], rng) for i in range(3)]
        states, rewards, dones, infos = venv.step(actions)
        assert states.shape == (3, venv.state_dim)
        assert rewards.shape == (3,)
        assert dones.shape == (3,)
        assert len(infos) == 3
        for lane, info in enumerate(infos):
            assert info["lane"] == lane
            assert info["lane_name"] == venv.lane_names[lane]

    def test_wrong_action_count_rejected(self):
        venv = make_venv(num_lanes=3)
        venv.reset()
        with pytest.raises(ValueError):
            venv.step([0, 0])

    def test_empty_lane_list_rejected(self):
        with pytest.raises(ValueError):
            VecPlacementEnv([])

    def test_mismatched_lane_spaces_rejected(self):
        small = make_lane_env(small_scenario(), workload_seed=0, env_config=ENV_CONFIG)
        big = make_lane_env(
            reference_scenario(num_edge_nodes=8, seed=2),
            workload_seed=0,
            env_config=ENV_CONFIG,
        )
        with pytest.raises(ValueError, match="lane 1"):
            VecPlacementEnv([small, big])


class TestLaneSeedDeterminism:
    """A K-lane vec env must be bitwise identical to K serial envs."""

    def drive_vec(self, num_lanes, steps):
        venv = make_venv(num_lanes=num_lanes, auto_reset=True)
        rngs = [np.random.default_rng(1000 + lane) for lane in range(num_lanes)]
        trajectories = [[] for _ in range(num_lanes)]
        episode_stats = [[] for _ in range(num_lanes)]
        states = venv.reset()
        for lane in range(num_lanes):
            trajectories[lane].append(("reset", states[lane].copy()))
        for _ in range(steps):
            masks = venv.valid_action_masks()
            actions = [
                masked_random_action(masks[lane], rngs[lane])
                for lane in range(num_lanes)
            ]
            states, rewards, dones, infos = venv.step(actions)
            for lane in range(num_lanes):
                observed = (
                    infos[lane]["terminal_state"] if dones[lane] else states[lane]
                )
                trajectories[lane].append(
                    (actions[lane], observed.copy(), rewards[lane], bool(dones[lane]))
                )
                if dones[lane]:
                    episode_stats[lane].append(infos[lane]["episode_stats"])
                    trajectories[lane].append(("reset", states[lane].copy()))
        return trajectories, episode_stats

    def drive_serial(self, num_lanes, steps):
        scenario = small_scenario()
        trajectories = [[] for _ in range(num_lanes)]
        episode_stats = [[] for _ in range(num_lanes)]
        for lane in range(num_lanes):
            env = make_lane_env(
                scenario,
                lane_workload_seed(SEED, lane, scenario.name),
                env_config=ENV_CONFIG,
            )
            rng = np.random.default_rng(1000 + lane)
            state = env.reset()
            trajectories[lane].append(("reset", state.copy()))
            for _ in range(steps):
                mask = env.valid_action_mask()
                action = masked_random_action(mask, rng)
                state, reward, done, info = env.step(action)
                trajectories[lane].append(
                    (action, state.copy(), reward, bool(done))
                )
                if done:
                    episode_stats[lane].append(info["episode_stats"])
                    state = env.reset()
                    trajectories[lane].append(("reset", state.copy()))
        return trajectories, episode_stats

    def test_vec_equals_serial_bitwise(self):
        num_lanes, steps = 3, 160  # long enough to cross several episodes
        vec_traj, vec_stats = self.drive_vec(num_lanes, steps)
        ser_traj, ser_stats = self.drive_serial(num_lanes, steps)
        assert vec_stats == ser_stats
        for lane in range(num_lanes):
            assert sum(1 for _ in vec_stats[lane]) >= 1  # episodes did complete
            assert len(vec_traj[lane]) == len(ser_traj[lane])
            for vec_entry, ser_entry in zip(vec_traj[lane], ser_traj[lane]):
                assert vec_entry[0] == ser_entry[0]
                np.testing.assert_array_equal(vec_entry[1], ser_entry[1])
                if len(vec_entry) > 2:
                    assert vec_entry[2] == ser_entry[2]  # bitwise reward
                    assert vec_entry[3] == ser_entry[3]

    def test_lanes_are_diverse(self):
        venv = make_venv(num_lanes=2)
        states = venv.reset()
        # Different derived workload seeds produce different request streams.
        assert not np.array_equal(states[0], states[1])


class TestScenarioGridAndSampler:
    def test_scenario_grid_names_and_seeds(self):
        base = small_scenario()
        grid = scenario_grid(base, arrival_rates=(0.4, 0.8), sla_scales=(1.0, 1.5))
        assert len(grid) == 4
        assert len({cell.name for cell in grid}) == 4
        assert len({cell.workload_config.seed for cell in grid}) == 4
        rates = {cell.workload_config.arrival_rate for cell in grid}
        assert rates == {0.4, 0.8}

    def test_sample_scenarios_reproducible(self):
        base = small_scenario()
        first = sample_scenarios(3, base=base, seed=5)
        second = sample_scenarios(3, base=base, seed=5)
        assert [s.name for s in first] == [s.name for s in second]
        assert [s.workload_config.arrival_rate for s in first] == [
            s.workload_config.arrival_rate for s in second
        ]
        for sample in first:
            assert 0.3 <= sample.workload_config.arrival_rate <= 1.2

    def test_sample_scenarios_rejects_bad_count(self):
        with pytest.raises(ValueError):
            sample_scenarios(0)

    def test_grid_builds_scenario_diverse_venv(self):
        grid = scenario_grid(small_scenario(), arrival_rates=(0.4, 1.0))
        venv = VecPlacementEnv.from_scenarios(grid, env_config=ENV_CONFIG)
        assert venv.num_lanes == 2
        assert venv.lane_names == [cell.name for cell in grid]


class TestBatchedMaskKernel:
    """The SoA core's (K, A) mask kernel equals the stacked per-lane masks."""

    @pytest.mark.parametrize("latency_check", [True, False])
    def test_kernel_bitwise_equals_per_lane(self, latency_check):
        config = EnvConfig(requests_per_episode=6, latency_mask_check=latency_check)
        soa, venv = (
            core.from_scenario(small_scenario(), 4, seed=SEED, env_config=config)
            for core in (SoAVecPlacementEnv, VecPlacementEnv)
        )
        rng = np.random.default_rng(0)
        soa.reset()
        venv.reset()
        for _ in range(80):
            kernel = soa.valid_action_masks()
            reference = np.stack([env.valid_action_mask() for env in venv.envs])
            np.testing.assert_array_equal(kernel, reference)
            actions = [masked_random_action(kernel[i], rng) for i in range(4)]
            soa.step(actions)
            venv.step(actions)

    def test_context_memoized_within_step(self):
        venv = SoAVecPlacementEnv.from_scenario(
            small_scenario(), 3, seed=SEED, env_config=ENV_CONFIG
        )
        venv.reset()
        first = venv.lane_decision_context()
        assert venv.lane_decision_context() is first
        masks = venv.valid_action_masks()
        rng = np.random.default_rng(1)
        venv.step([masked_random_action(masks[i], rng) for i in range(3)])
        assert venv.lane_decision_context() is not first


class TestSoALaneSetLifetime:
    """An SoA lane set is freed by reference counting, and close() empties it."""

    def drive(self, venv, steps=30):
        rng = np.random.default_rng(2)
        venv.reset()
        for _ in range(steps):
            masks = venv.valid_action_masks()
            venv.step([masked_random_action(mask, rng) for mask in masks])

    def test_env_dies_with_its_last_reference(self):
        gc.disable()
        try:
            venv = SoAVecPlacementEnv.from_scenario(
                small_scenario(), 3, seed=SEED, env_config=ENV_CONFIG
            )
            self.drive(venv)
            alive = weakref.ref(venv)
            del venv
            assert alive() is None
        finally:
            gc.enable()

    def test_closed_env_holds_no_episode(self):
        venv = SoAVecPlacementEnv.from_scenario(
            small_scenario(), 3, seed=SEED, env_config=ENV_CONFIG
        )
        self.drive(venv)
        assert any(lane.heap for lane in venv._lanes)
        venv.close()
        for lane in venv._lanes:
            assert (lane.requests, lane.views, lane.heap, lane.current) == ([], [], [], None)
        assert all(lane.current_request is None for lane in venv.envs)
        self.drive(venv, steps=5)
        assert all(lane.current_request is not None for lane in venv.envs)


class TestFaultInjectedLanes:
    FAILURES = FailureConfig(mean_time_to_failure=6.0, mean_time_to_repair=3.0, seed=4)

    def make_faulty_venv(self, num_lanes=3):
        return VecPlacementEnv.from_scenario(
            small_scenario(),
            num_lanes,
            seed=SEED,
            env_config=ENV_CONFIG,
            failure_config=self.FAILURES,
        )

    def drive(self, venv, steps=200):
        rng = np.random.default_rng(0)
        venv.reset()
        disrupted = 0
        saw_failure = False
        for _ in range(steps):
            masks = venv.valid_action_masks()
            for env in venv.envs:
                for node_id in env.failed_nodes:
                    saw_failure = True
                    assert not masks[
                        venv.envs.index(env), env._node_action[node_id]
                    ], "failed node not masked out"
            actions = [
                masked_random_action(masks[i], rng) for i in range(venv.num_lanes)
            ]
            _, _, dones, infos = venv.step(actions)
            for lane, done in enumerate(dones):
                if done:
                    disrupted += infos[lane]["episode_stats"]["disrupted"]
        return disrupted, saw_failure

    def test_failures_fence_and_disrupt(self):
        venv = self.make_faulty_venv()
        disrupted, saw_failure = self.drive(venv)
        assert saw_failure, "aggressive failure config should fail some node"
        assert disrupted >= 0

    def test_fault_injected_lane_equals_serial_env(self):
        """A fault-injected vec lane is bitwise identical to the serial env
        rebuilt from the same derived workload + failure seeds."""
        num_lanes, steps = 2, 120
        venv = self.make_faulty_venv(num_lanes)
        rngs = [np.random.default_rng(50 + lane) for lane in range(num_lanes)]
        venv.reset()
        trajectories = [[] for _ in range(num_lanes)]
        for _ in range(steps):
            masks = venv.valid_action_masks()
            actions = [
                masked_random_action(masks[lane], rngs[lane])
                for lane in range(num_lanes)
            ]
            states, rewards, dones, _ = venv.step(actions)
            for lane in range(num_lanes):
                trajectories[lane].append(
                    (actions[lane], rewards[lane], bool(dones[lane]),
                     states[lane].copy())
                )
        scenario = small_scenario()
        from dataclasses import replace

        for lane in range(num_lanes):
            env = make_lane_env(
                scenario,
                lane_workload_seed(SEED, lane, scenario.name),
                env_config=ENV_CONFIG,
                failure_config=replace(
                    self.FAILURES,
                    seed=lane_failure_seed(SEED, lane, scenario.name),
                ),
            )
            rng = np.random.default_rng(50 + lane)
            state = env.reset()
            for step in range(steps):
                mask = env.valid_action_mask()
                action = masked_random_action(mask, rng)
                state, reward, done, _ = env.step(action)
                recorded = trajectories[lane][step]
                assert action == recorded[0]
                assert reward == recorded[1]
                assert done == recorded[2]
                if done:
                    state = env.reset()
                np.testing.assert_array_equal(state, recorded[3])

    def test_env_capacity_conserved_across_failures(self):
        """Allocation bookkeeping stays exact through fail/recover cycles."""
        venv = self.make_faulty_venv(num_lanes=2)
        rng = np.random.default_rng(3)
        venv.reset()
        for _ in range(150):
            masks = venv.valid_action_masks()
            actions = [masked_random_action(masks[i], rng) for i in range(2)]
            venv.step(actions)
            for env in venv.envs:
                ledger = env.network.ledger
                for records, used in zip(ledger.node_records, ledger.node_used):
                    total = sum(records.values(), np.zeros(3))
                    np.testing.assert_allclose(total, used, atol=1e-6)
                for node_id in env.failed_nodes:
                    assert node_available(env.network, node_id).is_zero(tol=1e-9)

    def test_recovery_releases_fence(self):
        scenario = small_scenario()
        # A practically failure-free schedule: this test drives the fail /
        # recover handlers manually.
        reliable = FailureConfig(mean_time_to_failure=1e9, seed=0)
        env = make_lane_env(
            scenario, 0, env_config=ENV_CONFIG, failure_config=reliable
        )
        env.reset()
        node_id = env.network.edge_node_ids[0]
        env._fail_node(node_id)
        assert env.failed_nodes == [node_id]
        assert node_available(env.network, node_id).is_zero()
        env._recover_node(node_id)
        assert env.failed_nodes == []
        ledger = env.network.ledger
        assert node_fence_handle(node_id) not in ledger.node_records[ledger.node_row[node_id]]


class TestExplorationDecayEquivalence:
    """The epsilon schedule must advance once per *transition*: K lanes
    decay exactly as fast per environment step as the serial trainer."""

    @staticmethod
    def drive_transitions(num_lanes, total_transitions):
        agent = DQNAgent(
            4,
            3,
            DQNConfig(
                hidden_layers=(8,),
                min_replay_size=4,
                batch_size=4,
                epsilon_decay_steps=128,
            ),
            seed=0,
        )
        rng = np.random.default_rng(0)
        for _ in range(total_transitions // num_lanes):
            agent.observe_batch(
                rng.random((num_lanes, 4)),
                np.zeros(num_lanes, dtype=int),
                np.ones(num_lanes),
                rng.random((num_lanes, 4)),
                np.zeros(num_lanes, dtype=bool),
            )
            agent.update()
        return agent

    def test_dqn_epsilon_decays_per_transition(self):
        serial = self.drive_transitions(1, 64)
        vectorized = self.drive_transitions(16, 64)
        assert serial._environment_steps == vectorized._environment_steps == 64
        epsilon_serial = serial.exploration.schedule.value(serial._environment_steps)
        epsilon_vec = vectorized.exploration.schedule.value(
            vectorized._environment_steps
        )
        assert epsilon_serial == pytest.approx(epsilon_vec)
        # Not decayed once per batched step: that would leave epsilon 16x
        # closer to its start value.
        undecayed = serial.exploration.schedule.value(64 // 16)
        assert epsilon_vec < undecayed

    def test_tabular_schedule_steps_count_transitions(self):
        agent = TabularQLearningAgent(4, 3, seed=0)
        rng = np.random.default_rng(0)
        for _ in range(4):
            agent.observe_batch(
                rng.random((16, 4)),
                np.zeros(16, dtype=int),
                np.ones(16),
                rng.random((16, 4)),
                np.zeros(16, dtype=bool),
            )
            agent.update()
        assert agent.training_steps == 64


class TestBatchedExploration:
    def test_select_batch_greedy_is_masked_argmax(self):
        policy = EpsilonGreedy(ConstantSchedule(0.0), seed=0)
        q = np.array([[0.1, 0.9, 0.5], [0.8, 0.2, 0.3]])
        masks = np.array([[True, False, True], [True, True, True]])
        actions = policy.select_batch(q, step=0, masks=masks, greedy=True)
        np.testing.assert_array_equal(actions, [2, 0])

    def test_select_batch_respects_masks_when_exploring(self):
        policy = EpsilonGreedy(ConstantSchedule(1.0), seed=0)
        masks = np.zeros((8, 5), dtype=bool)
        masks[:, 2] = True
        masks[:, 4] = True
        q = np.zeros((8, 5))
        for _ in range(10):
            actions = policy.select_batch(q, step=0, masks=masks)
            assert set(actions.tolist()) <= {2, 4}

    def test_select_batch_rejects_empty_mask_rows(self):
        policy = EpsilonGreedy(ConstantSchedule(0.5), seed=0)
        masks = np.array([[True, True], [False, False]])
        with pytest.raises(ValueError, match="lanes \\[1\\]"):
            policy.select_batch(np.zeros((2, 2)), step=0, masks=masks)


class FallbackAgent(Agent):
    """Minimal custom agent exercising the generic per-row fallbacks."""

    name = "fallback"

    def __init__(self, state_dim, num_actions):
        super().__init__(state_dim, num_actions)
        self.observed = []

    def select_action(self, state, mask=None, greedy=False):
        return int(np.flatnonzero(mask)[0]) if mask is not None else 0

    def observe(self, state, action, reward, next_state, done, next_mask=None):
        self.observed.append((action, float(reward), bool(done)))

    def update(self):
        return {}


class TestBatchedAgentAPI:
    def make_states_masks(self, venv):
        states = venv.reset()
        masks = venv.valid_action_masks()
        return states, masks

    def test_generic_fallback_agent_works(self):
        venv = make_venv(num_lanes=3)
        agent = FallbackAgent(venv.state_dim, venv.num_actions)
        states, masks = self.make_states_masks(venv)
        actions = agent.select_actions(states, masks)
        assert actions.shape == (3,)
        next_states, rewards, dones, _ = venv.step(actions)
        agent.observe_batch(states, actions, rewards, next_states, dones, masks)
        assert len(agent.observed) == 3

    def test_dqn_batch_matches_per_row_q_values(self):
        venv = make_venv(num_lanes=4)
        agent = DQNAgent(
            venv.state_dim,
            venv.num_actions,
            DQNConfig(hidden_layers=(16, 16), min_replay_size=16, batch_size=16),
            seed=0,
        )
        states, masks = self.make_states_masks(venv)
        batch_q = agent.batch_q_values(states)
        for row in range(4):
            np.testing.assert_allclose(batch_q[row], agent.q_values(states[row]))
        actions = agent.select_actions(states, masks, greedy=True)
        for row in range(4):
            assert masks[row, actions[row]]

    def test_dueling_dqn_batched_selection(self):
        venv = make_venv(num_lanes=4)
        agent = DQNAgent(
            venv.state_dim,
            venv.num_actions,
            DQNConfig(
                hidden_layers=(16, 16),
                min_replay_size=16,
                batch_size=16,
                dueling=True,
            ),
            seed=0,
        )
        states, masks = self.make_states_masks(venv)
        actions = agent.select_actions(states, masks, greedy=True)
        assert all(masks[row, actions[row]] for row in range(4))

    def test_policy_agents_batched_selection_respects_masks(self):
        venv = make_venv(num_lanes=4)
        for agent in (
            ActorCriticAgent(
                venv.state_dim, venv.num_actions, A2CConfig(hidden_layers=(16, 16)), seed=0
            ),
            ReinforceAgent(
                venv.state_dim,
                venv.num_actions,
                ReinforceConfig(hidden_layers=(16, 16)),
                seed=0,
            ),
        ):
            states, masks = self.make_states_masks(venv)
            greedy = agent.select_actions(states, masks, greedy=True)
            sampled = agent.select_actions(states, masks, greedy=False)
            for row in range(4):
                assert masks[row, greedy[row]]
                assert masks[row, sampled[row]]

    def test_tabular_batched_selection_and_learning(self):
        venv = make_venv(num_lanes=3)
        agent = TabularQLearningAgent(venv.state_dim, venv.num_actions, seed=0)
        states, masks = self.make_states_masks(venv)
        keys = agent.discretize_batch(states)
        assert keys == [agent.discretize(states[row]) for row in range(3)]
        actions = agent.select_actions(states, masks)
        next_states, rewards, dones, _ = venv.step(actions)
        next_masks = venv.valid_action_masks()
        agent.observe_batch(states, actions, rewards, next_states, dones, next_masks)
        diagnostics = agent.update()
        assert "td_error" in diagnostics
        assert agent.training_steps == 3


class TestVecTrainer:
    def make_trainer(self, agent_factory, num_lanes=3, num_episodes=6):
        venv = make_venv(num_lanes=num_lanes)
        agent = agent_factory(venv)
        config = TrainingConfig(
            num_episodes=num_episodes, evaluation_interval=3, evaluation_episodes=2
        )
        return VecTrainer(venv, agent, config)

    @staticmethod
    def dqn_factory(venv):
        return DQNAgent(
            venv.state_dim,
            venv.num_actions,
            DQNConfig(
                hidden_layers=(16, 16),
                min_replay_size=16,
                batch_size=16,
                epsilon_decay_steps=300,
            ),
            seed=0,
        )

    def test_history_shapes(self):
        trainer = self.make_trainer(self.dqn_factory)
        history = trainer.train()
        assert len(history.episode_rewards) == 6
        assert len(history.episode_acceptance) == 6
        assert len(history.episode_losses) == 6
        assert history.evaluation_episodes_at == [3, 6]
        assert len(history.evaluation_rewards) == 2

    def test_rollout_agents_train(self):
        for factory in (
            lambda venv: ActorCriticAgent(
                venv.state_dim,
                venv.num_actions,
                A2CConfig(hidden_layers=(16, 16), n_steps=4),
                seed=0,
            ),
            lambda venv: ReinforceAgent(
                venv.state_dim,
                venv.num_actions,
                ReinforceConfig(hidden_layers=(16, 16)),
                seed=0,
            ),
        ):
            trainer = self.make_trainer(factory, num_episodes=4)
            history = trainer.train()
            assert len(history.episode_rewards) == 4
            assert trainer.agent.training_steps > 0

    def test_evaluate_aggregates(self):
        trainer = self.make_trainer(self.dqn_factory)
        result = trainer.evaluate(episodes=3)
        assert result.episodes == 3
        assert 0.0 <= result.mean_acceptance <= 1.0
        assert np.isfinite(result.mean_reward)

    def test_dimension_mismatch_rejected(self):
        venv = make_venv(num_lanes=2)
        wrong = DQNAgent(
            venv.state_dim + 1,
            venv.num_actions,
            DQNConfig(hidden_layers=(8,), min_replay_size=16, batch_size=16),
        )
        with pytest.raises(ValueError):
            VecTrainer(venv, wrong)

    def test_trainer_is_the_single_lane_case(self):
        env = make_lane_env(small_scenario(), workload_seed=0, env_config=ENV_CONFIG)
        agent = DQNAgent(
            env.state_dim,
            env.num_actions,
            DQNConfig(hidden_layers=(16, 16), min_replay_size=16, batch_size=16),
            seed=0,
        )
        trainer = Trainer(env, agent, TrainingConfig(num_episodes=2))
        assert isinstance(trainer, VecTrainer)
        assert trainer.num_lanes == 1
        assert trainer.env is env
        summary = trainer.run_episode(learn=True)
        assert set(summary) == {"reward", "acceptance", "latency", "loss"}


class TestVecLearningCadence:
    def test_dqn_update_cadence_not_aliased_by_lane_count(self):
        # K=3 lanes with update_every=4: the old `_environment_steps % 4`
        # gate only fired at multiples of 12 (one update per 12 transitions);
        # the consumed-transitions counter must amortize to exactly one
        # update per 4 transitions: 3 updates over 4 vec steps.
        agent = DQNAgent(
            4,
            3,
            DQNConfig(
                hidden_layers=(8,),
                min_replay_size=4,
                batch_size=4,
                update_every=4,
            ),
            seed=0,
        )
        rng = np.random.default_rng(0)
        for _ in range(4):  # 4 vec steps x 3 lanes = 12 transitions
            states = rng.random((3, 4))
            agent.observe_batch(
                states,
                np.zeros(3, dtype=int),
                np.ones(3),
                rng.random((3, 4)),
                np.zeros(3, dtype=bool),
            )
            agent.update()
        assert agent.training_steps == 3  # 12 transitions / update_every=4

    def test_reinforce_end_episode_discards_partial_vec_lanes(self):
        agent = ReinforceAgent(
            4, 3, ReinforceConfig(hidden_layers=(8,)), seed=0
        )
        rng = np.random.default_rng(0)
        agent.observe_batch(
            rng.random((3, 4)),
            np.zeros(3, dtype=int),
            np.ones(3),
            rng.random((3, 4)),
            np.zeros(3, dtype=bool),  # no lane finished its episode
        )
        diagnostics = agent.end_episode()
        assert diagnostics == {}
        assert agent.training_steps == 0  # partial episodes were dropped
        assert all(not lane for lane in agent._lane_states)

    def test_truncation_flushes_rollout_agents(self):
        # A tiny step cap forces truncations; the trainer must hand them to
        # the learner as rollout boundaries so REINFORCE still learns and
        # no lane buffer spans the forced reset.
        venv = make_venv(num_lanes=2)
        agent = ReinforceAgent(
            venv.state_dim,
            venv.num_actions,
            ReinforceConfig(hidden_layers=(8,)),
            seed=0,
        )
        trainer = VecTrainer(
            venv,
            agent,
            TrainingConfig(
                num_episodes=2, max_steps_per_episode=5, evaluation_interval=50
            ),
        )
        history = trainer.train()
        assert len(history.episode_rewards) == 2
        assert agent.training_steps >= 2  # one flush per truncated episode


class TestVecSweepEvaluation:
    def test_evaluate_agent_across_scenarios(self):
        grid = scenario_grid(small_scenario(), arrival_rates=(0.4, 1.0))
        probe = VecPlacementEnv.from_scenarios(grid, env_config=ENV_CONFIG)
        agent = DQNAgent(
            probe.state_dim,
            probe.num_actions,
            DQNConfig(hidden_layers=(16, 16), min_replay_size=16, batch_size=16),
            seed=0,
        )
        results = evaluate_agent_across_scenarios(
            agent, grid, episodes_per_scenario=2, seed=1, env_config=ENV_CONFIG
        )
        assert len(results) == 2
        for result in results:
            assert result.episodes == 2
            assert 0.0 <= result.mean_acceptance <= 1.0

    def test_rejects_bad_episode_count(self):
        with pytest.raises(ValueError):
            evaluate_agent_across_scenarios(
                FallbackAgent(4, 3), [small_scenario()], episodes_per_scenario=0
            )
