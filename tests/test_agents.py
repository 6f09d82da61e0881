"""Unit tests for the RL agents (DQN family, REINFORCE, A2C, tabular Q).

The heavier learning checks use a tiny deterministic "corridor" MDP so that
they stay fast while still verifying that each algorithm's update actually
improves its policy.
"""

import numpy as np
import pytest

from repro.agents.actor_critic import A2CConfig, ActorCriticAgent
from repro.agents.base import Agent
from repro.agents.dqn import DQNAgent, DQNConfig, make_dqn_variant
from repro.agents.policy_gradient import ReinforceAgent, ReinforceConfig
from repro.agents.qlearning import TabularQLearningAgent


class TwoArmedBandit:
    """One-step environment: action 1 pays +1, action 0 pays 0."""

    state_dim = 2
    num_actions = 2

    def __init__(self):
        self.state = np.array([0.5, 0.5])

    def reset(self):
        return self.state

    def step(self, action):
        reward = 1.0 if action == 1 else 0.0
        return self.state, reward, True, {}


class CorridorMDP:
    """A 4-cell corridor: move right (+) reaches the goal, left does not."""

    length = 4
    state_dim = 4
    num_actions = 2  # 0 = left, 1 = right

    def __init__(self):
        self.position = 0

    def _observe(self):
        state = np.zeros(self.length)
        state[self.position] = 1.0
        return state

    def reset(self):
        self.position = 0
        return self._observe()

    def step(self, action):
        if action == 1:
            self.position += 1
        else:
            self.position = max(0, self.position - 1)
        done = self.position >= self.length - 1
        reward = 1.0 if done else -0.05
        return self._observe(), reward, done, {}


def run_episodes(agent, env, episodes, learn=True, greedy=False, max_steps=30):
    """Tiny training loop shared by the learning tests."""
    returns = []
    for _ in range(episodes):
        state = env.reset()
        total = 0.0
        for _ in range(max_steps):
            action = agent.select_action(state, greedy=greedy)
            next_state, reward, done, _ = env.step(action)
            if learn:
                agent.observe(state, action, reward, next_state, done)
                agent.update()
            state = next_state
            total += reward
            if done:
                break
        if learn:
            agent.end_episode()
        returns.append(total)
    return returns


def fast_dqn_config(**overrides):
    base = dict(
        hidden_layers=(16, 16),
        learning_rate=5e-3,
        batch_size=16,
        min_replay_size=16,
        replay_capacity=2000,
        target_update_interval=50,
        epsilon_start=1.0,
        epsilon_end=0.05,
        epsilon_decay_steps=300,
    )
    base.update(overrides)
    return DQNConfig(**base)


class TestDQNMechanics:
    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            DQNConfig(min_replay_size=8, batch_size=16)
        with pytest.raises(ValueError):
            DQNConfig(discount=1.5)

    def test_variant_names(self):
        assert make_dqn_variant("dqn", 4, 3, seed=0).name == "dqn"
        assert make_dqn_variant("double", 4, 3, seed=0).name == "double_dqn"
        assert make_dqn_variant("dueling", 4, 3, seed=0).name == "dueling_dqn"
        assert make_dqn_variant("dueling_double", 4, 3, seed=0).name == "dueling_double_dqn"
        with pytest.raises(ValueError):
            make_dqn_variant("rainbow", 4, 3)

    def test_q_values_shape(self):
        agent = DQNAgent(4, 3, config=fast_dqn_config(), seed=0)
        assert agent.q_values(np.zeros(4)).shape == (3,)
        assert agent.batch_q_values(np.zeros((5, 4))).shape == (5, 3)

    def test_dueling_head_shape(self):
        agent = DQNAgent(4, 3, config=fast_dqn_config(dueling=True), seed=0)
        assert agent.online_network.output_dim == 4  # value + 3 advantages
        assert agent.q_values(np.zeros(4)).shape == (3,)

    def test_no_update_before_min_replay(self):
        agent = DQNAgent(2, 2, config=fast_dqn_config(), seed=0)
        agent.observe(np.zeros(2), 0, 1.0, np.zeros(2), True)
        assert agent.update() == {}

    def test_update_returns_diagnostics_after_warmup(self):
        agent = DQNAgent(2, 2, config=fast_dqn_config(), seed=0)
        for _ in range(20):
            agent.observe(np.zeros(2), 0, 1.0, np.zeros(2), True)
        diagnostics = agent.update()
        assert "loss" in diagnostics and "mean_td_error" in diagnostics

    def test_state_width_validated(self):
        agent = DQNAgent(3, 2, config=fast_dqn_config(), seed=0)
        with pytest.raises(ValueError):
            agent.select_action(np.zeros(5))

    def test_action_mask_respected(self):
        agent = DQNAgent(3, 4, config=fast_dqn_config(), seed=0)
        mask = np.array([False, False, True, False])
        for _ in range(20):
            assert agent.select_action(np.zeros(3), mask=mask) == 2

    def test_save_load_round_trip(self, tmp_path):
        agent = DQNAgent(3, 2, config=fast_dqn_config(), seed=0)
        path = agent.save(tmp_path / "dqn.npz")
        q_before = agent.q_values(np.ones(3))
        other = DQNAgent(3, 2, config=fast_dqn_config(), seed=5)
        other.load(path)
        assert np.allclose(other.q_values(np.ones(3)), q_before)

    def test_single_row_selection_validates_once(self, monkeypatch):
        # One row validates its batch once and its state once, and picks
        # what the per-row loop of Agent.select_actions picked.
        config = fast_dqn_config(epsilon_decay_steps=200)
        agent = DQNAgent(5, 4, config=config, seed=3)
        oracle = DQNAgent(5, 4, config=config, seed=3)
        counts = {"_validate_states": 0, "_validate_state": 0}
        for name in counts:
            validate = getattr(DQNAgent, name)

            def counting(self, *args, _validate=validate, _name=name):
                counts[_name] += self is agent
                return _validate(self, *args)

            monkeypatch.setattr(DQNAgent, name, counting)
        rng = np.random.default_rng(0)
        steps = 300
        for step in range(steps):
            agent._environment_steps = oracle._environment_steps = step
            states = rng.random((1, 5))
            masks = rng.random((1, 4)) < 0.5
            masks[0, rng.integers(0, 4)] = True
            masks = None if step % 3 == 0 else masks
            greedy = step % 5 == 0
            ours = agent.select_actions(states, masks, greedy=greedy)
            theirs = Agent.select_actions(oracle, states, masks, greedy=greedy)
            assert ours.dtype == theirs.dtype and ours.tolist() == theirs.tolist()
        assert counts == {"_validate_states": steps, "_validate_state": steps}
        assert (
            agent.exploration._rng.bit_generator.state
            == oracle.exploration._rng.bit_generator.state
        )

    def test_target_network_sync_interval(self):
        config = fast_dqn_config(target_update_interval=3)
        agent = DQNAgent(2, 2, config=config, seed=0)
        rng = np.random.default_rng(7)
        for _ in range(64):
            agent.observe(rng.random(2), 0, 1.0, rng.random(2), False)
        for _ in range(3):
            agent.update()
        # After a sync the target equals the online network.
        x = np.ones(2)
        assert np.allclose(agent.q_values(x), agent.q_values(x, target=True))


class TestDQNLearning:
    def test_learns_two_armed_bandit(self):
        agent = DQNAgent(2, 2, config=fast_dqn_config(), seed=1)
        run_episodes(agent, TwoArmedBandit(), episodes=150)
        greedy_action = agent.select_action(np.array([0.5, 0.5]), greedy=True)
        assert greedy_action == 1
        q = agent.q_values(np.array([0.5, 0.5]))
        assert q[1] > q[0]

    def test_learns_corridor(self):
        agent = DQNAgent(4, 2, config=fast_dqn_config(discount=0.9), seed=2)
        run_episodes(agent, CorridorMDP(), episodes=120)
        greedy_returns = run_episodes(agent, CorridorMDP(), episodes=5, learn=False, greedy=True)
        # Optimal return is 1 - 2 * 0.05 = 0.9 (three moves right).
        assert np.mean(greedy_returns) > 0.7

    def test_double_dqn_learns_bandit(self):
        agent = DQNAgent(2, 2, config=fast_dqn_config(double_q=True), seed=3)
        run_episodes(agent, TwoArmedBandit(), episodes=150)
        assert agent.select_action(np.array([0.5, 0.5]), greedy=True) == 1

    def test_dueling_dqn_learns_bandit(self):
        agent = DQNAgent(2, 2, config=fast_dqn_config(dueling=True), seed=4)
        run_episodes(agent, TwoArmedBandit(), episodes=150)
        assert agent.select_action(np.array([0.5, 0.5]), greedy=True) == 1

    def test_prioritized_replay_learns_bandit(self):
        agent = DQNAgent(2, 2, config=fast_dqn_config(prioritized_replay=True), seed=5)
        run_episodes(agent, TwoArmedBandit(), episodes=150)
        assert agent.select_action(np.array([0.5, 0.5]), greedy=True) == 1


class TestTabularQ:
    def test_discretization_buckets(self):
        agent = TabularQLearningAgent(3, 2, bins_per_feature=4, seed=0)
        key = agent.discretize(np.array([0.0, 0.49, 0.99]))
        assert key == (0, 1, 3)

    def test_out_of_range_values_clipped(self):
        agent = TabularQLearningAgent(2, 2, bins_per_feature=4, seed=0)
        assert agent.discretize(np.array([-1.0, 2.0])) == (0, 3)

    def test_learns_bandit(self):
        agent = TabularQLearningAgent(2, 2, learning_rate=0.5, seed=0)
        run_episodes(agent, TwoArmedBandit(), episodes=200)
        assert agent.select_action(np.array([0.5, 0.5]), greedy=True) == 1

    def test_learns_corridor(self):
        agent = TabularQLearningAgent(4, 2, learning_rate=0.3, discount=0.9, seed=1)
        run_episodes(agent, CorridorMDP(), episodes=300)
        greedy_returns = run_episodes(agent, CorridorMDP(), episodes=5, learn=False, greedy=True)
        assert np.mean(greedy_returns) > 0.7

    def test_update_without_observe_is_noop(self):
        agent = TabularQLearningAgent(2, 2, seed=0)
        assert agent.update() == {}

    def test_table_grows_with_distinct_states(self):
        agent = TabularQLearningAgent(1, 2, bins_per_feature=10, seed=0)
        for value in np.linspace(0, 0.99, 10):
            agent.observe(np.array([value]), 0, 0.0, np.array([value]), True)
            agent.update()
        assert agent.table_size == 10


class TestReinforce:
    def test_learns_bandit(self):
        # A modest learning rate plus a non-trivial entropy bonus keeps the
        # Monte Carlo policy gradient from collapsing onto the wrong arm
        # before it has sampled the good one.
        agent = ReinforceAgent(
            2,
            2,
            config=ReinforceConfig(
                hidden_layers=(16,), learning_rate=0.02, entropy_coefficient=0.05
            ),
            seed=0,
        )
        run_episodes(agent, TwoArmedBandit(), episodes=400)
        probabilities = agent.action_probabilities(np.array([0.5, 0.5]))
        assert probabilities[1] > 0.8

    def test_action_probabilities_masked(self):
        agent = ReinforceAgent(2, 3, seed=0)
        probabilities = agent.action_probabilities(
            np.zeros(2), mask=np.array([True, False, True])
        )
        assert probabilities[1] == pytest.approx(0.0, abs=1e-6)
        assert probabilities.sum() == pytest.approx(1.0)

    def test_end_episode_clears_buffer(self):
        agent = ReinforceAgent(2, 2, seed=0)
        agent.observe(np.zeros(2), 0, 1.0, np.zeros(2), True)
        diagnostics = agent.end_episode()
        assert "policy_loss" in diagnostics
        assert agent.end_episode() == {}

    def test_update_is_noop(self):
        agent = ReinforceAgent(2, 2, seed=0)
        assert agent.update() == {}

    def test_discounted_returns(self):
        agent = ReinforceAgent(2, 2, config=ReinforceConfig(discount=0.5), seed=0)
        returns = agent._discounted_returns(np.array([1.0, 1.0, 1.0]))
        assert np.allclose(returns, [1.75, 1.5, 1.0])


class TestActorCritic:
    def test_learns_bandit(self):
        agent = ActorCriticAgent(
            2,
            2,
            config=A2CConfig(hidden_layers=(16,), actor_learning_rate=0.05, n_steps=4),
            seed=0,
        )
        run_episodes(agent, TwoArmedBandit(), episodes=300)
        probabilities = agent.action_probabilities(np.array([0.5, 0.5]))
        assert probabilities[1] > 0.8

    def test_learns_corridor(self):
        agent = ActorCriticAgent(
            4,
            2,
            config=A2CConfig(hidden_layers=(32,), actor_learning_rate=0.02, n_steps=8, discount=0.9),
            seed=1,
        )
        run_episodes(agent, CorridorMDP(), episodes=400)
        greedy_returns = run_episodes(agent, CorridorMDP(), episodes=5, learn=False, greedy=True)
        assert np.mean(greedy_returns) > 0.5

    def test_update_waits_for_n_steps(self):
        agent = ActorCriticAgent(2, 2, config=A2CConfig(n_steps=5), seed=0)
        for _ in range(4):
            agent.observe(np.zeros(2), 0, 0.0, np.zeros(2), False)
            assert agent.update() == {}
        agent.observe(np.zeros(2), 0, 0.0, np.zeros(2), False)
        assert "actor_loss" in agent.update()

    def test_state_value_scalar(self):
        agent = ActorCriticAgent(3, 2, seed=0)
        assert isinstance(agent.state_value(np.zeros(3)), float)

    def test_save_load(self, tmp_path):
        agent = ActorCriticAgent(3, 2, seed=0)
        path = agent.save(tmp_path / "a2c.npz")
        probabilities = agent.action_probabilities(np.ones(3))
        fresh = ActorCriticAgent(3, 2, seed=9)
        fresh.load(path)
        assert np.allclose(fresh.action_probabilities(np.ones(3)), probabilities)
