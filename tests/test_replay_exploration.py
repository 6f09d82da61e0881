"""Unit tests for replay buffers and exploration strategies."""

import numpy as np
import pytest

from repro.agents.exploration import (
    BoltzmannExploration,
    ConstantSchedule,
    EpsilonGreedy,
    ExponentialDecaySchedule,
    LinearDecaySchedule,
)
from repro.agents.replay import PrioritizedReplayBuffer, ReplayBuffer, Transition


def make_transition(value: float = 0.0, action: int = 0, with_mask: bool = True):
    return Transition(
        state=np.array([value, value]),
        action=action,
        reward=value,
        next_state=np.array([value + 1, value + 1]),
        done=False,
        next_mask=np.array([True, False, True]) if with_mask else None,
    )


class TestSchedules:
    def test_constant(self):
        schedule = ConstantSchedule(0.3)
        assert schedule(0) == schedule(1_000_000) == 0.3

    def test_linear_decay_endpoints(self):
        schedule = LinearDecaySchedule(1.0, 0.1, 100)
        assert schedule(0) == 1.0
        assert schedule(50) == pytest.approx(0.55)
        assert schedule(100) == 0.1
        assert schedule(10_000) == 0.1

    def test_linear_decay_monotone(self):
        schedule = LinearDecaySchedule(1.0, 0.0, 10)
        values = [schedule(i) for i in range(12)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_exponential_decay_floor(self):
        schedule = ExponentialDecaySchedule(1.0, 0.05, 0.9)
        assert schedule(0) == 1.0
        assert schedule(1000) == 0.05

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ValueError):
            LinearDecaySchedule(0.1, 0.5, 10)
        with pytest.raises(ValueError):
            ExponentialDecaySchedule(1.0, 0.1, 1.5)


class TestEpsilonGreedy:
    def test_greedy_picks_argmax(self):
        policy = EpsilonGreedy(ConstantSchedule(0.0), seed=0)
        action = policy.select(np.array([1.0, 5.0, 3.0]), step=0)
        assert action == 1

    def test_mask_excludes_invalid_actions(self):
        policy = EpsilonGreedy(ConstantSchedule(1.0), seed=0)
        mask = np.array([False, True, False])
        actions = {policy.select(np.array([9.0, 1.0, 8.0]), 0, mask=mask) for _ in range(50)}
        assert actions == {1}

    def test_greedy_flag_overrides_epsilon(self):
        policy = EpsilonGreedy(ConstantSchedule(1.0), seed=0)
        actions = {
            policy.select(np.array([0.0, 10.0, 0.0]), 0, greedy=True) for _ in range(20)
        }
        assert actions == {1}

    def test_full_exploration_visits_all_actions(self):
        policy = EpsilonGreedy(ConstantSchedule(1.0), seed=1)
        actions = {policy.select(np.zeros(4), 0) for _ in range(200)}
        assert actions == {0, 1, 2, 3}

    def test_all_invalid_mask_rejected(self):
        policy = EpsilonGreedy(ConstantSchedule(0.5), seed=0)
        with pytest.raises(ValueError):
            policy.select(np.zeros(3), 0, mask=np.zeros(3, dtype=bool))

    def test_mask_length_mismatch_rejected(self):
        policy = EpsilonGreedy(seed=0)
        with pytest.raises(ValueError):
            policy.select(np.zeros(3), 0, mask=np.array([True, False]))


def reference_select(rng, schedule, q_values, step, mask, greedy):
    """``EpsilonGreedy.select`` as it drew with ``uniform()`` and ``choice``."""
    q_values = np.asarray(q_values, dtype=float).ravel()
    valid = np.flatnonzero(mask)
    epsilon = 0.0 if greedy else schedule.value(step)
    if not greedy and rng.uniform() < epsilon:
        return int(rng.choice(valid))
    masked_q = np.full_like(q_values, -np.inf)
    masked_q[valid] = q_values[valid]
    best = np.flatnonzero(masked_q == masked_q.max())
    return int(rng.choice(best))


class TestEpsilonGreedyStream:
    @pytest.mark.parametrize("seed", range(24))
    def test_select_draws_the_reference_stream(self, seed):
        schedule = LinearDecaySchedule(1.0, 0.05, 300)
        explorer = EpsilonGreedy(schedule, seed=seed)
        reference = np.random.default_rng(seed)
        cases = np.random.default_rng(1000 + seed)
        num_actions = 2 + seed % 17
        explored = greedy_ties = 0
        for step in range(400):
            # Few distinct values, so greedy picks often break a tie.
            q_values = cases.integers(0, 3, size=num_actions).astype(float)
            mask = np.zeros(num_actions, dtype=bool)
            valid_count = 1 + int(cases.integers(0, num_actions))
            mask[cases.permutation(num_actions)[:valid_count]] = True
            greedy = bool(cases.random() < 0.2)
            expected = reference_select(reference, schedule, q_values, step, mask, greedy)
            assert explorer.select(q_values, step, mask=mask, greedy=greedy) == expected
            assert mask[expected]
            best = q_values[mask].max()
            explored += q_values[expected] != best
            greedy_ties += greedy and (q_values[mask] == best).sum() > 1
        assert explored > 0 and greedy_ties > 0
        assert explorer._rng.bit_generator.state == reference.bit_generator.state


class TestBoltzmann:
    def test_prefers_higher_values(self):
        policy = BoltzmannExploration(ConstantSchedule(0.5), seed=0)
        q = np.array([0.0, 3.0, 0.0])
        counts = np.zeros(3)
        for _ in range(300):
            counts[policy.select(q, 0)] += 1
        assert counts[1] > counts[0]
        assert counts[1] > counts[2]

    def test_respects_mask(self):
        policy = BoltzmannExploration(seed=0)
        mask = np.array([True, False, True])
        actions = {policy.select(np.array([1.0, 100.0, 1.0]), 0, mask=mask) for _ in range(100)}
        assert 1 not in actions

    def test_greedy_mode(self):
        policy = BoltzmannExploration(seed=0)
        assert policy.select(np.array([0.0, 2.0, 1.0]), 0, greedy=True) == 1


class TestReplayBuffer:
    def test_add_and_len(self):
        buffer = ReplayBuffer(capacity=10, seed=0)
        for i in range(5):
            buffer.add(make_transition(float(i)))
        assert len(buffer) == 5
        assert not buffer.is_full

    def test_capacity_eviction(self):
        buffer = ReplayBuffer(capacity=3, seed=0)
        for i in range(10):
            buffer.add(make_transition(float(i)))
        assert len(buffer) == 3
        assert buffer.is_full

    def test_sample_batch_shapes(self):
        buffer = ReplayBuffer(capacity=100, seed=0)
        for i in range(20):
            buffer.add(make_transition(float(i), action=i % 3))
        batch = buffer.sample(8)
        assert len(batch) == 8
        assert batch.states.shape == (8, 2)
        assert batch.next_states.shape == (8, 2)
        assert batch.actions.shape == (8,)
        assert batch.next_masks.shape == (8, 3)
        assert np.all(batch.weights == 1.0)

    def test_sample_empty_rejected(self):
        with pytest.raises(ValueError):
            ReplayBuffer(seed=0).sample(4)

    def test_missing_masks_produce_none(self):
        buffer = ReplayBuffer(capacity=10, seed=0)
        buffer.add(make_transition(1.0, with_mask=False))
        buffer.add(make_transition(2.0, with_mask=True))
        batch = buffer.sample(4)
        assert batch.next_masks is None

    def test_clear(self):
        buffer = ReplayBuffer(capacity=10, seed=0)
        buffer.add(make_transition())
        buffer.clear()
        assert len(buffer) == 0


class TestPrioritizedReplay:
    def test_priorities_bias_sampling(self):
        buffer = PrioritizedReplayBuffer(capacity=50, alpha=1.0, beta=0.0, seed=0)
        for i in range(10):
            buffer.add(make_transition(float(i), action=i % 2))
        # Give transition 0 overwhelming priority.
        buffer.update_priorities(np.array([0]), np.array([1000.0]))
        batch = buffer.sample(200)
        fraction_zero = np.mean(batch.states[:, 0] == 0.0)
        assert fraction_zero > 0.5

    def test_importance_weights_normalized(self):
        buffer = PrioritizedReplayBuffer(capacity=20, seed=0)
        for i in range(10):
            buffer.add(make_transition(float(i)))
        batch = buffer.sample(10)
        assert np.max(batch.weights) == pytest.approx(1.0)
        assert np.all(batch.weights > 0)

    def test_update_priorities_out_of_range_rejected(self):
        buffer = PrioritizedReplayBuffer(capacity=5, seed=0)
        buffer.add(make_transition())
        with pytest.raises(IndexError):
            buffer.update_priorities(np.array([7]), np.array([1.0]))

    def test_eviction_keeps_priority_list_aligned(self):
        buffer = PrioritizedReplayBuffer(capacity=4, seed=0)
        for i in range(12):
            buffer.add(make_transition(float(i)))
        assert len(buffer) == 4
        batch = buffer.sample(4)
        assert batch.states.shape == (4, 2)

    def test_clear_resets_priorities(self):
        buffer = PrioritizedReplayBuffer(capacity=5, seed=0)
        buffer.add(make_transition())
        buffer.update_priorities(np.array([0]), np.array([9.0]))
        buffer.clear()
        assert len(buffer) == 0
        buffer.add(make_transition())
        assert buffer.sample(1).weights[0] == pytest.approx(1.0)
