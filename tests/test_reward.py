"""Unit tests for the reward function."""

import pytest

from repro.core.reward import (
    RewardCalculator,
    RewardConfig,
    acceptance_focused_config,
    cost_focused_config,
    latency_focused_config,
)
from repro.nfv.placement import Placement
from tests.conftest import build_request
from tests.substrate_oracles import node_max_utilization


@pytest.fixture
def calculator():
    return RewardCalculator(RewardConfig())


def accepted(calculator, placement, network):
    """The terminal reward of ``placement``, priced as both environments price it."""
    request = placement.request
    return calculator.acceptance_reward(
        placement.end_to_end_latency_ms(),
        request.sla.max_latency_ms,
        placement.total_cost(network),
        request.revenue(),
    )


class TestStepReward:
    def test_step_reward_is_negative_shaping(self, calculator, small_network, catalog):
        request = build_request(catalog, source=0)
        reward = calculator.step_reward(request, small_network, 1, added_latency_ms=3.0, vnf_index=0)
        assert reward < 0

    def test_higher_latency_is_worse(self, calculator, small_network, catalog):
        request = build_request(catalog, source=0)
        near = calculator.step_reward(request, small_network, 1, 2.0, 0)
        far = calculator.step_reward(request, small_network, 1, 20.0, 0)
        assert far < near

    def test_loaded_node_is_worse(self, calculator, small_network, catalog):
        from repro.substrate.resources import ResourceVector

        request = build_request(catalog, source=0)
        before = calculator.step_reward(request, small_network, 1, 2.0, 0)
        small_network.allocate_node(1, "hog", ResourceVector(6, 12, 80))
        after = calculator.step_reward(request, small_network, 1, 2.0, 0)
        assert after < before

    def test_loaded_node_matches_per_object_formula(self, calculator, small_network, catalog):
        from repro.substrate.resources import ResourceVector

        request = build_request(catalog, source=0)
        small_network.allocate_node(1, "hog", ResourceVector(6, 12, 80))
        config = calculator.config
        node = small_network.node(1)
        vnf = request.chain.vnf_at(0)
        hosting = node.hosting_cost(
            vnf.demand_for(request.bandwidth_mbps), request.holding_time
        )
        expected = -(
            config.step_latency_weight * (2.0 / request.sla.max_latency_ms)
            + config.step_cost_weight * (hosting / config.cost_normalizer)
            + config.load_balance_weight * 0.1 * node_max_utilization(small_network, 1)
        )
        reward = calculator.step_reward(request, small_network, 1, 2.0, 0)
        assert reward == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_zero_weights_give_zero_step_reward(self, small_network, catalog):
        calculator = RewardCalculator(
            RewardConfig(step_latency_weight=0.0, step_cost_weight=0.0, load_balance_weight=0.0)
        )
        request = build_request(catalog, source=0)
        assert calculator.step_reward(request, small_network, 1, 5.0, 0) == 0.0


class TestTerminalRewards:
    def test_acceptance_reward_positive_for_good_placement(self, calculator, small_network, catalog):
        request = build_request(catalog, source=0, sla_ms=100.0)
        placement = Placement.build(request, [1, 1], small_network)
        assert accepted(calculator, placement, small_network) > 0

    def test_acceptance_reward_association_order(self, calculator):
        config = calculator.config
        expected = (
            config.accept_reward
            + config.revenue_scale * 30.0 / 100.0
            - config.latency_weight * (20.0 / 70.0)
            - config.cost_weight * (50.0 / config.cost_normalizer)
        )
        assert calculator.acceptance_reward(20.0, 70.0, 50.0, 30.0) == expected

    def test_lower_latency_placement_preferred(self, calculator, small_network, catalog):
        request = build_request(catalog, source=0, sla_ms=100.0)
        near = Placement.build(request, [0, 0], small_network)
        far = Placement.build(request, [3, 3], small_network)
        assert accepted(calculator, near, small_network) > (
            accepted(calculator, far, small_network)
        )

    def test_rejection_and_infeasibility_penalties(self, calculator, catalog):
        request = build_request(catalog)
        assert calculator.rejection_penalty(request) == -RewardConfig().reject_penalty
        assert calculator.infeasibility_penalty(request) == -RewardConfig().infeasible_penalty
        assert calculator.infeasibility_penalty(request) < calculator.rejection_penalty(request)

    def test_describe_lists_weights(self, calculator):
        description = calculator.describe()
        assert description["accept_reward"] == RewardConfig().accept_reward
        assert "latency_weight" in description


class TestRewardVariants:
    def test_latency_focused_weights(self):
        config = latency_focused_config()
        assert config.latency_weight > RewardConfig().latency_weight
        assert config.cost_weight < RewardConfig().cost_weight

    def test_cost_focused_weights(self):
        config = cost_focused_config()
        assert config.cost_weight > RewardConfig().cost_weight

    def test_acceptance_focused_weights(self):
        config = acceptance_focused_config()
        assert config.accept_reward > RewardConfig().accept_reward

    def test_invalid_weights_rejected(self):
        with pytest.raises(ValueError):
            RewardConfig(accept_reward=-1.0)
        with pytest.raises(ValueError):
            RewardConfig(cost_normalizer=0.0)

    def test_variant_changes_ordering_of_placements(self, small_network, catalog):
        # Under a cost-focused reward the cheaper-but-farther placement can win.
        request = build_request(catalog, source=0, sla_ms=200.0)
        near = Placement.build(request, [0, 0], small_network)
        far = Placement.build(request, [3, 3], small_network)
        latency_calc = RewardCalculator(latency_focused_config())
        assert accepted(latency_calc, near, small_network) > (
            accepted(latency_calc, far, small_network)
        )
