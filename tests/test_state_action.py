"""Unit tests for the MDP state encoder and action space."""

import numpy as np
import pytest

from repro.core.action import ActionSpace
from repro.core.state import NODE_FEATURES, REQUEST_SCALARS, EncoderConfig, StateEncoder
from repro.substrate.resources import ResourceVector
from tests.conftest import build_request


@pytest.fixture
def encoder(small_network, catalog):
    return StateEncoder(small_network, catalog)


@pytest.fixture
def actions(small_network):
    return ActionSpace(small_network)


class TestStateEncoder:
    def test_state_dim_formula(self, encoder, small_network, catalog):
        expected = NODE_FEATURES * small_network.num_nodes + len(catalog) + REQUEST_SCALARS
        assert encoder.state_dim == expected

    def test_encoding_shape_and_range(self, encoder, catalog):
        request = build_request(catalog, source=0)
        state = encoder.encode(request, 0, [], 0.0)
        assert state.shape == (encoder.state_dim,)
        assert np.all(state >= 0.0)
        assert np.all(state <= 1.0)

    def test_one_hot_marks_next_vnf(self, encoder, small_network, catalog):
        request = build_request(catalog, source=0, vnf_names=("ids", "nat"))
        state = encoder.encode(request, 0, [], 0.0)
        offset = NODE_FEATURES * small_network.num_nodes
        one_hot = state[offset : offset + len(catalog)]
        assert one_hot.sum() == 1.0
        assert one_hot[catalog.index_of("ids")] == 1.0

    def test_utilization_reflected_in_features(self, encoder, small_network, catalog):
        request = build_request(catalog, source=0)
        before = encoder.encode(request, 0, [], 0.0)
        small_network.allocate_node(1, "hog", ResourceVector(4, 8, 50))
        after = encoder.encode(request, 0, [], 0.0)
        node1_cpu_index = 1 * NODE_FEATURES
        assert after[node1_cpu_index] > before[node1_cpu_index]

    def test_anchor_switches_to_last_placed_vnf(self, encoder, catalog):
        request = build_request(catalog, source=0, vnf_names=("firewall", "nat"))
        assert encoder.anchor_node(request, []) == 0
        assert encoder.anchor_node(request, [3]) == 3

    def test_latency_features_relative_to_anchor(self, encoder, small_network, catalog):
        request = build_request(catalog, source=0, vnf_names=("firewall", "nat"), sla_ms=100.0)
        state_from_source = encoder.encode(request, 0, [], 0.0)
        state_from_node3 = encoder.encode(request, 1, [3], 6.0)
        # Latency feature of node 0 (index 2 within its block): 0 from source, >0 from node 3.
        assert state_from_source[2] == pytest.approx(0.0)
        assert state_from_node3[2] > 0.0

    def test_sla_consumption_feature(self, encoder, catalog):
        request = build_request(catalog, source=0, sla_ms=50.0)
        offset = encoder.state_dim - REQUEST_SCALARS
        fresh = encoder.encode(request, 0, [], 0.0)
        consumed = encoder.encode(request, 1, [1], 25.0)
        assert fresh[offset + 2] == pytest.approx(0.0)
        assert consumed[offset + 2] == pytest.approx(0.5)

    def test_invalid_vnf_index_rejected(self, encoder, catalog):
        request = build_request(catalog)
        with pytest.raises(ValueError):
            encoder.encode(request, 5, [], 0.0)

    def test_describe_matches_state_dim(self, encoder):
        assert len(encoder.describe()) == encoder.state_dim

    def test_encoder_config_validation(self):
        with pytest.raises(ValueError):
            EncoderConfig(max_chain_length=0)


class TestActionSpace:
    def test_sizes(self, actions, small_network):
        assert actions.num_actions == small_network.num_nodes + 1
        assert actions.reject_action == small_network.num_nodes

    def test_node_action_round_trip(self, actions, small_network):
        for node_id in small_network.node_ids:
            action = actions.action_for_node(node_id)
            assert actions.node_for_action(action) == node_id
            assert not actions.is_reject(action)
        assert actions.is_reject(actions.reject_action)

    def test_node_for_reject_action_rejected(self, actions):
        with pytest.raises(ValueError):
            actions.node_for_action(actions.reject_action)

    def test_mask_reject_always_valid(self, actions, catalog):
        request = build_request(catalog, source=0)
        mask = actions.valid_mask(request, 0, [], 0.0)
        assert mask[actions.reject_action]

    def test_mask_excludes_full_nodes(self, actions, small_network, catalog):
        small_network.allocate_node(2, "hog", ResourceVector(7.9, 15.9, 99))
        request = build_request(catalog, source=0)
        mask = actions.valid_mask(request, 0, [], 0.0)
        assert not mask[actions.action_for_node(2)]
        assert mask[actions.action_for_node(1)]

    def test_mask_excludes_latency_infeasible_nodes(self, actions, catalog):
        # SLA of 3 ms: node 3 is 6 ms away from the source, node 1 only 2 ms.
        request = build_request(catalog, source=0, sla_ms=3.0, vnf_names=("nat",))
        mask = actions.valid_mask(request, 0, [], 0.0)
        assert mask[actions.action_for_node(1)]
        assert not mask[actions.action_for_node(3)]

    def test_latency_check_can_be_disabled(self, actions, catalog):
        request = build_request(catalog, source=0, sla_ms=3.0, vnf_names=("nat",))
        mask = actions.valid_mask(request, 0, [], 0.0, latency_check=False)
        assert mask[actions.action_for_node(3)]
