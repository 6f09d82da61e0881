"""Unit tests for compute nodes."""

import pytest

from repro.substrate.geo import GeoPoint
from repro.substrate.network import SubstrateNetwork
from repro.substrate.node import (
    ComputeNode,
    InsufficientCapacityError,
    NodeTier,
    UnknownAllocationError,
    make_cloud_node,
    make_edge_node,
)
from repro.substrate.resources import ResourceVector
from tests.substrate_oracles import node_available, node_used


@pytest.fixture
def node():
    return ComputeNode(
        node_id=1,
        location=GeoPoint(40.0, -74.0),
        capacity=ResourceVector(8.0, 16.0, 100.0),
        tier=NodeTier.EDGE,
    )


@pytest.fixture
def network(node):
    network = SubstrateNetwork()
    network.add_node(node)
    return network


def records_of(network):
    """The live allocation records of the network's only node."""
    return network.ledger.node_records[0]


class TestConstruction:
    def test_edge_factory(self):
        edge = make_edge_node(3, GeoPoint(40.0, -74.0))
        assert edge.is_edge and not edge.is_cloud
        assert edge.name == "edge-3"

    def test_cloud_factory_has_larger_capacity(self):
        edge = make_edge_node(0, GeoPoint(40.0, -74.0))
        cloud = make_cloud_node(1, GeoPoint(39.0, -104.0))
        assert cloud.capacity.cpu > edge.capacity.cpu
        assert cloud.is_cloud

    def test_cloud_cheaper_per_unit_than_edge(self):
        edge = make_edge_node(0, GeoPoint(40.0, -74.0))
        cloud = make_cloud_node(1, GeoPoint(39.0, -104.0))
        assert cloud.cost_per_unit.cpu < edge.cost_per_unit.cpu

    def test_negative_activation_cost_rejected(self):
        with pytest.raises(ValueError):
            ComputeNode(
                node_id=0,
                location=GeoPoint(0, 0),
                capacity=ResourceVector(1, 1, 1),
                activation_cost=-1.0,
            )


class TestAllocation:
    """Node allocations through the network API, checked on the ledger row."""

    def test_allocate_updates_usage(self, network):
        network.allocate_node(1, "a", ResourceVector(2, 4, 10))
        assert node_used(network, 1).as_tuple() == (2.0, 4.0, 10.0)
        assert node_available(network, 1).as_tuple() == (6.0, 12.0, 90.0)
        assert list(records_of(network)) == ["a"]
        assert network.ledger.node_alloc_count[0] == 1

    def test_allocate_rejects_over_capacity(self, network):
        with pytest.raises(InsufficientCapacityError):
            network.allocate_node(1, "big", ResourceVector(9, 1, 1))
        assert not records_of(network)
        assert node_used(network, 1).is_zero()

    def test_allocate_duplicate_handle_rejected(self, network):
        network.allocate_node(1, "a", ResourceVector(1, 1, 1))
        with pytest.raises(ValueError, match="already exists"):
            network.allocate_node(1, "a", ResourceVector(1, 1, 1))

    def test_release_returns_demand(self, network):
        demand = ResourceVector(2, 2, 2)
        network.allocate_node(1, "a", demand)
        released = network.ledger.release_node(network.ledger.node_row[1], "a")
        assert tuple(released) == demand.as_tuple()
        assert node_used(network, 1).is_zero()
        assert not records_of(network)

    def test_release_unknown_handle(self, network):
        with pytest.raises(UnknownAllocationError):
            network.release_node(1, "missing")

    def test_can_host_respects_current_usage(self, network):
        network.allocate_node(1, "a", ResourceVector(6, 1, 1))
        ledger = network.ledger
        assert not ledger.can_host_all(ResourceVector(3, 1, 1).as_array())[0]
        assert ledger.can_host_all(ResourceVector(2, 1, 1).as_array())[0]

    def test_multiple_allocations_accumulate(self, network):
        network.allocate_node(1, "a", ResourceVector(2, 2, 2))
        network.allocate_node(1, "b", ResourceVector(3, 3, 3))
        assert node_used(network, 1).as_tuple() == (5.0, 5.0, 5.0)
        network.release_node(1, "a")
        assert node_used(network, 1).as_tuple() == (3.0, 3.0, 3.0)

    def test_reset_clears_everything(self, network):
        network.allocate_node(1, "a", ResourceVector(2, 2, 2))
        network.reset()
        assert node_used(network, 1).is_zero()
        assert "a" not in records_of(network)
        assert network.ledger.node_alloc_count[0] == 0

    def test_allocation_exactly_filling_capacity(self, network):
        network.allocate_node(1, "full", ResourceVector(8, 16, 100))
        ledger = network.ledger
        assert ledger.max_utilization()[0] == pytest.approx(1.0)
        assert not ledger.can_host_all(ResourceVector(0.1, 0, 0).as_array())[0]


class TestUtilizationAndCost:
    def test_utilization_ratios(self, network):
        network.allocate_node(1, "a", ResourceVector(4, 4, 10))
        utilization = network.ledger.utilization_matrix()[0]
        assert utilization[0] == pytest.approx(0.5)
        assert utilization[1] == pytest.approx(0.25)
        assert network.ledger.max_utilization()[0] == pytest.approx(0.5)
        assert utilization.mean() == pytest.approx((0.5 + 0.25 + 0.1) / 3)

    def test_hosting_cost_scales_with_duration(self, node):
        demand = ResourceVector(2, 2, 2)
        assert node.hosting_cost(demand, 10.0) == pytest.approx(
            2 * node.hosting_cost(demand, 5.0)
        )

    def test_hosting_cost_negative_duration_rejected(self, node):
        with pytest.raises(ValueError):
            node.hosting_cost(ResourceVector(1, 1, 1), -1.0)

    def test_usage_cost_rate_includes_activation(self):
        network = SubstrateNetwork()
        network.add_node(
            ComputeNode(
                node_id=0,
                location=GeoPoint(0, 0),
                capacity=ResourceVector(10, 10, 10),
                activation_cost=5.0,
            )
        )
        assert network.compute_cost_rate() == 0.0
        network.allocate_node(0, "a", ResourceVector(1, 1, 1))
        assert network.compute_cost_rate() > 5.0

    def test_snapshot_contains_key_fields(self, node, network):
        network.allocate_node(1, "a", ResourceVector(1, 1, 1))
        assert node.snapshot() == {
            "node_id": 1,
            "name": "",
            "tier": "edge",
            "capacity": {"cpu": 8.0, "memory": 16.0, "storage": 100.0},
        }
        snapshot = network.snapshot()["nodes"][0]
        assert snapshot["node_id"] == 1
        assert snapshot["tier"] == "edge"
        assert snapshot["allocations"] == 1
        assert 0 < snapshot["max_utilization"] < 1
