"""Unit tests for substrate links."""

import pytest

from repro.substrate.geo import GeoPoint
from repro.substrate.link import (
    InsufficientBandwidthError,
    Link,
    UnknownReservationError,
    canonical_endpoints,
)
from repro.substrate.network import SubstrateNetwork
from repro.substrate.node import ComputeNode
from repro.substrate.resources import ResourceVector
from tests.substrate_oracles import link_available, link_used


@pytest.fixture
def link():
    return Link(endpoints=(2, 1), bandwidth_capacity=100.0, latency_ms=3.0)


@pytest.fixture
def network():
    """Nodes 1 and 2 joined by one 100 Mbps link."""
    network = SubstrateNetwork()
    for node_id in (1, 2):
        network.add_node(ComputeNode(node_id, GeoPoint(0, node_id), ResourceVector(1, 1, 1)))
    network.add_link(2, 1, 100.0, latency_ms=3.0)
    return network


def records_of(network):
    """The live reservation records of the network's only link."""
    return network.ledger.link_records[0]


class TestCanonicalEndpoints:
    def test_orders_pair(self):
        assert canonical_endpoints(5, 2) == (2, 5)
        assert canonical_endpoints(2, 5) == (2, 5)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            canonical_endpoints(3, 3)


class TestConstruction:
    def test_endpoints_canonicalized(self, link):
        assert link.endpoints == (1, 2)

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            Link(endpoints=(0, 1), bandwidth_capacity=0.0, latency_ms=1.0)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            Link(endpoints=(0, 1), bandwidth_capacity=10.0, latency_ms=-1.0)


class TestReservations:
    """Reservations through the network API, checked on the ledger slot."""

    def test_reserve_and_release(self, network):
        network.allocate_path([2, 1], "flow", 40.0)
        assert link_used(network, 1, 2) == 40.0
        assert link_available(network, 1, 2) == pytest.approx(60.0)
        assert link_used(network, 1, 2) / 100.0 == pytest.approx(0.4)
        assert network.ledger.release_link(0, "flow") == 40.0
        assert link_used(network, 1, 2) == 0.0

    def test_reserve_over_capacity_rejected(self, network):
        network.allocate_path([1, 2], "a", 80.0)
        with pytest.raises(InsufficientBandwidthError):
            network.allocate_path([1, 2], "b", 30.0)
        # The failed reservation must not consume bandwidth.
        assert link_used(network, 1, 2) == 80.0
        assert list(records_of(network)) == ["a"]

    def test_duplicate_handle_rejected(self, network):
        network.allocate_path([1, 2], "a", 10.0)
        with pytest.raises(ValueError):
            network.allocate_path([1, 2], "a", 10.0)

    def test_negative_bandwidth_rejected(self, network):
        with pytest.raises(ValueError):
            network.allocate_path([1, 2], "a", -1.0)
        assert not records_of(network)

    def test_release_unknown_handle(self, network):
        with pytest.raises(UnknownReservationError):
            network.ledger.release_link(0, "nope")

    def test_can_carry_boundary(self, network):
        network.allocate_path([1, 2], "a", 60.0)
        with pytest.raises(InsufficientBandwidthError):
            network.allocate_path([1, 2], "over", 40.1)
        network.allocate_path([1, 2], "rest", 40.0)
        assert link_available(network, 1, 2) == 0.0

    def test_zero_bandwidth_reservation_allowed(self, network):
        network.allocate_path([1, 2], "zero", 0.0)
        assert link_used(network, 1, 2) == 0.0
        assert "zero" in records_of(network)

    def test_reset(self, network):
        network.allocate_path([1, 2], "a", 10.0)
        network.reset()
        assert link_used(network, 1, 2) == 0.0
        assert "a" not in records_of(network)


class TestCost:
    def test_transport_cost(self, link):
        assert link.transport_cost(100.0, 10.0) == pytest.approx(
            100.0 * 10.0 * link.cost_per_mbps
        )

    def test_usage_cost_rate(self, network):
        network.allocate_path([1, 2], "a", 50.0)
        assert network.compute_cost_rate() == pytest.approx(
            50.0 * network.link(1, 2).cost_per_mbps
        )

    def test_snapshot(self, link):
        assert link.snapshot() == {
            "endpoints": [1, 2],
            "bandwidth_capacity": 100.0,
            "latency_ms": 3.0,
        }
