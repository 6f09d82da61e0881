"""Unit tests for the substrate network (routing, allocation, statistics)."""

import pytest

from repro.substrate.geo import GeoPoint
from repro.substrate.link import InsufficientBandwidthError
from repro.substrate.network import NoRouteError, SubstrateNetwork, UnknownNodeError
from repro.substrate.node import ComputeNode, NodeTier, make_cloud_node, make_edge_node
from repro.substrate.resources import ResourceVector
from repro.workloads.generator import RequestGenerator, WorkloadConfig
from tests.substrate_oracles import link_used


def build_triangle():
    """Three edge nodes in a triangle with asymmetric latencies."""
    network = SubstrateNetwork()
    capacity = ResourceVector(10, 10, 10)
    for node_id in range(3):
        network.add_node(
            ComputeNode(node_id, GeoPoint(40.0 + node_id * 0.01, -74.0), capacity)
        )
    network.add_link(0, 1, 100.0, latency_ms=1.0)
    network.add_link(1, 2, 100.0, latency_ms=1.0)
    network.add_link(0, 2, 100.0, latency_ms=5.0)
    return network


class TestConstruction:
    def test_duplicate_node_rejected(self):
        network = SubstrateNetwork()
        network.add_node(ComputeNode(0, GeoPoint(0, 0), ResourceVector(1, 1, 1)))
        with pytest.raises(ValueError):
            network.add_node(ComputeNode(0, GeoPoint(0, 0), ResourceVector(1, 1, 1)))

    def test_link_requires_known_nodes(self):
        network = SubstrateNetwork()
        network.add_node(ComputeNode(0, GeoPoint(0, 0), ResourceVector(1, 1, 1)))
        with pytest.raises(UnknownNodeError):
            network.add_link(0, 1, 100.0)

    def test_duplicate_link_rejected(self):
        network = build_triangle()
        with pytest.raises(ValueError):
            network.add_link(1, 0, 100.0)

    def test_link_latency_derived_from_geography_when_missing(self):
        network = SubstrateNetwork()
        network.add_node(ComputeNode(0, GeoPoint(40.0, -74.0), ResourceVector(1, 1, 1)))
        network.add_node(ComputeNode(1, GeoPoint(41.0, -74.0), ResourceVector(1, 1, 1)))
        link = network.add_link(0, 1, 100.0)
        assert link.latency_ms > 0.35  # more than just the hop overhead

    def test_node_tier_queries(self):
        network = build_triangle()
        network.add_node(make_cloud_node(9, GeoPoint(39.0, -104.0)))
        network.add_link(2, 9, 1000.0, latency_ms=20.0)
        assert set(network.edge_node_ids) == {0, 1, 2}
        assert network.cloud_node_ids == [9]
        assert network.num_nodes == 4
        assert network.is_connected()
        # The memoized edge ids are dropped with the other topology caches:
        # an edge node added after a read shows on the next read, and a
        # generator built before the add draws it as an ingress.
        generator = RequestGenerator(network, config=WorkloadConfig(seed=0))
        assert network.edge_node_ids == (0, 1, 2)
        network.add_node(make_edge_node(5, GeoPoint(40.05, -74.0)))
        network.add_link(5, 0, 100.0, latency_ms=1.0)
        assert network.edge_node_ids == (0, 1, 2, 5)
        sources = {generator.sample_source_node() for _ in range(200)}
        assert sources == {0, 1, 2, 5}


class TestRouting:
    def test_shortest_path_prefers_low_latency(self):
        network = build_triangle()
        path = network.shortest_path(0, 2)
        assert path.nodes == (0, 1, 2)
        assert path.latency_ms == pytest.approx(2.0)
        assert len(path.slots) == 2

    def test_path_to_self(self):
        network = build_triangle()
        path = network.shortest_path(1, 1)
        assert path.nodes == (1,)
        assert path.latency_ms == 0.0
        assert path.links() == []

    def test_latency_between_symmetric(self):
        network = build_triangle()
        assert network.latency_between(0, 2) == network.latency_between(2, 0)

    def test_no_route_error(self):
        network = build_triangle()
        network.add_node(ComputeNode(7, GeoPoint(10, 10), ResourceVector(1, 1, 1)))
        with pytest.raises(NoRouteError):
            network.shortest_path(0, 7)
        assert not network.is_connected()

    def test_is_connected_flips_when_link_joins_isolated_node(self):
        network = build_triangle()
        network.add_node(ComputeNode(7, GeoPoint(10, 10), ResourceVector(1, 1, 1)))
        assert not network.is_connected()
        # The cached latency matrix must be rebuilt after the new link.
        network.add_link(2, 7, 100.0, latency_ms=3.0)
        assert network.is_connected()
        assert network.latency_between(0, 7) == pytest.approx(5.0)

    def test_empty_and_single_node_networks_are_connected(self):
        network = SubstrateNetwork()
        assert network.is_connected()
        network.add_node(ComputeNode(0, GeoPoint(0, 0), ResourceVector(1, 1, 1)))
        assert network.is_connected()

    def test_unknown_node_in_routing(self):
        network = build_triangle()
        with pytest.raises(UnknownNodeError):
            network.shortest_path(0, 99)



class TestPathBandwidth:
    def test_available_bandwidth_is_bottleneck(self):
        network = build_triangle()
        network.allocate_path([0, 1], "x", 60.0)
        path = network.shortest_path(0, 2)
        assert path.nodes == (0, 1, 2)
        ledger, slots = network.ledger, list(path.slots)
        free = ledger.link_capacity[slots] - ledger.link_used[slots]
        assert float(free.min()) == pytest.approx(40.0)
        with pytest.raises(InsufficientBandwidthError):
            network.allocate_path(path.nodes, "y", 41.0)
        assert link_used(network, 1, 2) == 0.0
        network.allocate_path(path.nodes, "y", 40.0)
        assert link_used(network, 0, 1) == pytest.approx(100.0)

    def test_single_node_path_has_infinite_bandwidth(self):
        network = build_triangle()
        assert network.shortest_path(1, 1).slots == ()
        network.allocate_path([1], "x", 1e12)
        assert not network.ledger.link_used.any()

    def test_allocate_path_and_release(self):
        network = build_triangle()
        network.allocate_path([0, 1, 2], "flow", 30.0)
        assert link_used(network, 0, 1) == 30.0
        assert link_used(network, 1, 2) == 30.0
        network.release_path([0, 1, 2], "flow")
        assert link_used(network, 0, 1) == 0.0

    def test_allocate_path_rolls_back_on_failure(self):
        network = build_triangle()
        network.allocate_path([1, 2], "other", 90.0)
        with pytest.raises(InsufficientBandwidthError):
            network.allocate_path([0, 1, 2], "flow", 30.0)
        # The first link must have been rolled back.
        assert link_used(network, 0, 1) == 0.0
        assert "flow" not in network.ledger.link_records[0]

    def test_release_path_is_idempotent_for_missing_handles(self):
        network = build_triangle()
        # Releasing a handle never reserved must not raise.
        network.release_path([0, 1, 2], "ghost")


class TestStatistics:
    def test_total_capacity_and_usage(self):
        network = build_triangle()
        assert network.total_capacity().cpu == 30.0
        network.allocate_node(0, "a", ResourceVector(5, 5, 5))
        assert network.total_used().cpu == 5.0
        assert network.total_used(NodeTier.CLOUD).is_zero()

    def test_mean_utilization_and_imbalance(self):
        network = build_triangle()
        assert network.mean_node_utilization() == 0.0
        assert network.utilization_imbalance() == 0.0
        network.allocate_node(0, "a", ResourceVector(10, 10, 10))
        assert network.mean_node_utilization() == pytest.approx(1.0 / 3.0)
        assert network.utilization_imbalance() > 0.0

    def test_cost_rate_reflects_allocations(self):
        network = build_triangle()
        assert network.compute_cost_rate() == 0.0
        network.allocate_node(1, "a", ResourceVector(2, 2, 2))
        network.allocate_path([0, 1], "f", 10.0)
        assert network.compute_cost_rate() > 0.0

    def test_reset_clears_all_allocations(self):
        network = build_triangle()
        network.allocate_node(0, "a", ResourceVector(1, 1, 1))
        network.allocate_path([0, 1], "f", 10.0)
        network.reset()
        assert network.total_used().is_zero()
        assert link_used(network, 0, 1) == 0.0

    def test_snapshot_structure(self):
        network = build_triangle()
        snapshot = network.snapshot()
        assert snapshot["num_nodes"] == 3
        assert snapshot["num_links"] == 3
        assert len(snapshot["nodes"]) == 3

    def test_snapshot_reads_usage_from_the_ledger(self):
        network = build_triangle()
        network.allocate_node(1, "a", ResourceVector(5, 2.5, 1))
        network.allocate_node(1, "b", ResourceVector(1, 1, 1))
        network.allocate_path([0, 1, 2], "f", 10.0)
        idle = {
            "used": {"cpu": 0.0, "memory": 0.0, "storage": 0.0},
            "available": {"cpu": 10.0, "memory": 10.0, "storage": 10.0},
            "allocations": 0,
            "max_utilization": 0.0,
        }
        static = {
            "name": "",
            "tier": "edge",
            "capacity": {"cpu": 10, "memory": 10, "storage": 10},
        }
        expected = [
            {"node_id": 0, **static, **idle},
            {
                "node_id": 1,
                **static,
                "used": {"cpu": 6.0, "memory": 3.5, "storage": 2.0},
                "available": {"cpu": 4.0, "memory": 6.5, "storage": 8.0},
                "allocations": 2,
                "max_utilization": 0.6,
            },
            {"node_id": 2, **static, **idle},
        ]
        nodes = network.snapshot()["nodes"]
        assert nodes == expected
        assert [list(node) for node in nodes] == [list(node) for node in expected]


class TestTopologyGuard:
    """The rebuilt ledger starts empty, so topology changes wait for releases."""

    def test_topology_change_refused_while_allocated(self):
        network = SubstrateNetwork()
        for node_id in range(3):
            network.add_node(
                ComputeNode(node_id, GeoPoint(40.0, -74.0 + node_id), ResourceVector(10, 10, 10))
            )
        network.add_link(0, 1, 100.0, latency_ms=1.0)
        network.add_link(1, 2, 100.0, latency_ms=1.0)
        network.allocate_node(0, "a", ResourceVector(1, 1, 1))
        network.allocate_path([0, 1], "f", 0.0)
        new_node = ComputeNode(3, GeoPoint(41.0, -74.0), ResourceVector(5, 5, 5))
        with pytest.raises(RuntimeError):
            network.add_node(new_node)
        with pytest.raises(RuntimeError):
            network.add_link(0, 2, 100.0)
        assert network.num_nodes == 3 and network.num_links == 2

        network.release_node(0, "a")
        with pytest.raises(RuntimeError):  # a zero-bandwidth reservation is live too
            network.add_node(new_node)
        network.release_path([0, 1], "f")
        network.add_node(new_node)
        network.add_link(2, 3, 100.0)
        network.add_link(0, 2, 100.0)
        ledger = network.ledger
        assert ledger.num_nodes == 4 and ledger.node_row[3] == 3
        assert ledger.num_links == 4 and (2, 3) in ledger.edge_index
        assert not ledger.node_used.any() and not ledger.link_used.any()
        network.allocate_node(3, "b", ResourceVector(5, 5, 5))
        assert ledger.node_alloc_count[3] == 1
