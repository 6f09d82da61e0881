"""Unit tests for chain-to-substrate placements."""

import numpy as np
import pytest

from repro.nfv.placement import Placement, PlacementError
from repro.substrate.resources import ResourceVector
from repro.substrate.topology import TopologyConfig, metro_edge_cloud_topology
from repro.workloads.generator import RequestGenerator, WorkloadConfig
from tests.conftest import build_request
from tests.substrate_oracles import link_used


def allocation_count(network, node_id):
    """Live allocations on ``node_id``, from its ledger row."""
    ledger = network.ledger
    return len(ledger.node_records[ledger.node_row[node_id]])


class TestRoutingAndLatency:
    def test_end_to_end_latency_on_chain_topology(self, small_network, catalog):
        # Chain topology 0-1-2-3 with 2 ms per link; place firewall on 1, nat on 3.
        request = build_request(catalog, source=0, vnf_names=("firewall", "nat"))
        placement = Placement.build(request, [1, 3], small_network)
        propagation = 2.0 + 4.0  # 0->1 then 1->3
        processing = (
            catalog.get("firewall").processing_delay_ms
            + catalog.get("nat").processing_delay_ms
        )
        assert placement.propagation_latency_ms() == pytest.approx(propagation)
        assert placement.end_to_end_latency_ms() == pytest.approx(propagation + processing)

    def test_colocated_chain_has_zero_propagation_after_ingress(self, small_network, catalog):
        request = build_request(catalog, source=1, vnf_names=("firewall", "nat"))
        placement = Placement.build(request, [1, 1], small_network)
        assert placement.propagation_latency_ms() == pytest.approx(0.0)

    def test_destination_extends_path(self, small_network, catalog):
        request = build_request(catalog, source=0, vnf_names=("firewall",))
        request.destination_node_id = 3
        placement = Placement.build(request, [1], small_network)
        assert placement.propagation_latency_ms() == pytest.approx(2.0 + 4.0)

    def test_assignment_length_mismatch_rejected(self, small_network, catalog):
        request = build_request(catalog, vnf_names=("firewall", "nat"))
        with pytest.raises(ValueError):
            Placement.build(request, [0], small_network)

    def test_edge_fraction(self, tiny_edge_cloud_network, catalog):
        request = build_request(catalog, source=0, vnf_names=("firewall", "nat"))
        placement = Placement.build(request, [0, 2], tiny_edge_cloud_network)
        assert tiny_edge_cloud_network.node(2).is_cloud
        assert placement.edge_fraction(tiny_edge_cloud_network) == pytest.approx(0.5)


class TestSLAAndAvailability:
    def test_sla_violated_when_latency_exceeds_budget(self, tiny_edge_cloud_network, catalog):
        # Route 0 -> cloud(2) costs 2 + 30 ms one way; SLA of 10 ms is violated.
        request = build_request(catalog, source=0, sla_ms=10.0, vnf_names=("firewall",))
        placement = Placement.build(request, [2], tiny_edge_cloud_network)
        assert not placement.satisfies_sla(tiny_edge_cloud_network)
        assert not placement.is_feasible(tiny_edge_cloud_network)

    def test_availability_uses_tiers_when_network_given(self, tiny_edge_cloud_network, catalog):
        request = build_request(catalog, source=0, sla_ms=200.0, vnf_names=("firewall",))
        edge_placement = Placement.build(request, [0], tiny_edge_cloud_network)
        cloud_placement = Placement.build(request, [2], tiny_edge_cloud_network)
        assert cloud_placement.availability(tiny_edge_cloud_network) > edge_placement.availability(
            tiny_edge_cloud_network
        )


class TestFeasibility:
    def test_feasible_when_resources_available(self, small_network, catalog):
        request = build_request(catalog, source=0)
        placement = Placement.build(request, [0, 1], small_network)
        assert placement.is_feasible(small_network)

    def test_infeasible_when_node_capacity_exceeded(self, small_network, catalog):
        # Saturate node 1's CPU, then try to place there.
        small_network.allocate_node(1, "hog", ResourceVector(7.9, 1, 1))
        request = build_request(catalog, source=0, vnf_names=("firewall",))
        placement = Placement.build(request, [1], small_network)
        assert not placement.is_feasible(small_network)

    def test_colocation_demands_are_aggregated(self, small_network, catalog):
        # Each node has 8 CPU; one 'ids' at 50 Mbps needs 4.5 CPU, so two of
        # them colocated (9 CPU) must be detected as infeasible even though
        # each fits individually.
        request = build_request(catalog, source=0, vnf_names=("ids", "ids"), bandwidth=50.0)
        placement = Placement.build(request, [1, 1], small_network)
        assert not placement.is_feasible(small_network)

    def test_bandwidth_shared_link_counted_per_traversal(self, small_network, catalog):
        # Assignment 0 -> 1 -> 0 crosses link (0,1) twice; with 90 Mbps demand
        # and 1000 Mbps capacity this is fine, but at 600 Mbps it is not.
        request = build_request(catalog, source=0, vnf_names=("firewall", "nat"), bandwidth=600.0)
        placement = Placement.build(request, [1, 0], small_network)
        assert not placement.is_feasible(small_network)


class TestCommitRelease:
    def test_commit_allocates_and_release_frees(self, small_network, catalog):
        request = build_request(catalog, source=0)
        placement = Placement.build(request, [1, 2], small_network)
        placement.commit(small_network)
        assert placement.is_committed
        assert allocation_count(small_network, 1) == 1
        assert allocation_count(small_network, 2) == 1
        assert link_used(small_network, 0, 1) == pytest.approx(50.0)
        placement.release(small_network)
        assert not placement.is_committed
        assert small_network.total_used().is_zero()
        assert link_used(small_network, 0, 1) == 0.0

    def test_double_commit_rejected(self, small_network, catalog):
        request = build_request(catalog, source=0)
        placement = Placement.build(request, [1, 2], small_network)
        placement.commit(small_network)
        with pytest.raises(PlacementError):
            placement.commit(small_network)

    def test_release_without_commit_rejected(self, small_network, catalog):
        request = build_request(catalog, source=0)
        placement = Placement.build(request, [1, 2], small_network)
        with pytest.raises(PlacementError):
            placement.release(small_network)

    def test_failed_commit_rolls_back_cleanly(self, small_network, catalog):
        # Saturate node 2 after routing so commit fails on the second VNF.
        request = build_request(catalog, source=0)
        placement = Placement.build(request, [1, 2], small_network)
        small_network.allocate_node(2, "hog", ResourceVector(7.9, 15, 90))
        with pytest.raises(PlacementError):
            placement.commit(small_network)
        # Node 1's allocation from the partial commit must have been rolled back.
        assert allocation_count(small_network, 1) == 0
        assert link_used(small_network, 0, 1) == 0.0
        assert not placement.is_committed

    def test_duplicate_segment_handle_fails_without_leaking(self, small_network, catalog):
        # A second placement for the same request id reuses the segment
        # handle on link (0, 1).  Its commit must fail as a PlacementError
        # before reserving anything, not after its instances were allocated.
        request = build_request(catalog, source=0)
        first = Placement.build(request, [1, 2], small_network)
        first.commit(small_network)
        ledger = small_network.ledger
        node_before = ledger.node_used.copy()
        link_before = ledger.link_used.copy()
        second = Placement.build(request, [1, 3], small_network)
        with pytest.raises(PlacementError):
            second.commit(small_network)
        assert not second.is_committed
        assert allocation_count(small_network, 1) == 1
        assert allocation_count(small_network, 3) == 0
        assert ledger.node_used.tobytes() == node_before.tobytes()
        assert ledger.link_used.tobytes() == link_before.tobytes()
        first.release(small_network)
        assert small_network.total_used().is_zero()

    def test_reused_vnf_handle_fails_without_leaking(self, small_network, catalog):
        # Both placements host VNF 0 at the ingress, so neither routes a
        # first segment, and their second segments take different links: only
        # the node handle of VNF 0 clashes.
        request = build_request(catalog, source=1)
        first = Placement.build(request, [1, 2], small_network)
        first.commit(small_network)
        ledger = small_network.ledger
        node_before = ledger.node_used.tobytes()
        link_before = ledger.link_used.tobytes()
        records_before = [dict(records) for records in ledger.node_records]
        second = Placement.build(request, [1, 0], small_network)
        assert second.is_feasible(small_network)
        with pytest.raises(PlacementError):
            second.commit(small_network)
        assert not second.is_committed
        assert ledger.node_used.tobytes() == node_before
        assert ledger.link_used.tobytes() == link_before
        assert [dict(records) for records in ledger.node_records] == records_before


class TestHandles:
    @staticmethod
    def _commit_trace():
        """A fresh network holding what one trace's feasible placements commit."""
        network = metro_edge_cloud_topology(TopologyConfig(num_edge_nodes=6, seed=2))
        generator = RequestGenerator(network, config=WorkloadConfig(seed=4))
        rng = np.random.default_rng(4)
        node_ids = list(network.node_ids)
        committed = 0
        for request in generator.generate_batch(40):
            assignment = [int(rng.choice(node_ids)) for _ in range(request.num_vnfs)]
            placement = Placement.build(request, assignment, network)
            if placement.is_feasible(network):
                placement.commit(network)
                committed += 1
        assert committed > 5
        return network.ledger

    def test_handles_are_a_function_of_the_request(self):
        # A second network fed the same trace in the same process holds the
        # same handles: none depends on what the process built before.
        first, second = self._commit_trace(), self._commit_trace()
        node_keys = [sorted(records) for records in first.node_records]
        link_keys = [sorted(records) for records in first.link_records]
        assert any(link_keys)
        assert [sorted(records) for records in second.node_records] == node_keys
        assert [sorted(records) for records in second.link_records] == link_keys
        handles = {handle for keys in node_keys for handle in keys}
        assert all(handle.startswith("req:") for handle in handles)


class TestCost:
    def test_cost_positive_and_additive(self, small_network, catalog):
        request = build_request(catalog, source=0)
        placement = Placement.build(request, [1, 2], small_network)
        hosting = placement.hosting_cost(small_network)
        transport = placement.transport_cost(small_network)
        assert hosting > 0
        assert transport > 0
        assert placement.total_cost(small_network) == pytest.approx(hosting + transport)

    def test_longer_holding_time_costs_more(self, small_network, catalog):
        short = build_request(catalog, source=0, holding=10.0)
        long = build_request(catalog, source=0, holding=100.0)
        short_cost = Placement.build(short, [1, 2], small_network).total_cost(small_network)
        long_cost = Placement.build(long, [1, 2], small_network).total_cost(small_network)
        assert long_cost > short_cost

    def test_snapshot_with_network_includes_costs(self, small_network, catalog):
        request = build_request(catalog, source=0)
        placement = Placement.build(request, [1, 2], small_network)
        snapshot = placement.snapshot(small_network)
        assert snapshot["total_cost"] > 0
        assert snapshot["node_assignment"] == [1, 2]
        assert snapshot["sla_satisfied"] is True
