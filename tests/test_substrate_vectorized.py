"""Vectorized-vs-reference equivalence tests for the dense substrate core.

The dense routing tables, the array-backed ledger and the batched
state/mask encoders must agree exactly (up to float tolerance) with
networkx Dijkstra and with the per-object oracles in
``tests/substrate_oracles.py``.  Every test is property-style over several
seeds and random topologies.  The topology's route table must equal the
per-network path memos it replaced (:func:`route_reference`) bit for bit.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core.action import ActionSpace
from repro.core.env import EnvConfig, VNFPlacementEnv
from repro.core.state import StateEncoder
from repro.nfv.catalog import default_catalog
from repro.nfv.placement import Placement
from repro.substrate.geo import GeoPoint
from repro.substrate.network import NoRouteError, PathInfo, SubstrateNetwork
from repro.substrate.node import ComputeNode
from repro.substrate.resources import ResourceVector
from repro.substrate.topology import (
    TopologyConfig,
    metro_edge_cloud_topology,
    random_geometric_topology,
    scaled_topology,
    waxman_topology,
)
from repro.workloads.generator import RequestGenerator, WorkloadConfig
from tests.substrate_oracles import (
    encode_reference,
    is_feasible_reference,
    link_used,
    node_can_host,
    node_max_utilization,
    node_used,
    route_reference,
    valid_mask_reference,
)

SEEDS = [0, 1, 7, 42]


def random_topologies(seed):
    """A few structurally different random topologies for one seed."""
    return [
        metro_edge_cloud_topology(TopologyConfig(num_edge_nodes=8, seed=seed)),
        random_geometric_topology(num_edge_nodes=10, seed=seed),
        waxman_topology(num_edge_nodes=9, seed=seed),
    ]


def nx_graph_of(network: SubstrateNetwork) -> nx.Graph:
    graph = nx.Graph()
    graph.add_nodes_from(network.node_ids)
    for link in network.links():
        graph.add_edge(*link.endpoints, latency=link.latency_ms)
    return graph


def allocate_some_load(network: SubstrateNetwork, seed: int) -> None:
    """Occupy a random subset of nodes/links so utilizations are non-trivial."""
    rng = np.random.default_rng(seed)
    for node in network.nodes():
        if rng.random() < 0.6:
            fraction = float(rng.uniform(0.1, 0.9))
            demand = ResourceVector(
                node.capacity.cpu * fraction,
                node.capacity.memory * fraction,
                node.capacity.storage * fraction * 0.5,
            )
            network.allocate_node(node.node_id, f"load:{node.node_id}", demand)
    for link in network.links():
        if rng.random() < 0.5:
            network.allocate_path(
                link.endpoints,
                f"flow:{link.endpoints}",
                link.bandwidth_capacity * float(rng.uniform(0.1, 0.8)),
            )


class TestDenseRoutingEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_latency_matrix_matches_networkx(self, seed):
        for network in random_topologies(seed):
            graph = nx_graph_of(network)
            reference = dict(nx.all_pairs_dijkstra_path_length(graph, weight="latency"))
            topology = network.topology
            for u in network.node_ids:
                for v in network.node_ids:
                    expected = reference[u][v]
                    got = topology.latency[topology.node_row[u], topology.node_row[v]]
                    assert got == pytest.approx(expected, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reconstructed_paths_are_valid_and_optimal(self, seed):
        for network in random_topologies(seed):
            for u in network.node_ids:
                for v in network.node_ids:
                    path = network.shortest_path(u, v)
                    assert path.nodes[0] == u and path.nodes[-1] == v
                    # Every hop must be an actual substrate link ...
                    hop_latency = sum(
                        network.link(a, b).latency_ms
                        for a, b in zip(path.nodes[:-1], path.nodes[1:])
                    )
                    # ... and the walk must achieve the optimal latency.
                    assert hop_latency == pytest.approx(
                        network.latency_between(u, v), rel=1e-9, abs=1e-9
                    )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lookups_match_single_source_dijkstra(self, seed):
        for network in random_topologies(seed):
            graph = nx_graph_of(network)
            for u in network.node_ids:
                reference = nx.single_source_dijkstra_path_length(
                    graph, u, weight="latency"
                )
                for v in network.node_ids:
                    expected = reference[v]
                    assert network.latency_between(u, v) == pytest.approx(
                        expected, rel=1e-9, abs=1e-9
                    )
                    assert network.shortest_path(u, v).latency_ms == pytest.approx(
                        expected, rel=1e-9, abs=1e-9
                    )

    def test_no_route_raises_in_dense_mode(self):
        network = SubstrateNetwork()
        for node_id in range(3):
            network.add_node(
                ComputeNode(node_id, GeoPoint(40.0, -74.0), ResourceVector(1, 1, 1))
            )
        network.add_link(0, 1, 100.0, latency_ms=1.0)
        with pytest.raises(NoRouteError):
            network.latency_between(0, 2)
        with pytest.raises(NoRouteError):
            network.shortest_path(0, 2)


def tied_network() -> SubstrateNetwork:
    """Ids out of row order, equal-latency alternatives and one isolated node.

    Node 5 reaches node 0 over 2 or over 9 at the same latency; the costs
    along 5-2-0-7 sum to different floats in the two directions; node 4 has
    no link.
    """
    network = SubstrateNetwork()
    for node_id in (5, 2, 9, 0, 7, 4):
        network.add_node(
            ComputeNode(node_id, GeoPoint(40.0, -74.0), ResourceVector(8, 16, 100))
        )
    for u, v, cost in ((5, 2, 0.1), (2, 0, 0.2), (5, 9, 0.3), (9, 0, 0.1), (0, 7, 0.3)):
        network.add_link(u, v, 100.0, latency_ms=1.0, cost_per_mbps=cost)
    return network


class TestRouteTable:
    @staticmethod
    def assert_every_route_matches_the_oracle(network: SubstrateNetwork) -> None:
        for source in network.node_ids:
            for target in network.node_ids:
                try:
                    expected = route_reference(network, source, target)
                except NoRouteError:
                    with pytest.raises(NoRouteError):
                        network.shortest_path(source, target)
                    continue
                path = network.shortest_path(source, target)
                got = (path.nodes, path.latency_ms, list(path.slots), path.cost_per_mbps)
                assert got == expected, (source, target)

    @pytest.mark.parametrize("num_edge_nodes", [6, 24])
    def test_scaled_topology(self, num_edge_nodes):
        self.assert_every_route_matches_the_oracle(scaled_topology(num_edge_nodes, seed=3))

    def test_ids_out_of_row_order_with_tied_paths(self):
        network = tied_network()
        assert network.node_ids != sorted(network.node_ids)
        assert network.latency_between(5, 0) == 2.0
        self.assert_every_route_matches_the_oracle(network)
        # Each direction sums its own slot order: the costs differ by an ulp.
        forward, backward = network.shortest_path(5, 7), network.shortest_path(7, 5)
        assert backward.nodes == forward.nodes[::-1]
        assert forward.cost_per_mbps != backward.cost_per_mbps

    def test_disconnected_pair_raises_on_both_sides(self):
        network = tied_network()
        for other in (5, 0):
            for source, target in ((4, other), (other, 4)):
                with pytest.raises(NoRouteError):
                    route_reference(network, source, target)
                with pytest.raises(NoRouteError):
                    network.shortest_path(source, target)

    def test_self_route_is_one_node(self):
        network = tied_network()
        for node_id in network.node_ids:
            assert network.shortest_path(node_id, node_id) == PathInfo((node_id,), 0.0)
            assert route_reference(network, node_id, node_id) == ((node_id,), 0.0, [], 0.0)

    def test_each_entry_is_filled_once(self):
        network = tied_network()
        topology = network.topology
        assert all(entry is None for entry in topology.routes)
        path = network.shortest_path(9, 7)
        assert network.shortest_path(9, 7) is path
        row = topology.node_row
        assert topology.routes[row[9] * topology.num_nodes + row[7]] is path
        assert sum(entry is not None for entry in topology.routes) == 1


class TestLedgerEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_ledger_arrays_equal_record_sums(self, seed):
        for network in random_topologies(seed):
            ledger = network.ledger
            used_rows, used_slots = ledger.node_used, ledger.link_used
            allocate_some_load(network, seed)
            assert ledger.node_alloc_count.any() and used_slots.any()
            for row, records in enumerate(ledger.node_records):
                assert np.allclose(used_rows[row], sum(records.values(), np.zeros(3)))
                assert ledger.node_alloc_count[row] == len(records)
            for slot, records in enumerate(ledger.link_records):
                assert used_slots[slot] == pytest.approx(sum(records.values()))
            network.reset()
            # Reset zeroes the arrays in place: held views see it.
            assert used_rows is ledger.node_used and used_slots is ledger.link_used
            assert np.all(used_rows == 0.0)
            assert np.all(ledger.node_alloc_count == 0)
            assert np.all(used_slots == 0.0)
            assert not any(ledger.node_records) and not any(ledger.link_records)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_can_host_all_matches_per_node_loop(self, seed):
        rng = np.random.default_rng(seed)
        for network in random_topologies(seed):
            allocate_some_load(network, seed)
            ledger = network.ledger
            for _ in range(10):
                demand = ResourceVector(
                    float(rng.uniform(0, 40)),
                    float(rng.uniform(0, 80)),
                    float(rng.uniform(0, 400)),
                )
                vector = ledger.can_host_all(demand.as_array())
                for node_id in network.node_ids:
                    row = ledger.node_row[node_id]
                    assert bool(vector[row]) == node_can_host(network, node_id, demand)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_utilization_stats_match_object_loops(self, seed):
        for network in random_topologies(seed):
            allocate_some_load(network, seed)
            values = [
                node_max_utilization(network, node.node_id)
                for node in network.nodes()
                if node.is_edge
            ]
            mean, std = network.ledger.utilization_stats(edge_only=True)
            assert mean == pytest.approx(sum(values) / len(values))
            reference_std = (
                sum((v - sum(values) / len(values)) ** 2 for v in values)
                / len(values)
            ) ** 0.5
            assert std == pytest.approx(reference_std)
            ledger = network.ledger
            reference_cost = sum(
                node_used(network, node.node_id).dot(node.cost_per_unit)
                + (node.activation_cost if ledger.node_records[row] else 0.0)
                for row, node in enumerate(network.nodes())
            ) + sum(
                link_used(network, *link.endpoints) * link.cost_per_mbps
                for link in network.links()
            )
            assert network.compute_cost_rate() == pytest.approx(reference_cost)


class TestEncoderAndMaskEquivalence:
    def _env_for(self, network, seed):
        generator = RequestGenerator(network, config=WorkloadConfig(seed=seed))
        return VNFPlacementEnv(
            network, generator, config=EnvConfig(requests_per_episode=12)
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_encode_and_mask_match_reference_through_episode(self, seed):
        for network in random_topologies(seed):
            env = self._env_for(network, seed)
            rng = np.random.default_rng(seed)
            env.reset()
            done = False
            while not done:
                request = env.current_request
                vectorized_state = env.encoder.encode(
                    request, env._vnf_index, env._partial_assignment, env._partial_latency
                )
                reference_state = encode_reference(
                    env.encoder,
                    request,
                    env._vnf_index,
                    env._partial_assignment,
                    env._partial_latency,
                )
                np.testing.assert_allclose(
                    vectorized_state, reference_state, rtol=1e-9, atol=1e-9
                )
                mask = env.valid_action_mask()
                reference_mask = valid_mask_reference(
                    env.actions,
                    request,
                    env._vnf_index,
                    env._partial_assignment,
                    env._partial_latency,
                    latency_check=env.config.latency_mask_check,
                )
                np.testing.assert_array_equal(mask, reference_mask)
                choices = np.flatnonzero(mask)
                _, _, done, _ = env.step(int(rng.choice(choices)))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_placement_feasibility_matches_reference(self, seed):
        catalog = default_catalog()
        for network in random_topologies(seed):
            generator = RequestGenerator(network, config=WorkloadConfig(seed=seed))
            rng = np.random.default_rng(seed)
            allocate_some_load(network, seed + 1)
            node_ids = network.node_ids
            for index in range(25):
                request = generator.sample_request(arrival_time=float(index))
                assignment = [
                    int(rng.choice(node_ids)) for _ in range(request.num_vnfs)
                ]
                placement = Placement.build(request, assignment, network)
                assert placement.is_feasible(network) == (
                    is_feasible_reference(placement, network)
                )
                assert placement.transport_cost(network) == pytest.approx(
                    sum(
                        network.link(u, v).transport_cost(
                            request.bandwidth_mbps, request.holding_time
                        )
                        for path in placement.paths
                        for u, v in path.links()
                    )
                )


class TestHeapDepartures:
    def test_departed_placements_release_in_time_order(self):
        network = metro_edge_cloud_topology(TopologyConfig(num_edge_nodes=8, seed=11))
        generator = RequestGenerator(network, config=WorkloadConfig(seed=11))
        env = VNFPlacementEnv(
            network, generator, config=EnvConfig(requests_per_episode=40)
        )
        rng = np.random.default_rng(11)
        env.reset()
        done = False
        while not done:
            mask = env.valid_action_mask()
            choices = np.flatnonzero(mask)
            _, _, done, _ = env.step(int(rng.choice(choices)))
            # Heap invariant: earliest departure is always at the root.
            if env._active:
                times = [entry[0] for entry in env._active]
                assert env._active[0][0] == min(times)
        if env.stats.accepted:
            assert network.total_used().total() >= 0.0
        # Releasing far in the future drains the heap completely.
        env._release_departed(float("inf"))
        assert not env._active
        assert network.total_used().is_zero()
