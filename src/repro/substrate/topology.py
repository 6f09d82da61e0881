"""Topology generators for geo-distributed edge computing substrates.

All generators return a fully connected :class:`SubstrateNetwork` and are
seeded, so the same configuration always yields the same topology.  The
default experiment topology (``metro_edge_cloud_topology``) follows the usual
geo-distributed edge computing layout: a set of metro areas, each with a few
edge clusters meshed locally, a metro aggregation backbone, and one or more
remote cloud datacenters reachable only over wide-area links.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.substrate.geo import (
    CITY_COORDINATES,
    GeoPoint,
    centroid,
    propagation_latency_ms,
    random_points_near,
)
from repro.substrate.network import SubstrateNetwork
from repro.substrate.node import ComputeNode, NodeTier, make_cloud_node, make_edge_node
from repro.substrate.resources import ResourceVector
from repro.utils.rng import RandomState, new_rng
from repro.utils.validation import check_positive, check_probability


@dataclass
class TopologyConfig:
    """Configuration shared by the topology generators.

    The defaults correspond to the reference scenario used throughout the
    benchmark harness: 16 edge clusters spread over 4 metro areas plus one
    central cloud.
    """

    num_edge_nodes: int = 16
    num_cloud_nodes: int = 1
    num_metros: int = 4
    metro_radius_km: float = 25.0
    edge_cpu: float = 32.0
    edge_memory: float = 64.0
    edge_storage: float = 500.0
    cloud_cpu: float = 2048.0
    cloud_memory: float = 8192.0
    cloud_storage: float = 100_000.0
    edge_link_bandwidth_mbps: float = 10_000.0
    metro_link_bandwidth_mbps: float = 40_000.0
    wan_link_bandwidth_mbps: float = 100_000.0
    wan_extra_latency_ms: float = 15.0
    capacity_jitter: float = 0.15
    cities: Sequence[str] = field(
        default_factory=lambda: ("new_york", "chicago", "dallas", "seattle")
    )
    cloud_city: str = "denver"
    seed: RandomState = None

    def __post_init__(self) -> None:
        check_positive(self.num_edge_nodes, "num_edge_nodes")
        check_positive(self.num_cloud_nodes, "num_cloud_nodes")
        check_positive(self.num_metros, "num_metros")
        check_positive(self.metro_radius_km, "metro_radius_km")
        check_probability(self.capacity_jitter, "capacity_jitter")
        if self.num_metros > len(self.cities):
            raise ValueError(
                f"num_metros={self.num_metros} exceeds the {len(self.cities)} "
                "configured cities"
            )


def _jittered(base: float, jitter: float, rng) -> float:
    """Scale ``base`` by a uniform factor in [1-jitter, 1+jitter]."""
    if jitter <= 0:
        return base
    return base * rng.uniform(1.0 - jitter, 1.0 + jitter)


def metro_edge_cloud_topology(config: Optional[TopologyConfig] = None) -> SubstrateNetwork:
    """The reference geo-distributed topology.

    Structure:

    * ``num_metros`` metro areas, each centred on a real city and containing
      an (approximately equal) share of the edge nodes scattered within
      ``metro_radius_km``.
    * Edge nodes within a metro form a ring plus a link to the metro's first
      node (the aggregation site), giving short intra-metro paths.
    * Aggregation sites of all metros are connected in a full mesh (the
      metro backbone).
    * Every cloud node connects to every aggregation site over WAN links.
    """
    config = config or TopologyConfig()
    rng = new_rng(config.seed)
    network = SubstrateNetwork()

    cities = list(config.cities)[: config.num_metros]
    metro_centers = [CITY_COORDINATES[c] for c in cities]

    # --- edge nodes, spread round-robin over the metros -------------------- #
    per_metro: List[List[int]] = [[] for _ in range(config.num_metros)]
    next_id = 0
    for index in range(config.num_edge_nodes):
        metro = index % config.num_metros
        location = random_points_near(
            metro_centers[metro], 1, config.metro_radius_km, seed=rng
        )[0]
        node = make_edge_node(
            node_id=next_id,
            location=location,
            cpu=_jittered(config.edge_cpu, config.capacity_jitter, rng),
            memory=_jittered(config.edge_memory, config.capacity_jitter, rng),
            storage=_jittered(config.edge_storage, config.capacity_jitter, rng),
            name=f"{cities[metro]}-edge-{len(per_metro[metro])}",
        )
        network.add_node(node)
        per_metro[metro].append(next_id)
        next_id += 1

    # --- cloud nodes -------------------------------------------------------- #
    cloud_center = CITY_COORDINATES[config.cloud_city]
    cloud_ids: List[int] = []
    for index in range(config.num_cloud_nodes):
        location = random_points_near(cloud_center, 1, 5.0, seed=rng)[0]
        node = make_cloud_node(
            node_id=next_id,
            location=location,
            cpu=config.cloud_cpu,
            memory=config.cloud_memory,
            storage=config.cloud_storage,
            name=f"{config.cloud_city}-cloud-{index}",
        )
        network.add_node(node)
        cloud_ids.append(next_id)
        next_id += 1

    # --- intra-metro links: ring + spoke to the aggregation node ----------- #
    for members in per_metro:
        if len(members) == 1:
            continue
        for i, node_id in enumerate(members):
            neighbor = members[(i + 1) % len(members)]
            if not network.has_link(node_id, neighbor):
                network.add_link(
                    node_id, neighbor, config.edge_link_bandwidth_mbps
                )
        aggregation = members[0]
        for node_id in members[1:]:
            if not network.has_link(aggregation, node_id):
                network.add_link(
                    aggregation, node_id, config.edge_link_bandwidth_mbps
                )

    # --- metro backbone: full mesh between aggregation sites --------------- #
    aggregation_sites = [members[0] for members in per_metro if members]
    for u, v in itertools.combinations(aggregation_sites, 2):
        network.add_link(u, v, config.metro_link_bandwidth_mbps)

    # --- WAN links to the cloud --------------------------------------------- #
    # WAN paths cross multiple transit providers; the extra latency models the
    # additional switching/queueing beyond raw fibre propagation and is what
    # keeps the cloud unattractive for latency-critical service classes.
    for cloud_id in cloud_ids:
        for aggregation in aggregation_sites:
            wan_latency = (
                propagation_latency_ms(
                    network.node(cloud_id).location,
                    network.node(aggregation).location,
                )
                + config.wan_extra_latency_ms
            )
            network.add_link(
                cloud_id,
                aggregation,
                config.wan_link_bandwidth_mbps,
                latency_ms=wan_latency,
            )

    return network


def random_geometric_topology(
    num_edge_nodes: int = 16,
    num_cloud_nodes: int = 1,
    connection_radius: float = 0.35,
    region_center: Optional[GeoPoint] = None,
    region_radius_km: float = 60.0,
    edge_capacity: Optional[ResourceVector] = None,
    link_bandwidth_mbps: float = 10_000.0,
    seed: RandomState = None,
) -> SubstrateNetwork:
    """A random geometric graph of edge sites plus a distant cloud.

    Edge sites are scattered uniformly in a disk; two sites are linked when
    their normalized distance is below ``connection_radius``.  A spanning
    chain is added afterwards so the topology is always connected.
    """
    check_positive(num_edge_nodes, "num_edge_nodes")
    check_probability(connection_radius, "connection_radius")
    rng = new_rng(seed)
    center = region_center or CITY_COORDINATES["new_york"]
    capacity = edge_capacity or ResourceVector(32.0, 64.0, 500.0)

    network = SubstrateNetwork()
    locations = random_points_near(center, num_edge_nodes, region_radius_km, seed=rng)
    for node_id, location in enumerate(locations):
        network.add_node(
            ComputeNode(
                node_id=node_id,
                location=location,
                capacity=capacity,
                tier=NodeTier.EDGE,
                name=f"edge-{node_id}",
            )
        )

    cloud_center = CITY_COORDINATES["denver"]
    cloud_ids = []
    for index in range(num_cloud_nodes):
        node_id = num_edge_nodes + index
        network.add_node(
            make_cloud_node(node_id, cloud_center, name=f"cloud-{index}")
        )
        cloud_ids.append(node_id)

    # Normalized pairwise distances drive the geometric connectivity rule.
    max_distance = 2.0 * region_radius_km
    for u, v in itertools.combinations(range(num_edge_nodes), 2):
        distance = locations[u].distance_km(locations[v])
        if distance / max_distance <= connection_radius:
            network.add_link(u, v, link_bandwidth_mbps)

    # Guarantee connectivity with a chain over the edge nodes.
    for u in range(num_edge_nodes - 1):
        if not network.has_link(u, u + 1):
            network.add_link(u, u + 1, link_bandwidth_mbps)

    # The cloud hangs off a few well-connected edge sites.
    gateway_count = max(1, num_edge_nodes // 4)
    gateways = list(range(0, num_edge_nodes, max(1, num_edge_nodes // gateway_count)))
    for cloud_id in cloud_ids:
        for gateway in gateways[:gateway_count]:
            if not network.has_link(cloud_id, gateway):
                network.add_link(cloud_id, gateway, 10 * link_bandwidth_mbps)
    return network


def waxman_topology(
    num_edge_nodes: int = 16,
    num_cloud_nodes: int = 1,
    alpha: float = 0.4,
    beta: float = 0.6,
    region_center: Optional[GeoPoint] = None,
    region_radius_km: float = 80.0,
    link_bandwidth_mbps: float = 10_000.0,
    seed: RandomState = None,
) -> SubstrateNetwork:
    """A Waxman random graph over edge sites, a standard NFV evaluation topology.

    Link probability between sites ``u`` and ``v`` is
    ``alpha * exp(-d(u, v) / (beta * L))`` where ``L`` is the network diameter.
    """
    check_probability(alpha, "alpha")
    check_probability(beta, "beta")
    rng = new_rng(seed)
    center = region_center or CITY_COORDINATES["chicago"]

    network = SubstrateNetwork()
    locations = random_points_near(center, num_edge_nodes, region_radius_km, seed=rng)
    for node_id, location in enumerate(locations):
        network.add_node(make_edge_node(node_id, location))

    cloud_ids = []
    for index in range(num_cloud_nodes):
        node_id = num_edge_nodes + index
        network.add_node(
            make_cloud_node(node_id, CITY_COORDINATES["dallas"], name=f"cloud-{index}")
        )
        cloud_ids.append(node_id)

    diameter_km = max(
        locations[u].distance_km(locations[v])
        for u, v in itertools.combinations(range(num_edge_nodes), 2)
    ) if num_edge_nodes > 1 else 1.0
    diameter_km = max(diameter_km, 1e-6)

    for u, v in itertools.combinations(range(num_edge_nodes), 2):
        distance = locations[u].distance_km(locations[v])
        probability = alpha * math.exp(-distance / (beta * diameter_km))
        if rng.uniform() < probability:
            network.add_link(u, v, link_bandwidth_mbps)

    for u in range(num_edge_nodes - 1):
        if not network.has_link(u, u + 1):
            network.add_link(u, u + 1, link_bandwidth_mbps)

    for cloud_id in cloud_ids:
        for gateway in range(0, num_edge_nodes, max(1, num_edge_nodes // 3)):
            if not network.has_link(cloud_id, gateway):
                network.add_link(cloud_id, gateway, 10 * link_bandwidth_mbps)
    return network


def linear_chain_topology(
    num_edge_nodes: int = 4,
    link_bandwidth_mbps: float = 1_000.0,
    link_latency_ms: float = 2.0,
    edge_capacity: Optional[ResourceVector] = None,
    seed: RandomState = None,
) -> SubstrateNetwork:
    """A tiny deterministic chain topology, mostly useful in tests.

    Node 0 — 1 — 2 — ... — (n-1); all edge tier, uniform capacity, uniform
    link latency.  Having an analytically predictable topology keeps unit
    tests of routing, placement and reward computation simple.
    """
    check_positive(num_edge_nodes, "num_edge_nodes")
    capacity = edge_capacity or ResourceVector(8.0, 16.0, 100.0)
    rng = new_rng(seed)
    center = CITY_COORDINATES["new_york"]
    locations = random_points_near(center, num_edge_nodes, 10.0, seed=rng)

    network = SubstrateNetwork()
    for node_id in range(num_edge_nodes):
        network.add_node(
            ComputeNode(
                node_id=node_id,
                location=locations[node_id],
                capacity=capacity,
                tier=NodeTier.EDGE,
                name=f"edge-{node_id}",
            )
        )
    for u in range(num_edge_nodes - 1):
        network.add_link(
            u, u + 1, link_bandwidth_mbps, latency_ms=link_latency_ms
        )
    return network


def star_topology(
    num_leaves: int = 8,
    hub_capacity: Optional[ResourceVector] = None,
    leaf_capacity: Optional[ResourceVector] = None,
    link_bandwidth_mbps: float = 5_000.0,
    link_latency_ms: float = 1.5,
    seed: RandomState = None,
) -> SubstrateNetwork:
    """A hub-and-spoke topology: node 0 is the hub, nodes 1..n are leaves."""
    check_positive(num_leaves, "num_leaves")
    rng = new_rng(seed)
    center = CITY_COORDINATES["boston"]
    locations = random_points_near(center, num_leaves + 1, 15.0, seed=rng)

    network = SubstrateNetwork()
    network.add_node(
        ComputeNode(
            node_id=0,
            location=locations[0],
            capacity=hub_capacity or ResourceVector(64.0, 128.0, 1000.0),
            tier=NodeTier.EDGE,
            name="hub",
        )
    )
    for leaf in range(1, num_leaves + 1):
        network.add_node(
            ComputeNode(
                node_id=leaf,
                location=locations[leaf],
                capacity=leaf_capacity or ResourceVector(16.0, 32.0, 200.0),
                tier=NodeTier.EDGE,
                name=f"leaf-{leaf}",
            )
        )
        network.add_link(0, leaf, link_bandwidth_mbps, latency_ms=link_latency_ms)
    return network


def scaled_topology(num_edge_nodes: int, seed: RandomState = None) -> SubstrateNetwork:
    """Reference topology scaled to an arbitrary edge-node count.

    Used by the scalability experiment (Fig. 5): metros grow with the number
    of edge nodes (one metro per ~4 edges, capped by the city catalogue).
    """
    check_positive(num_edge_nodes, "num_edge_nodes")
    all_cities = list(CITY_COORDINATES.keys())
    all_cities.remove("denver")
    num_metros = min(max(1, num_edge_nodes // 4), len(all_cities))
    config = TopologyConfig(
        num_edge_nodes=num_edge_nodes,
        num_metros=num_metros,
        cities=tuple(all_cities[:num_metros]),
        seed=seed,
    )
    return metro_edge_cloud_topology(config)
