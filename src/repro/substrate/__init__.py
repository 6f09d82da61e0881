"""Geo-distributed edge computing substrate: nodes, links, topologies."""

from repro.substrate.geo import (
    CITY_COORDINATES,
    GeoPoint,
    haversine_km,
    propagation_latency_ms,
    random_points_near,
)
from repro.substrate.ledger import SubstrateLedger
from repro.substrate.link import (
    InsufficientBandwidthError,
    Link,
    canonical_endpoints,
)
from repro.substrate.network import (
    NoRouteError,
    PathInfo,
    SubstrateNetwork,
    SubstrateTopology,
    UnknownNodeError,
)
from repro.substrate.node import (
    ComputeNode,
    InsufficientCapacityError,
    NodeTier,
    make_cloud_node,
    make_edge_node,
)
from repro.substrate.resources import RESOURCE_DIMENSIONS, ResourceVector, aggregate
from repro.substrate.topology import (
    TopologyConfig,
    linear_chain_topology,
    metro_edge_cloud_topology,
    random_geometric_topology,
    scaled_topology,
    star_topology,
    waxman_topology,
)

__all__ = [
    "CITY_COORDINATES",
    "GeoPoint",
    "haversine_km",
    "propagation_latency_ms",
    "random_points_near",
    "SubstrateLedger",
    "InsufficientBandwidthError",
    "Link",
    "canonical_endpoints",
    "NoRouteError",
    "PathInfo",
    "SubstrateNetwork",
    "SubstrateTopology",
    "UnknownNodeError",
    "ComputeNode",
    "InsufficientCapacityError",
    "NodeTier",
    "make_cloud_node",
    "make_edge_node",
    "RESOURCE_DIMENSIONS",
    "ResourceVector",
    "aggregate",
    "TopologyConfig",
    "linear_chain_topology",
    "metro_edge_cloud_topology",
    "random_geometric_topology",
    "scaled_topology",
    "star_topology",
    "waxman_topology",
]
