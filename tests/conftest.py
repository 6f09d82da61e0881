"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.core.env import VNFPlacementEnv
from repro.core.vecenv import VecPlacementEnv
from repro.nfv.catalog import default_catalog, default_chain_templates
from repro.nfv.sfc import SFCRequest, ServiceFunctionChain
from repro.nfv.sla import ServiceLevelAgreement
from repro.substrate.geo import GeoPoint
from repro.substrate.network import SubstrateNetwork
from repro.substrate.node import ComputeNode, NodeTier, make_cloud_node
from repro.substrate.resources import ResourceVector
from repro.substrate.topology import (
    TopologyConfig,
    linear_chain_topology,
    metro_edge_cloud_topology,
)
from repro.workloads.generator import RequestGenerator, WorkloadConfig


@pytest.fixture
def no_reference_core(monkeypatch):
    """Fail the test if anything builds a per-lane reference env core.

    Production paths run the SoA core only; the reference cores are the
    differential oracle that tests build explicitly.
    """

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a production path built a {type(self).__name__}")

    for cls in (VNFPlacementEnv, VecPlacementEnv):
        monkeypatch.setattr(cls, "__init__", refuse)


@pytest.fixture
def catalog():
    """The default VNF catalog."""
    return default_catalog()


@pytest.fixture
def templates():
    """The default chain templates."""
    return default_chain_templates()


@pytest.fixture
def small_network():
    """A deterministic 4-node chain topology with uniform 2 ms links."""
    return linear_chain_topology(num_edge_nodes=4, link_latency_ms=2.0, seed=7)


@pytest.fixture
def edge_cloud_network():
    """A small metro/cloud topology (8 edges, 1 cloud) used in integration tests."""
    return metro_edge_cloud_topology(TopologyConfig(num_edge_nodes=8, seed=3))


@pytest.fixture
def tiny_edge_cloud_network():
    """A hand-built 2-edge + 1-cloud network with exactly known latencies."""
    network = SubstrateNetwork()
    edge_capacity = ResourceVector(10.0, 20.0, 100.0)
    network.add_node(
        ComputeNode(0, GeoPoint(40.0, -74.0), edge_capacity, NodeTier.EDGE, name="e0")
    )
    network.add_node(
        ComputeNode(1, GeoPoint(40.1, -74.1), edge_capacity, NodeTier.EDGE, name="e1")
    )
    network.add_node(make_cloud_node(2, GeoPoint(39.0, -104.0), name="cloud"))
    network.add_link(0, 1, bandwidth_capacity=1000.0, latency_ms=2.0)
    network.add_link(1, 2, bandwidth_capacity=10000.0, latency_ms=30.0)
    return network


def build_request(
    catalog,
    vnf_names=("firewall", "nat"),
    bandwidth=50.0,
    source=0,
    sla_ms=60.0,
    holding=30.0,
    arrival=0.0,
):
    """Construct an SFCRequest with explicit parameters (test helper)."""
    chain = ServiceFunctionChain(
        vnf_types=tuple(catalog.get(name) for name in vnf_names),
        bandwidth_mbps=bandwidth,
        service_class="test",
    )
    return SFCRequest(
        chain=chain,
        source_node_id=source,
        sla=ServiceLevelAgreement(max_latency_ms=sla_ms),
        arrival_time=arrival,
        holding_time=holding,
    )


@pytest.fixture
def request_factory(catalog):
    """Factory fixture building requests against the default catalog."""

    def _factory(**kwargs):
        return build_request(catalog, **kwargs)

    return _factory


@pytest.fixture
def generator(edge_cloud_network, catalog, templates):
    """A seeded request generator over the edge/cloud fixture network."""
    return RequestGenerator(
        network=edge_cloud_network,
        catalog=catalog,
        templates=templates,
        config=WorkloadConfig(arrival_rate=0.5, horizon=100.0, seed=11),
    )
