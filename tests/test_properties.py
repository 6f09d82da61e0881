"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nfv.sla import ServiceLevelAgreement
from repro.nn.activations import softmax
from repro.nn.losses import HuberLoss, MSELoss
from repro.nn.network import MLP
from repro.sim.arrivals import PoissonProcess
from repro.substrate.geo import GeoPoint, haversine_km
from repro.substrate.network import SubstrateNetwork
from repro.substrate.node import ComputeNode
from repro.substrate.resources import ResourceVector
from tests.substrate_oracles import link_available, link_used, node_available, node_used

# Strategy helpers -----------------------------------------------------------

finite_resource = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)
resource_vectors = st.builds(ResourceVector, finite_resource, finite_resource, finite_resource)
latitudes = st.floats(min_value=-89.0, max_value=89.0, allow_nan=False)
longitudes = st.floats(min_value=-179.0, max_value=179.0, allow_nan=False)
geo_points = st.builds(GeoPoint, latitudes, longitudes)


class TestResourceVectorProperties:
    @given(resource_vectors, resource_vectors)
    def test_addition_commutative(self, a, b):
        assert (a + b).almost_equal(b + a, tol=1e-6)

    @given(resource_vectors, resource_vectors, resource_vectors)
    def test_addition_associative(self, a, b, c):
        assert ((a + b) + c).almost_equal(a + (b + c), tol=1e-3)

    @given(resource_vectors)
    def test_zero_is_identity(self, a):
        assert (a + ResourceVector.zero()) == a

    @given(resource_vectors, resource_vectors)
    def test_subtraction_never_negative(self, a, b):
        result = a - b
        assert result.cpu >= 0 and result.memory >= 0 and result.storage >= 0

    @given(resource_vectors, st.floats(min_value=0.0, max_value=1e3, allow_nan=False))
    def test_scaling_preserves_order(self, a, factor):
        scaled = a * factor
        assert scaled.total() == pytest.approx(a.total() * factor, rel=1e-9, abs=1e-6)


class TestGeoProperties:
    @given(geo_points, geo_points)
    def test_distance_symmetric_and_nonnegative(self, a, b):
        assert haversine_km(a, b) >= 0.0
        assert haversine_km(a, b) == pytest.approx(haversine_km(b, a), rel=1e-9, abs=1e-9)

    @given(geo_points)
    def test_distance_to_self_zero(self, point):
        assert haversine_km(point, point) == pytest.approx(0.0, abs=1e-6)

    @given(geo_points, geo_points, geo_points)
    @settings(max_examples=50)
    def test_triangle_inequality(self, a, b, c):
        assert haversine_km(a, c) <= haversine_km(a, b) + haversine_km(b, c) + 1e-6


def two_node_network(capacity, bandwidth=100.0):
    """Nodes 0 and 1 of ``capacity`` joined by one ``bandwidth`` Mbps link."""
    network = SubstrateNetwork()
    network.add_node(ComputeNode(0, GeoPoint(0, 0), capacity))
    network.add_node(ComputeNode(1, GeoPoint(0, 1), capacity))
    network.add_link(0, 1, bandwidth, latency_ms=1.0)
    return network


class TestNodeAllocationProperties:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
                st.floats(min_value=0.0, max_value=5.0, allow_nan=False),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_allocate_release_conserves_capacity(self, demands):
        capacity = ResourceVector(1000, 1000, 1000)
        network = two_node_network(capacity)
        handles = []
        for index, (cpu, memory) in enumerate(demands):
            handle = f"h{index}"
            network.allocate_node(0, handle, ResourceVector(cpu, memory, 0.0))
            handles.append(handle)
        for handle in handles:
            network.release_node(0, handle)
        assert node_used(network, 0).is_zero(tol=1e-6)
        assert node_available(network, 0).almost_equal(capacity, tol=1e-6)

    @given(st.floats(min_value=0.0, max_value=100.0, allow_nan=False))
    def test_can_host_iff_allocate_succeeds(self, cpu):
        network = two_node_network(ResourceVector(50, 50, 50))
        demand = ResourceVector(cpu, 0, 0)
        if network.ledger.can_host_all(demand.as_array())[0]:
            network.allocate_node(0, "x", demand)
            assert "x" in network.ledger.node_records[0]
        else:
            with pytest.raises(Exception):
                network.allocate_node(0, "x", demand)


class TestLinkProperties:
    @given(
        st.lists(st.floats(min_value=0.0, max_value=30.0, allow_nan=False), min_size=1, max_size=15)
    )
    def test_reservations_never_exceed_capacity(self, bandwidths):
        network = two_node_network(ResourceVector(1, 1, 1))
        ledger = network.ledger
        slots = list(network.shortest_path(0, 1).slots)
        for index, bandwidth in enumerate(bandwidths):
            free = ledger.link_capacity[slots] - ledger.link_used[slots]
            if float(free.min()) + 1e-9 >= bandwidth:
                network.allocate_path([0, 1], f"r{index}", bandwidth)
        assert link_used(network, 0, 1) <= 100.0 + 1e-6
        assert link_available(network, 0, 1) >= -1e-6


class TestSLAProperties:
    @given(
        st.floats(min_value=0.1, max_value=1000.0, allow_nan=False),
        st.floats(min_value=0.0, max_value=2000.0, allow_nan=False),
    )
    def test_satisfaction_consistent_with_headroom(self, budget, latency):
        sla = ServiceLevelAgreement(max_latency_ms=budget)
        assert sla.latency_satisfied(latency) == (sla.latency_headroom_ms(latency) >= -1e-9)


class TestNNProperties:
    @given(st.lists(st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=2, max_size=10))
    def test_softmax_is_distribution(self, logits):
        probabilities = softmax(np.array(logits))
        assert probabilities.sum() == pytest.approx(1.0, rel=1e-6)
        assert np.all(probabilities >= 0)

    @given(
        st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=3, max_size=3),
        st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=3, max_size=3),
    )
    def test_losses_nonnegative_and_zero_at_target(self, predictions, targets):
        predictions = np.array([predictions])
        targets = np.array([targets])
        for loss in (MSELoss(), HuberLoss()):
            assert loss(predictions, targets) >= 0.0
            assert loss(targets, targets) == pytest.approx(0.0, abs=1e-12)

    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=6))
    @settings(max_examples=20, deadline=None)
    def test_mlp_output_shape(self, batch, width):
        network = MLP([width, 8, 3], seed=0)
        out = network.predict(np.zeros((batch, width)))
        assert out.shape == (batch, 3)
        assert np.all(np.isfinite(out))


class TestArrivalProperties:
    @given(st.floats(min_value=0.1, max_value=5.0, allow_nan=False), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=25, deadline=None)
    def test_poisson_arrivals_sorted_within_horizon(self, rate, seed):
        times = PoissonProcess(rate, seed=seed).arrivals_until(50.0)
        assert all(0 < t <= 50.0 for t in times)
        assert times == sorted(times)
