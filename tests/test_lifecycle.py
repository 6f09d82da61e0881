"""Property tests (hypothesis) of the placement lifecycle's conservation invariants.

Random interleavings of commit, depart, node fail/recover and link
fail/recover — applied to a bare :class:`PlacementLifecycle`, and through the
serving loop's event handlers — must, after every operation, keep every
node's and link's books balanced, keep failed components fully fenced, and
never leave an active placement on a failed component.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.greedy import GreedyNearestPolicy
from repro.nfv.catalog import default_catalog
from repro.nfv.placement import Placement
from repro.serving.admission import AdmissionConfig
from repro.serving.service import FallbackChain, OnlinePlacementService, ServingConfig
from repro.sim.events import EventType
from repro.sim.failures import ChaosEvent
from repro.sim.lifecycle import PlacementLifecycle, placement_traverses_link
from repro.substrate.topology import linear_chain_topology
from tests.conftest import build_request
from tests.test_failures import assert_capacity_conserved
from tests.test_serving import FixedChaos, budgeted
from tests.test_simulation import AcceptFirstNodePolicy

CATALOG = default_catalog()
NUM_NODES = 4  # the chain 0 — 1 — 2 — 3
HORIZON = 100.0

node_ids = st.integers(min_value=0, max_value=NUM_NODES - 1)
# Pairs of distinct nodes: adjacent pairs are links, the rest are unknown.
endpoint_pairs = st.tuples(node_ids, node_ids).filter(lambda pair: pair[0] != pair[1])
vnf_names = st.lists(st.sampled_from(CATALOG.names), min_size=1, max_size=3)
bandwidths = st.sampled_from([50.0, 150.0, 400.0])


def assert_lifecycle_invariants(lifecycle):
    """Conservation, tight fences, and no active placement on a failed part."""
    network = lifecycle.network
    assert_capacity_conserved(network)
    for node_id in lifecycle.failed_nodes:
        assert network.node(node_id).available.is_zero(tol=1e-9)
    for endpoints in lifecycle.failed_links:
        assert network.link(*endpoints).available_bandwidth == pytest.approx(
            0.0, abs=1e-9
        )
    for placement in lifecycle.active.values():
        assert placement.is_committed
        assert not set(placement.node_assignment) & lifecycle.failed_nodes
        assert not any(
            placement_traverses_link(placement, endpoints)
            for endpoints in lifecycle.failed_links
        )


@st.composite
def commit_ops(draw):
    names = draw(vnf_names)
    assignment = draw(st.lists(node_ids, min_size=len(names), max_size=len(names)))
    return ("commit", draw(node_ids), tuple(names), assignment, draw(bandwidths))


lifecycle_ops = st.lists(
    st.one_of(
        commit_ops(),
        commit_ops(),
        st.tuples(st.just("depart"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("fail_node"), node_ids),
        st.tuples(st.just("recover_node"), node_ids),
        st.tuples(st.just("fail_link"), endpoint_pairs),
        st.tuples(st.just("recover_link"), endpoint_pairs),
    ),
    min_size=10,
    max_size=40,
)


class TestPlacementLifecycleProperties:
    @given(lifecycle_ops)
    @settings(max_examples=200, deadline=None)
    def test_random_interleavings_conserve_capacity(self, ops):
        network = linear_chain_topology(num_edge_nodes=NUM_NODES, seed=7)
        lifecycle = PlacementLifecycle(network)
        issued = []
        for op in ops:
            kind = op[0]
            if kind == "commit":
                _, source, names, assignment, bandwidth = op
                request = build_request(
                    CATALOG, vnf_names=names, bandwidth=bandwidth,
                    source=source, sla_ms=1e6,
                )
                issued.append(request.request_id)
                placement = Placement.build(request, assignment, network)
                reason = lifecycle.commit(request.request_id, placement)
                assert (reason is None) == (request.request_id in lifecycle.active)
                assert reason in (None, "infeasible_placement", "commit_failed")
            elif kind == "depart":
                if issued:
                    lifecycle.depart(issued[op[1] % len(issued)])
            else:
                getattr(lifecycle, kind)(op[1])
            assert_lifecycle_invariants(lifecycle)
        lifecycle.release_fences()
        for request_id in list(lifecycle.active):
            lifecycle.depart(request_id)
        assert_capacity_conserved(network)
        for node in network.nodes():
            assert node.used.is_zero(tol=1e-9)
        for link in network.links():
            assert link.used_bandwidth == pytest.approx(0.0, abs=1e-9)


arrivals = st.lists(
    st.tuples(
        st.floats(min_value=0.0, max_value=HORIZON),
        node_ids,
        vnf_names,
        bandwidths,
        st.floats(min_value=1.0, max_value=60.0),
    ),
    min_size=8,
    max_size=25,
)
chaos_events = st.lists(
    st.one_of(
        st.builds(
            lambda time, kind, node_id: ChaosEvent(time=time, kind=kind, node_id=node_id),
            st.floats(min_value=0.0, max_value=HORIZON),
            st.sampled_from(["node_failure", "node_recovery"]),
            node_ids,
        ),
        st.builds(
            lambda time, kind, endpoints: ChaosEvent(
                time=time, kind=kind, endpoints=endpoints
            ),
            st.floats(min_value=0.0, max_value=HORIZON),
            st.sampled_from(["link_failure", "link_recovery"]),
            endpoint_pairs,
        ),
    ),
    min_size=4,
    max_size=12,
)


class TestServingLifecycleProperties:
    @given(
        arrivals,
        chaos_events,
        st.floats(min_value=0.0, max_value=300.0),
        node_ids,
    )
    @settings(max_examples=100, deadline=None)
    def test_service_conserves_capacity_after_every_event(
        self, trace, chaos, decision_time_scale, first_node
    ):
        network = linear_chain_topology(num_edge_nodes=NUM_NODES, seed=0)
        chain = FallbackChain(
            [
                budgeted(AcceptFirstNodePolicy(first_node), latency_s=0.01),
                budgeted(GreedyNearestPolicy(), latency_s=0.005),
            ]
        )
        service = OnlinePlacementService(
            network,
            chain,
            ServingConfig(
                horizon=HORIZON,
                decision_time_scale=decision_time_scale,
                monitoring_interval=25.0,
                retry_base_delay=1.0,
                admission=AdmissionConfig(
                    tokens_per_second=100.0,
                    bucket_capacity=100.0,
                    queue_high_watermark=4,
                    queue_low_watermark=1,
                ),
            ),
            chaos=FixedChaos(chaos),
        )
        for event_type in EventType:
            service.engine.on(
                event_type, lambda event: assert_lifecycle_invariants(service.lifecycle)
            )
        requests = sorted(
            (
                build_request(
                    CATALOG, vnf_names=tuple(names), bandwidth=bandwidth,
                    source=source, sla_ms=1e6, holding=holding, arrival=time,
                )
                for time, source, names, bandwidth, holding in trace
            ),
            key=lambda request: request.arrival_time,
        )
        report = service.run(requests)
        assert report.replaced + report.lost + report.expired == report.disrupted
        assert report.arrivals == (
            report.shed + report.accepted + report.rejected + report.commit_failed
        )
        assert not service.lifecycle.active
