"""Tests of the substrate ledger's allocation primitives and chain kernel.

The property test drives random interleavings of node allocation and
release, path reservation and release, the four fence primitives, reset,
placement build/check/commit/release in any order, and ledger rebuilds (a
chord added to the chain ``0 — 1 — 2 — 3``) on twin networks: placements
run compiled on one and through the per-call references of
``tests/substrate_oracles.py`` on the other.  After every operation both
twins must agree bitwise — usage, records, allocation counts, verdicts and
exception types — the books must balance, usage must stay within capacity,
a primitive that raised must leave the ledger bitwise unchanged, and the
memoized ``can_host_all`` must agree with a scalar fit check on every node.

The unit tests pin the float rules of each primitive one at a time: the
per-dimension node fit and its tolerance, the fit against clamped free
bandwidth, release clamped at zero, in-place array updates, memo
invalidation on every node write, and fences sized to exactly the free
capacity.
"""

import copy

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.nfv.catalog import default_catalog
from repro.nfv.placement import Placement, PlacementError
from repro.sim.lifecycle import (
    refresh_link_fence,
    refresh_node_fence,
    release_link_fence,
    release_node_fence,
)
from repro.substrate.geo import GeoPoint
from repro.substrate.ledger import chain_cost
from repro.substrate.link import InsufficientBandwidthError, UnknownReservationError
from repro.substrate.network import SubstrateNetwork
from repro.substrate.node import (
    ComputeNode,
    InsufficientCapacityError,
    UnknownAllocationError,
)
from repro.substrate.resources import ResourceVector
from repro.substrate.topology import linear_chain_topology
from tests.conftest import build_request
from tests.substrate_oracles import (
    check_reference,
    commit_reference,
    node_can_host,
    release_reference,
)

NUM_NODES = 4  # the chain 0 — 1 — 2 — 3, capacity (8, 16, 100), links 1000 Mbps
PROBES = [
    ResourceVector(0.0, 0.0, 0.0),
    ResourceVector(0.5, 0.0, 0.0),
    ResourceVector(2.0, 4.0, 25.0),
    ResourceVector(8.0, 16.0, 100.0),
]
REJECTIONS = (
    InsufficientCapacityError,
    UnknownAllocationError,
    InsufficientBandwidthError,
    UnknownReservationError,
    ValueError,
)

CATALOG = default_catalog()
#: Links a rebuild adds to the chain; each one re-routes some node pairs.
CHORDS = [(0, 2), (1, 3), (0, 3)]

node_ids = st.integers(min_value=0, max_value=NUM_NODES - 1)
link_heads = st.integers(min_value=0, max_value=NUM_NODES - 2)  # link (u, u + 1)
amounts = st.floats(min_value=0.0, max_value=9.0, allow_nan=False)
placement_picks = st.integers(min_value=0, max_value=7)
primitive_ops = st.one_of(
    st.tuples(
        st.just("allocate_node"), node_ids, st.integers(0, 3),
        amounts, amounts.map(lambda x: 2 * x), amounts.map(lambda x: 12 * x),
    ),
    st.tuples(st.just("release_node"), node_ids, st.integers(0, 3)),
    st.tuples(
        st.just("allocate_path"), node_ids, node_ids, st.integers(0, 3),
        st.sampled_from([0.0, 120.0, 450.0, 700.0]),
    ),
    st.tuples(st.just("release_path"), node_ids, node_ids, st.integers(0, 3)),
    st.tuples(st.just("refresh_node_fence"), node_ids),
    st.tuples(st.just("release_node_fence"), node_ids),
    st.tuples(st.just("refresh_link_fence"), link_heads),
    st.tuples(st.just("release_link_fence"), link_heads),
    st.just(("reset",)),
    st.tuples(st.just("add_link"), st.sampled_from(CHORDS)),
)
build_ops = st.tuples(
    st.just("build"), node_ids,
    st.lists(st.sampled_from(CATALOG.names), min_size=1, max_size=3),
    st.lists(node_ids, min_size=1, max_size=3),
    st.sampled_from([50.0, 300.0, 700.0]), st.sampled_from([6.0, 1e6]),
)
placement_ops = st.one_of(
    build_ops,
    build_ops,
    st.tuples(st.just("check"), placement_picks),
    st.tuples(st.just("commit"), placement_picks),
    st.tuples(st.just("commit"), placement_picks),
    st.tuples(st.just("release"), placement_picks),
)
ledger_ops = st.lists(
    st.one_of(primitive_ops, placement_ops), min_size=5, max_size=40
)


FENCES = {
    fence.__name__: fence
    for fence in (refresh_node_fence, release_node_fence, refresh_link_fence, release_link_fence)
}


def apply(network, op):
    kind = op[0]
    if kind == "allocate_node":
        _, node_id, handle, cpu, memory, storage = op
        network.allocate_node(node_id, f"h{handle}", ResourceVector(cpu, memory, storage))
    elif kind == "release_node":
        network.release_node(op[1], f"h{op[2]}")
    elif kind in ("allocate_path", "release_path"):
        path = network.shortest_path(op[1], op[2]).nodes
        if kind == "allocate_path":
            network.allocate_path(path, f"p{op[3]}", op[4])
        else:
            network.release_path(path, f"p{op[3]}")
    elif kind.endswith("node_fence"):
        FENCES[kind](network, op[1])
    elif kind.endswith("link_fence"):
        FENCES[kind](network, (op[1], op[1] + 1))
    elif kind == "add_link":
        network.add_link(*op[1], 1000.0, latency_ms=1.0)
    else:
        network.reset()


PRODUCTION = {
    "check": Placement.is_feasible,
    "commit": Placement.commit,
    "release": Placement.release,
}
REFERENCE = {
    "check": check_reference,
    "commit": commit_reference,
    "release": release_reference,
}
#: A check's verdict, a commit or release that returned, or one that was
#: refused (a release after a reset finds no allocation on the first node).
PLACEMENT_OUTCOMES = (None, True, False, PlacementError, UnknownAllocationError)


def outcome(call, *args):
    """What ``call`` returned, or the type of what it raised."""
    try:
        return call(*args)
    except Exception as exc:  # compared across the twins, never swallowed
        return type(exc)


def apply_to_twins(network, twin, op, placements):
    """Apply ``op`` to both twins; placements run compiled on ``network`` only.

    ``placements`` collects (compiled, reference) pairs: the reference is a
    shallow copy made before first use, so both share VNF instances (and so
    handles) and routes.  Returns the outcome on each twin.
    """
    kind = op[0]
    if kind == "build":
        _, source, names, assignment, bandwidth, sla_ms = op
        size = min(len(names), len(assignment))
        request = build_request(
            CATALOG, vnf_names=tuple(names[:size]), bandwidth=bandwidth,
            source=source, sla_ms=sla_ms,
        )
        placement = Placement.build(request, assignment[:size], network)
        placements.append((placement, copy.copy(placement)))
        return None, None
    if kind in PRODUCTION:
        if not placements:
            return None, None
        compiled, reference = placements[op[1] % len(placements)]
        return (
            outcome(PRODUCTION[kind], compiled, network),
            outcome(REFERENCE[kind], reference, twin),
        )
    return outcome(apply, network, op), outcome(apply, twin, op)


def ledger_state(ledger):
    """Every usage array and record of the ledger, as comparable bytes."""
    return (
        ledger.node_used.tobytes(),
        ledger.node_alloc_count.tobytes(),
        ledger.link_used.tobytes(),
        [{h: d.tobytes() for h, d in records.items()} for records in ledger.node_records],
        [{h: float(b) for h, b in records.items()} for records in ledger.link_records],
    )


def assert_books_balance(network):
    ledger = network.ledger
    for row, records in enumerate(ledger.node_records):
        np.testing.assert_allclose(
            sum(records.values(), np.zeros(3)), ledger.node_used[row], atol=1e-6
        )
        assert ledger.node_alloc_count[row] == len(records)
    for slot, records in enumerate(ledger.link_records):
        np.testing.assert_allclose(sum(records.values()), ledger.link_used[slot], atol=1e-6)
    assert (ledger.node_used >= 0.0).all()
    assert (ledger.node_used <= ledger.node_capacity + 1e-9).all()
    assert (ledger.link_used >= 0.0).all()
    assert (ledger.link_used <= ledger.link_capacity + 1e-9).all()
    for probe in PROBES:
        fits = ledger.can_host_all(probe.as_array())
        for node_id in network.node_ids:
            assert bool(fits[ledger.node_row[node_id]]) == node_can_host(network, node_id, probe)


def _build(source, names, assignment, bandwidth=50.0):
    return ("build", source, list(names), list(assignment), bandwidth, 1e6)


class TestLedgerPrimitiveProperties:
    @given(ledger_ops)
    @settings(max_examples=200, deadline=None)
    # A reset drops the records of a committed placement; its release then
    # frees nothing on the links and raises on its first instance.
    @example([_build(0, ["firewall", "nat"], [1, 2]), ("commit", 0), ("reset",),
              ("release", 0), ("commit", 0)])
    # A chord rebuilds the ledger: a placement checked on the old one
    # recompiles, and new builds route over the chord.
    @example([_build(0, ["firewall"], [3]), ("check", 0), ("add_link", (0, 3)),
              ("check", 0), ("commit", 0), _build(0, ["nat"], [3]), ("commit", 1),
              ("release", 0), ("release", 1)])
    # The second chain's last hop overflows link (2, 3): the hop before it,
    # its first segment and both instances roll back; the third chain fills
    # links to exactly their capacity, and the retry then fits.
    @example([_build(2, ["firewall"], [3], 700.0), ("commit", 0),
              _build(0, ["nat", "firewall"], [1, 3], 700.0), ("commit", 1),
              _build(0, ["nat", "ids"], [2, 3], 300.0), ("commit", 2),
              ("release", 0), ("commit", 1), ("release", 2), ("release", 1)])
    # Releases on a fenced node, out of commit order, then the fence lifts.
    @example([_build(0, ["ids"], [1]), _build(2, ["nat", "ids"], [1, 3]),
              ("commit", 0), ("commit", 1), ("refresh_node_fence", 1),
              ("release", 0), ("refresh_node_fence", 1), ("release", 1),
              ("release_node_fence", 1)])
    def test_random_interleavings_keep_the_books(self, ops):
        network = linear_chain_topology(num_edge_nodes=NUM_NODES, seed=7)
        twin = linear_chain_topology(num_edge_nodes=NUM_NODES, seed=7)
        placements = []
        assert_books_balance(network)
        for op in ops:
            ledger = network.ledger
            before = ledger_state(ledger)
            result, twin_result = apply_to_twins(network, twin, op, placements)
            assert result == twin_result, op
            if op[0] in PRODUCTION:
                assert result in PLACEMENT_OUTCOMES, op
            elif op[0] != "build":
                # A topology change is refused while anything is allocated.
                assert result is None or result in (*REJECTIONS, RuntimeError), op
                if result is not None:
                    assert ledger_state(network.ledger) == before, op
                if op[0] != "add_link":
                    assert network.ledger is ledger
            for compiled, reference in placements:
                assert compiled.is_committed == reference.is_committed
            assert ledger_state(network.ledger) == ledger_state(twin.ledger), op
            assert_books_balance(network)


def test_zero_capacity_dimension_reports_zero_utilization():
    network = SubstrateNetwork()
    network.add_node(ComputeNode(0, GeoPoint(0, 0), ResourceVector(2, 4, 0)))
    network.allocate_node(0, "a", ResourceVector(1, 2, 0))
    assert network.ledger.utilization_matrix()[0].tolist() == [0.5, 0.5, 0.0]


# --------------------------------------------------------------------------- #
# The float rules of each primitive
# --------------------------------------------------------------------------- #
CAPACITY = np.array([8.0, 16.0, 100.0])  # every node of the chain
BANDWIDTH = 1000.0  # every link of the chain


@pytest.fixture
def chain():
    return linear_chain_topology(num_edge_nodes=NUM_NODES, seed=7)


class TestNodePrimitives:
    @pytest.mark.parametrize("dim", [0, 1, 2], ids=["cpu", "memory", "storage"])
    def test_fit_checks_each_dimension(self, chain, dim):
        ledger = chain.ledger
        ledger.allocate_node(1, "base", CAPACITY / 2)
        before = ledger_state(ledger)
        demand = CAPACITY / 2
        demand[dim] += 1e-6  # overflows in this dimension only
        with pytest.raises(InsufficientCapacityError, match=r"node 1 .* free \[4\.0, 8\.0, 50\.0\]"):
            ledger.allocate_node(1, "over", demand)
        assert ledger_state(ledger) == before
        ledger.allocate_node(1, "exact", CAPACITY / 2)
        assert ledger.node_used[1].tolist() == CAPACITY.tolist()

    def test_fit_tolerance_does_not_accumulate(self, chain):
        # used + d <= cap + 1e-9: one overshoot inside the tolerance is
        # accepted, a second one on top of it is not.
        ledger = chain.ledger
        ledger.allocate_node(0, "a", CAPACITY + 0.9e-9)
        with pytest.raises(InsufficientCapacityError):
            ledger.allocate_node(0, "b", np.array([0.9e-9, 0.0, 0.0]))
        ledger.allocate_node(0, "zero", np.zeros(3))
        with pytest.raises(InsufficientCapacityError):
            ledger.allocate_node(2, "c", CAPACITY + np.array([0.0, 2e-9, 0.0]))
        assert not ledger.node_records[2] and not ledger.node_used[2].any()

    def test_release_clamps_float_residue_at_zero(self, chain):
        ledger = chain.ledger
        assert 0.3 + 0.6 - 0.3 - 0.6 < 0.0  # the unclamped residue is negative
        ledger.allocate_node(3, "a", np.array([0.3, 0.3, 0.3]))
        ledger.allocate_node(3, "b", np.array([0.6, 0.6, 0.6]))
        ledger.release_node(3, "a")
        ledger.release_node(3, "b")
        assert ledger.node_used[3].tolist() == [0.0, 0.0, 0.0]
        assert ledger.node_alloc_count[3] == 0

    def test_max_utilization_is_the_bottleneck_dimension(self, chain):
        ledger = chain.ledger
        ledger.allocate_node(0, "cpu-bound", np.array([6.0, 4.0, 10.0]))
        ledger.allocate_node(1, "storage-bound", np.array([2.0, 4.0, 90.0]))
        assert ledger.max_utilization().tolist() == [0.75, 0.9, 0.0, 0.0]
        values = np.array([0.75, 0.9, 0.0, 0.0])
        mean, std = ledger.utilization_stats()
        assert mean == pytest.approx(values.mean())
        assert std == pytest.approx(values.std())

    def test_every_node_write_refreshes_the_memos(self, chain):
        ledger = chain.ledger
        probe = np.array([5.0, 0.0, 0.0])
        assert ledger.max_utilization()[2] == 0.0 and ledger.can_host_all(probe)[2]
        ledger.allocate_node(2, "a", np.array([4.0, 0.0, 0.0]))
        assert ledger.utilization_matrix()[2].tolist() == [0.5, 0.0, 0.0]
        assert ledger.max_utilization()[2] == 0.5 and not ledger.can_host_all(probe)[2]
        ledger.release_node(2, "a")
        assert ledger.max_utilization()[2] == 0.0 and ledger.can_host_all(probe)[2]
        ledger.allocate_node(2, "b", np.array([8.0, 0.0, 0.0]))
        assert ledger.max_utilization()[2] == 1.0 and not ledger.can_host_all(probe)[2]
        ledger.reset()
        assert not ledger.utilization_matrix().any()
        assert ledger.max_utilization()[2] == 0.0 and ledger.can_host_all(probe)[2]

    def test_writes_keep_the_arrays_in_place(self, chain):
        ledger = chain.ledger
        views = (ledger.node_used, ledger.node_alloc_count, ledger.link_used)
        held_row = ledger.node_used[1]  # a row view, as DecisionRows holds
        ledger.allocate_node(1, "a", np.array([1.0, 2.0, 3.0]))
        ledger.reserve_link(0, "f", 10.0)
        assert held_row.tolist() == [1.0, 2.0, 3.0] and views[2][0] == 10.0
        ledger.release_node(1, "a")
        ledger.release_link(0, "f")
        ledger.allocate_node(1, "b", np.array([2.0, 2.0, 2.0]))
        ledger.reset()
        after = (ledger.node_used, ledger.node_alloc_count, ledger.link_used)
        assert all(held is current for held, current in zip(views, after))
        assert not held_row.any() and not views[1].any()


class TestLinkPrimitives:
    def test_fit_reads_the_clamped_free_bandwidth(self, chain):
        # bw <= max(0, cap - used) + 1e-9: once a link is filled inside the
        # tolerance its free bandwidth reads 0, not a negative amount.
        ledger = chain.ledger
        ledger.reserve_link(1, "a", BANDWIDTH + 0.9e-9)
        ledger.reserve_link(1, "b", 0.9e-9)
        ledger.reserve_link(1, "zero", 0.0)
        before = ledger_state(ledger)
        with pytest.raises(InsufficientBandwidthError, match=r"link \(1, 2\)"):
            ledger.reserve_link(1, "c", 2e-9)
        assert ledger_state(ledger) == before

    def test_release_clamps_float_residue_at_zero(self, chain):
        ledger = chain.ledger
        ledger.reserve_link(2, "a", 0.3)
        ledger.reserve_link(2, "b", 0.6)
        ledger.release_link(2, "a")
        ledger.release_link(2, "b")
        assert ledger.link_used[2] == 0.0 and not ledger.link_records[2]


class TestFences:
    def test_node_fence_takes_exactly_the_free_capacity(self, chain):
        ledger = chain.ledger
        ledger.allocate_node(1, "a", np.array([0.3, 1.7, 33.3]))
        used = ledger.node_used[1].copy()
        remaining = np.maximum(CAPACITY - used, 0.0)
        refresh_node_fence(chain, 1)
        fence = ledger.node_records[1]["fence:node:1"]
        assert fence.tobytes() == remaining.tobytes()
        assert ledger.node_used[1].tobytes() == (used + remaining).tobytes()
        assert not ledger.can_host_all(np.array([1e-6, 0.0, 0.0]))[1]
        refresh_node_fence(chain, 1)  # idempotent: the fence is re-sized, not stacked
        assert list(ledger.node_records[1]) == ["a", "fence:node:1"]
        assert ledger.node_alloc_count[1] == 2
        release_node_fence(chain, 1)
        assert list(ledger.node_records[1]) == ["a"]
        assert ledger.node_used[1] == pytest.approx(used)

    def test_node_fence_skips_a_full_node(self, chain):
        ledger = chain.ledger
        ledger.allocate_node(2, "full", CAPACITY.copy())
        before = ledger_state(ledger)
        refresh_node_fence(chain, 2)
        release_node_fence(chain, 2)
        assert ledger_state(ledger) == before
        assert list(ledger.node_records[2]) == ["full"]

    def test_link_fence_takes_exactly_the_free_bandwidth(self, chain):
        ledger = chain.ledger
        ledger.reserve_link(0, "f", 123.4)
        refresh_link_fence(chain, (1, 0))
        assert ledger.link_records[0]["fence:link:0:1"] == BANDWIDTH - 123.4
        assert ledger.link_used[0] == 123.4 + (BANDWIDTH - 123.4)
        release_link_fence(chain, (0, 1))
        assert list(ledger.link_records[0]) == ["f"]
        ledger.reserve_link(0, "rest", BANDWIDTH - 123.4)
        before = ledger_state(ledger)
        refresh_link_fence(chain, (0, 1))  # a full link gets no fence
        assert ledger_state(ledger) == before


class TestChainCost:
    def test_instances_in_order_then_transport(self, chain):
        # Per instance: (d0*c0 + d1*c1 + d2*c2) * holding, then its licence;
        # the transport term is bandwidth * per_mbps * holding.
        costs = chain.ledger.node_cost_per_unit
        rows, licences = [2, 0, 2], [0.3, 0.1, 0.7]
        demands = [[1.5, 3.0, 10.0], [0.5, 1.0, 2.0], [2.0, 2.0, 2.0]]
        hosting, transport = chain_cost(
            chain.topology, rows, demands, licences, 12.5, 40.0, 0.003
        )
        expected = 0.0
        for row, (d0, d1, d2), licence in zip(rows, demands, licences):
            c0, c1, c2 = costs[row].tolist()
            expected += (d0 * c0 + d1 * c1 + d2 * c2) * 12.5
            expected += licence
        assert hosting == expected
        assert transport == 40.0 * 0.003 * 12.5

    def test_placement_prices_through_it(self, chain):
        request = build_request(default_catalog(), source=0, sla_ms=100.0)
        placement = Placement.build(request, [1, 3], chain)
        record = placement.compiled(chain.topology)
        per_mbps = sum(path.cost_per_mbps for path in placement.paths)
        hosting, transport = chain_cost(
            chain.topology, record.rows, record.demands,
            [vnf.license_cost for vnf in request.chain.vnf_types],
            request.holding_time, request.bandwidth_mbps, per_mbps,
        )
        assert placement.hosting_cost(chain) == hosting
        assert placement.transport_cost(chain) == transport
        assert placement.total_cost(chain) == hosting + transport
        assert per_mbps > 0.0
