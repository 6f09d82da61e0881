"""``Placement.is_feasible`` checks each placement once per ledger state.

Every usage write bumps ``SubstrateLedger.write_count``, and a placement
keeps its verdict against ``(ledger, write_count)``.  The property test
interleaves every kind of write with checks of a fixed set of placements and
holds each verdict to a fresh ``chain_fits`` plus SLA evaluation; the
counting tests run a seed-0 ``sweep_fig`` round and a serving round and
assert that no ``chain_fits`` call repeats a (placement, ledger state).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.nfv.placement as placement_module
from repro.nfv.catalog import default_catalog
from repro.nfv.placement import Placement
from repro.sim.lifecycle import (
    refresh_link_fence,
    refresh_node_fence,
    release_link_fence,
    release_node_fence,
)
from repro.substrate.ledger import chain_fits
from repro.substrate.link import InsufficientBandwidthError
from repro.substrate.node import InsufficientCapacityError
from repro.substrate.topology import linear_chain_topology
from repro.utils.rng import derive_seed
from tests.conftest import build_request

CATALOG = default_catalog()
NUM_NODES = 4  # the chain 0 — 1 — 2 — 3, capacity (8, 16, 100), links 1000 Mbps
CAPACITY = np.array([8.0, 16.0, 100.0])

#: (VNFs, assignment, bandwidth, SLA ms, destination): fits at first, too
#: much CPU on one node, fits until node 1 loads, crosses link (0, 1) twice,
#: misses its SLA with capacity to spare, and pays an egress hop.
PLANS = [
    (("firewall", "nat"), (1, 3), 50.0, 60.0, None),
    (("ids", "ids"), (2, 2), 50.0, 1e6, None),
    (("ids",), (1,), 300.0, 1e6, None),
    (("firewall", "nat"), (1, 0), 450.0, 1e6, None),
    (("nat",), (3,), 50.0, 6.0, None),
    (("firewall",), (2,), 200.0, 1e6, 3),
]

rows = st.integers(0, NUM_NODES - 1)
slots = st.integers(0, NUM_NODES - 2)
picks = st.integers(0, 9)
write_ops = st.lists(
    st.one_of(
        st.tuples(st.just("allocate_node"), rows, st.sampled_from([0.1, 0.3, 0.6, 1.0])),
        st.tuples(st.just("release_node"), picks),
        st.tuples(st.just("reserve_link"), slots, st.sampled_from([50.0, 100.0, 600.0, 1000.0])),
        st.tuples(st.just("release_link"), picks),
        st.tuples(st.just("allocate_chain"), st.integers(0, len(PLANS) - 1)),
        st.tuples(st.just("release_chain"), picks),
        st.tuples(st.just("node_fence"), rows, st.booleans()),
        st.tuples(st.just("link_fence"), slots, st.booleans()),
        st.just(("reset",)),
    ),
    min_size=1,
    max_size=30,
)


def build_plans(network):
    placements = []
    for names, assignment, bandwidth, sla_ms, destination in PLANS:
        request = build_request(
            CATALOG, vnf_names=names, bandwidth=bandwidth, source=0, sla_ms=sla_ms
        )
        request.destination_node_id = destination
        placements.append(Placement.build(request, assignment, network))
    return placements


def fresh_verdict(placement, network):
    """A capacity check and an SLA evaluation that keep nothing."""
    ledger = network.ledger
    if not chain_fits(
        ledger.node_used, ledger.link_used, placement.compiled(ledger.topology)
    ):
        return False
    return placement.request.sla.is_satisfied(
        placement.end_to_end_latency_ms(), placement.availability(network)
    )


class Writer:
    """Applies drawn writes to one network's ledger, tracking live handles."""

    def __init__(self, network, placements):
        self.network = network
        self.placements = placements
        self.nodes, self.links, self.chains = [], [], []
        self.serial = 0

    def _handle(self, prefix):
        self.serial += 1
        return f"{prefix}{self.serial}"

    def apply(self, op):
        network, ledger = self.network, self.network.ledger
        kind = op[0]
        if kind == "allocate_node":
            handle = self._handle("n")
            try:
                ledger.allocate_node(op[1], handle, CAPACITY * op[2])
            except InsufficientCapacityError:
                return
            self.nodes.append((op[1], handle))
        elif kind == "reserve_link":
            handle = self._handle("l")
            try:
                ledger.reserve_link(op[1], handle, op[2])
            except InsufficientBandwidthError:
                return
            self.links.append((op[1], handle))
        elif kind == "allocate_chain":
            placement = self.placements[op[1]]
            chain = placement.compiled(ledger.topology)
            handle = self._handle("c")
            handles = (
                [f"{handle}:vnf:{i}" for i in range(len(chain.rows))],
                [f"{handle}:seg:{i}" for i in range(len(chain.segments))],
            )
            try:
                ledger.allocate_chain(chain, *handles)
            except (InsufficientCapacityError, InsufficientBandwidthError):
                return
            self.chains.append((chain, handles))
        elif kind in ("release_node", "release_link", "release_chain"):
            live = {"release_node": self.nodes, "release_link": self.links}.get(
                kind, self.chains
            )
            if live:
                target, handle = live.pop(op[1] % len(live))
                if kind == "release_chain":
                    ledger.release_chain(target, *handle)
                else:
                    getattr(ledger, kind)(target, handle)
        elif kind == "node_fence":
            fence = refresh_node_fence if op[2] else release_node_fence
            fence(network, ledger.node_ids[op[1]])
        elif kind == "link_fence":
            fence = refresh_link_fence if op[2] else release_link_fence
            fence(network, (op[1], op[1] + 1))
        else:
            ledger.reset()
            self.nodes, self.links, self.chains = [], [], []


class TestVerdictPerLedgerState:
    @given(write_ops)
    @settings(max_examples=300, deadline=None)
    def test_every_verdict_equals_a_fresh_check(self, ops):
        network = linear_chain_topology(num_edge_nodes=NUM_NODES, seed=7)
        placements = build_plans(network)
        writer = Writer(network, placements)
        verdicts = [placement.is_feasible(network) for placement in placements]
        assert verdicts == [True, False, True, True, False, True]
        for op in ops:
            before = network.ledger.write_count
            writer.apply(op)
            for placement in placements:
                expected = fresh_verdict(placement, network)
                assert placement.is_feasible(network) == expected, (op, placement)
                assert placement.is_feasible(network) == expected, (op, placement)
            assert network.ledger.write_count >= before

    def test_one_check_per_write_count(self, monkeypatch):
        network = linear_chain_topology(num_edge_nodes=NUM_NODES, seed=7)
        placement = build_plans(network)[0]
        calls = []

        def counting(*args):
            calls.append(network.ledger.write_count)
            return chain_fits(*args)

        monkeypatch.setattr(placement_module, "chain_fits", counting)
        ledger = network.ledger
        assert placement.is_feasible(network) and placement.is_feasible(network)
        ledger.allocate_node(1, "load", CAPACITY)
        assert not placement.is_feasible(network)
        assert not placement.is_feasible(network)
        ledger.release_node(1, "load")
        assert placement.is_feasible(network)
        assert calls == [0, 1, 2]
        # Another ledger is another state, whatever its count reads.
        twin = linear_chain_topology(num_edge_nodes=NUM_NODES, seed=7)
        twin.ledger.write_count = ledger.write_count
        twin.ledger.allocate_node(1, "load", CAPACITY)
        twin.ledger.write_count = ledger.write_count
        assert not placement.is_feasible(twin)
        assert len(calls) == 4


def record_checks(monkeypatch):
    """Spy on every placement check: the keys chain_fits ran at, and calls.

    A key is (compiled chain, ledger, write count); the chain stands for
    its placement on that ledger's topology, and the sets hold both, so no
    identity is reused while the spy lives.
    """
    seen = set()
    counts = {"is_feasible": 0, "chain_fits": 0, "repeats": 0}
    checking = []
    check = Placement.is_feasible
    fits = placement_module.chain_fits

    def spy_check(self, network):
        counts["is_feasible"] += 1
        checking.append(network.ledger)
        try:
            return check(self, network)
        finally:
            checking.pop()

    def spy_fits(node_used, link_used, chain):
        ledger = checking[-1]
        key = (chain, ledger, ledger.write_count)
        counts["chain_fits"] += 1
        counts["repeats"] += key in seen
        seen.add(key)
        return fits(node_used, link_used, chain)

    monkeypatch.setattr(Placement, "is_feasible", spy_check)
    monkeypatch.setattr(placement_module, "chain_fits", spy_fits)
    return counts


class TestOneCheckPerLedgerStateEndToEnd:
    @pytest.mark.parametrize("name", ["sweep_fig", "serve_overload"])
    def test_no_chain_fits_repeats_a_ledger_state(self, monkeypatch, name):
        from benchmarks.e2e.workloads import WORKLOADS

        # The benchmark's seed-0 round: its worker derives the workload seed.
        workload = WORKLOADS[name](derive_seed(0, name))
        counts = record_checks(monkeypatch)
        result = workload.run()
        assert not result.failed
        assert counts["repeats"] == 0
        # The re-validations at commit time found their verdicts kept.
        assert counts["chain_fits"] < counts["is_feasible"]
