"""Chain-to-substrate placements (embeddings).

A :class:`Placement` maps each VNF of an :class:`~repro.nfv.sfc.SFCRequest`
to a substrate node and routes traffic source → VNF₁ → ... → VNFₙ
(→ destination) over latency-shortest paths.  It knows how to

* check feasibility against current node and link capacities,
* compute its end-to-end latency, operational cost and availability, and
* atomically commit to / release from a :class:`SubstrateNetwork`.

Placement construction routes the service path and stops there: it is
side-effect free, and only :meth:`Placement.commit` mutates the substrate.  On
first use against a ledger a placement compiles itself into a
:class:`~repro.substrate.ledger.CompiledChain` (rows, demands, link slots),
and the check, commit and release run the ledger's chain kernel on it.  A
committed placement is named by its request: the node reservation of VNF
``i`` is held under ``req:{request_id}:vnf:{i}`` and the link reservations of
routed segment ``i`` under ``req:{request_id}:seg:{i}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.nfv.sfc import SFCRequest
from repro.nfv.sla import placement_availability
from repro.substrate.ledger import CompiledChain, SubstrateLedger, chain_fits
from repro.substrate.link import InsufficientBandwidthError
from repro.substrate.network import PathInfo, SubstrateNetwork
from repro.substrate.node import InsufficientCapacityError


class PlacementError(RuntimeError):
    """Raised when committing an infeasible placement."""


@dataclass
class Placement:
    """A complete mapping of one SFC request onto the substrate.

    Parameters
    ----------
    request:
        The request being embedded.
    node_assignment:
        One substrate node id per VNF of the chain, in chain order.
    """

    request: SFCRequest
    node_assignment: Tuple[int, ...]
    _paths: List[PathInfo] = field(default_factory=list, repr=False)
    _committed: bool = field(default=False, repr=False)
    # Memos set on first use: plain class attributes, not dataclass fields.
    _compiled = None  # Optional[CompiledChain], for one ledger
    _sla_ok = None  # Optional[bool], for that ledger's node tiers
    _latency_ms = None  # Optional[float]
    _handles = None  # Optional[Tuple[List[str], List[str]]]

    def __post_init__(self) -> None:
        self.node_assignment = tuple(self.node_assignment)
        if len(self.node_assignment) != self.request.num_vnfs:
            raise ValueError(
                f"placement assigns {len(self.node_assignment)} nodes but the "
                f"chain has {self.request.num_vnfs} VNFs"
            )

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @classmethod
    def build(
        cls,
        request: SFCRequest,
        node_assignment: Sequence[int],
        network: SubstrateNetwork,
    ) -> "Placement":
        """Create a placement and route its service path on ``network``.

        Raises :class:`~repro.substrate.network.NoRouteError` when any pair of
        consecutive anchors is disconnected.
        """
        placement = cls(request=request, node_assignment=tuple(node_assignment))
        placement._route(network)
        return placement

    def _anchor_sequence(self) -> List[int]:
        """The node sequence traffic traverses: source, VNF hosts, destination."""
        anchors = [self.request.source_node_id, *self.node_assignment]
        if self.request.destination_node_id is not None:
            anchors.append(self.request.destination_node_id)
        return anchors

    def _route(self, network: SubstrateNetwork) -> None:
        anchors = self._anchor_sequence()
        self._paths = [
            network.shortest_path(start, end)
            for start, end in zip(anchors[:-1], anchors[1:])
        ]

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def paths(self) -> List[PathInfo]:
        """The routed paths between consecutive anchors, one per segment."""
        return list(self._paths)

    @property
    def is_committed(self) -> bool:
        """True after a successful :meth:`commit` (until :meth:`release`)."""
        return self._committed

    def propagation_latency_ms(self) -> float:
        """Total routed propagation latency across all segments."""
        return sum(path.latency_ms for path in self._paths)

    def processing_latency_ms(self) -> float:
        """Total VNF processing latency (placement independent)."""
        return self.request.chain.total_processing_delay_ms()

    def end_to_end_latency_ms(self) -> float:
        """Propagation plus processing latency of the placed chain (memoized)."""
        if self._latency_ms is None:
            propagation = self.propagation_latency_ms()
            self._latency_ms = propagation + self.processing_latency_ms()
        return self._latency_ms

    def satisfies_sla(self, network: Optional[SubstrateNetwork] = None) -> bool:
        """True when the end-to-end latency and availability meet the SLA.

        With a network, the verdict is kept while its ledger is: latency and
        availability read routes and node tiers, never usage.
        """
        if network is None:
            return self.request.sla.is_satisfied(
                self.end_to_end_latency_ms(), self.availability(None)
            )
        self.compiled(network.ledger)
        if self._sla_ok is None:
            self._sla_ok = self.request.sla.is_satisfied(
                self.end_to_end_latency_ms(), self.availability(network)
            )
        return self._sla_ok

    def availability(self, network: Optional[SubstrateNetwork] = None) -> float:
        """Series-system availability estimate over distinct hosting nodes.

        When ``network`` is given the per-node tier (edge vs. cloud) informs
        the per-component availability; without it every node is assumed to
        be edge tier (the conservative choice).
        """
        if network is None:
            return placement_availability(dict.fromkeys(self.node_assignment, "edge"))
        ledger = network.ledger
        cloud = ledger.cloud_tier_mask
        return placement_availability(
            {
                node_id: "cloud" if cloud[ledger.node_row[node_id]] else "edge"
                for node_id in self.node_assignment
            }
        )

    def edge_fraction(self, network: SubstrateNetwork) -> float:
        """Fraction of the chain's VNFs hosted on edge nodes."""
        if not self.node_assignment:
            return 0.0
        edge = network.ledger.edge_tier_mask
        rows = self.compiled(network.ledger).rows
        return sum(1 for row in rows if edge[row]) / len(rows)

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #
    def hosting_cost(self, network: SubstrateNetwork) -> float:
        """Node-resource cost of the placement over the holding time."""
        ledger = network.ledger
        record = self.compiled(ledger)
        duration = self.request.holding_time
        cost = 0.0
        for row, (d0, d1, d2), vnf_type in zip(
            record.rows, record.demands, self.request.chain.vnf_types
        ):
            c0, c1, c2 = ledger.node_cost_per_unit[row].tolist()
            cost += (d0 * c0 + d1 * c1 + d2 * c2) * duration
            cost += vnf_type.license_cost
        return cost

    def transport_cost(self, network: SubstrateNetwork) -> float:
        """Link-bandwidth cost of the placement over the holding time."""
        duration = self.request.holding_time
        bandwidth = self.request.bandwidth_mbps
        ledger = network.ledger
        per_mbps = sum(ledger.path_cost_per_mbps(path.nodes) for path in self._paths)
        return bandwidth * per_mbps * duration

    def total_cost(self, network: SubstrateNetwork) -> float:
        """Hosting plus transport cost of the placement."""
        return self.hosting_cost(network) + self.transport_cost(network)

    # ------------------------------------------------------------------ #
    # Feasibility / commit / release
    # ------------------------------------------------------------------ #
    def compiled(self, ledger: SubstrateLedger) -> CompiledChain:
        """This placement flattened against ``ledger`` (built on first use).

        A placement used against another ledger (a twin network, or the one a
        topology change rebuilds) recompiles.
        """
        record = self._compiled
        if record is None or record.ledger is not ledger:
            node_row = ledger.node_row
            record = self._compiled = CompiledChain(
                ledger,
                [node_row[node_id] for node_id in self.node_assignment],
                list(self.request.chain.demand_rows),
                [ledger.path_entry(path.nodes)[2] for path in self._paths],
                self.request.bandwidth_mbps,
            )
            self._sla_ok = None
        return record

    def _allocation_handles(self) -> Tuple[List[str], List[str]]:
        """(handle per VNF, handle per segment), built on first commit.

        Both name the request and the position in it, so they are the same
        in every run; a second placement of a committed request that meets
        one of them on a node or link fails its commit before any write.
        """
        if self._handles is None:
            request_id = self.request.request_id
            self._handles = (
                [f"req:{request_id}:vnf:{i}" for i in range(len(self.node_assignment))],
                [f"req:{request_id}:seg:{i}" for i in range(len(self._paths))],
            )
        return self._handles

    def is_feasible(self, network: SubstrateNetwork) -> bool:
        """Check node capacity, path bandwidth and SLA without mutating state.

        Node feasibility aggregates the demands of all VNFs of this chain
        colocated on the same node, so a node cannot be "double booked" by a
        single placement; a link crossed by several segments must carry each
        traversal.  Both checks read the compiled record.
        """
        ledger = network.ledger
        if not chain_fits(ledger.node_used, ledger.link_used, self.compiled(ledger)):
            return False
        return self.satisfies_sla(network)

    def commit(self, network: SubstrateNetwork) -> None:
        """Atomically reserve node resources and path bandwidth.

        On any failure — too little capacity or bandwidth, or a handle the
        substrate already holds — nothing stays reserved and
        :class:`PlacementError` is raised.
        """
        if self._committed:
            raise PlacementError(
                f"placement for request {self.request.request_id} is already committed"
            )
        ledger = network.ledger
        try:
            ledger.allocate_chain(self.compiled(ledger), *self._allocation_handles())
        except (
            InsufficientCapacityError, InsufficientBandwidthError, ValueError
        ) as err:
            raise PlacementError(
                f"placement for request {self.request.request_id} is infeasible: {err}"
            ) from err
        self._committed = True

    def release(self, network: SubstrateNetwork) -> None:
        """Free every reservation made by :meth:`commit`."""
        if not self._committed:
            raise PlacementError(
                f"placement for request {self.request.request_id} is not committed"
            )
        ledger = network.ledger
        ledger.release_chain(self.compiled(ledger), *self._allocation_handles())
        self._committed = False

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def snapshot(self, network: Optional[SubstrateNetwork] = None) -> Dict[str, object]:
        """A JSON-friendly summary; costs included when a network is given."""
        summary: Dict[str, object] = {
            "request_id": self.request.request_id,
            "service_class": self.request.service_class,
            "node_assignment": list(self.node_assignment),
            "end_to_end_latency_ms": self.end_to_end_latency_ms(),
            "propagation_latency_ms": self.propagation_latency_ms(),
            "processing_latency_ms": self.processing_latency_ms(),
            "sla_satisfied": self.satisfies_sla(network),
            "availability": self.availability(network),
            "committed": self._committed,
        }
        if network is not None:
            summary["hosting_cost"] = self.hosting_cost(network)
            summary["transport_cost"] = self.transport_cost(network)
            summary["total_cost"] = self.total_cost(network)
            summary["edge_fraction"] = self.edge_fraction(network)
        return summary
