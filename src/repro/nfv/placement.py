"""Chain-to-substrate placements (embeddings).

A :class:`Placement` maps each VNF of an :class:`~repro.nfv.sfc.SFCRequest`
to a substrate node and routes traffic source → VNF₁ → ... → VNFₙ
(→ destination) over latency-shortest paths.  It knows how to

* check feasibility against current node and link capacities,
* compute its end-to-end latency, operational cost and availability, and
* atomically commit to / release from a :class:`SubstrateNetwork`.

Placement construction is cheap and side-effect free; only
:meth:`Placement.commit` mutates the substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.nfv.sfc import SFCRequest
from repro.nfv.sla import placement_availability
from repro.nfv.vnf import VNFInstance
from repro.substrate.link import InsufficientBandwidthError
from repro.substrate.network import NoRouteError, PathInfo, SubstrateNetwork
from repro.substrate.node import InsufficientCapacityError


class PlacementError(RuntimeError):
    """Raised when committing an infeasible placement."""


@dataclass
class PlacementSegment:
    """One routed hop of the service path (between consecutive anchors)."""

    path: PathInfo

    @property
    def latency_ms(self) -> float:
        """Latency of this segment."""
        return self.path.latency_ms


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
    _segments: List[PlacementSegment] = field(default_factory=list, repr=False)
    _instances: List[VNFInstance] = field(default_factory=list, repr=False)
    _committed: bool = field(default=False, repr=False)

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
        placement._materialize_instances()
        return placement

    def _anchor_sequence(self) -> List[int]:
        """The node sequence traffic traverses: source, VNF hosts, destination."""
        anchors = [self.request.source_node_id, *self.node_assignment]
        if self.request.destination_node_id is not None:
            anchors.append(self.request.destination_node_id)
        return anchors

    def _route(self, network: SubstrateNetwork) -> None:
        anchors = self._anchor_sequence()
        segments: List[PlacementSegment] = []
        for start, end in zip(anchors[:-1], anchors[1:]):
            path = network.shortest_path(start, end)
            segments.append(PlacementSegment(path=path))
        self._segments = segments

    def _materialize_instances(self) -> None:
        self._instances = [
            VNFInstance(
                vnf_type=self.request.chain.vnf_at(index),
                node_id=node_id,
                bandwidth_mbps=self.request.bandwidth_mbps,
                request_id=self.request.request_id,
            )
            for index, node_id in enumerate(self.node_assignment)
        ]

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    @property
    def instances(self) -> List[VNFInstance]:
        """The VNF instances this placement creates."""
        return list(self._instances)

    @property
    def segments(self) -> List[PlacementSegment]:
        """The routed path segments between consecutive anchors."""
        return list(self._segments)

    @property
    def is_committed(self) -> bool:
        """True after a successful :meth:`commit` (until :meth:`release`)."""
        return self._committed

    def propagation_latency_ms(self) -> float:
        """Total routed propagation latency across all segments."""
        return sum(segment.latency_ms for segment in self._segments)

    def processing_latency_ms(self) -> float:
        """Total VNF processing latency (placement independent)."""
        return self.request.chain.total_processing_delay_ms()

    def end_to_end_latency_ms(self) -> float:
        """Propagation plus processing latency of the placed chain."""
        return self.propagation_latency_ms() + self.processing_latency_ms()

    def satisfies_sla(self, network: Optional[SubstrateNetwork] = None) -> bool:
        """True when the end-to-end latency and availability meet the SLA."""
        return self.request.sla.is_satisfied(
            self.end_to_end_latency_ms(), self.availability(network)
        )

    def availability(self, network: Optional[SubstrateNetwork] = None) -> float:
        """Series-system availability estimate over distinct hosting nodes.

        When ``network`` is given the per-node tier (edge vs. cloud) informs
        the per-component availability; without it every node is assumed to
        be edge tier (the conservative choice).
        """
        return placement_availability(self._distinct_node_tiers(network))

    def _distinct_node_tiers(
        self, network: Optional[SubstrateNetwork] = None
    ) -> Dict[int, str]:
        tiers: Dict[int, str] = {}
        for instance in self._instances:
            if network is not None:
                tier = "cloud" if network.node(instance.node_id).is_cloud else "edge"
            else:
                tier = "edge"
            tiers.setdefault(instance.node_id, tier)
        return tiers

    def distinct_nodes(self) -> List[int]:
        """Distinct substrate nodes hosting at least one VNF of the chain."""
        seen: List[int] = []
        for node_id in self.node_assignment:
            if node_id not in seen:
                seen.append(node_id)
        return seen

    def uses_cloud(self, network: SubstrateNetwork) -> bool:
        """True when any VNF of the chain is hosted on a cloud node."""
        return any(network.node(nid).is_cloud for nid in self.node_assignment)

    def edge_fraction(self, network: SubstrateNetwork) -> float:
        """Fraction of the chain's VNFs hosted on edge nodes."""
        if not self.node_assignment:
            return 0.0
        edge_count = sum(
            1 for nid in self.node_assignment if network.node(nid).is_edge
        )
        return edge_count / len(self.node_assignment)

    # ------------------------------------------------------------------ #
    # Cost model
    # ------------------------------------------------------------------ #
    def hosting_cost(self, network: SubstrateNetwork) -> float:
        """Node-resource cost of the placement over the holding time."""
        duration = self.request.holding_time
        cost = 0.0
        for instance in self._instances:
            node = network.node(instance.node_id)
            cost += node.hosting_cost(instance.demand, duration)
            cost += instance.vnf_type.license_cost
        return cost

    def transport_cost(self, network: SubstrateNetwork) -> float:
        """Link-bandwidth cost of the placement over the holding time."""
        duration = self.request.holding_time
        bandwidth = self.request.bandwidth_mbps
        ledger = network.ledger
        per_mbps = sum(
            ledger.path_cost_per_mbps(segment.path.nodes)
            for segment in self._segments
        )
        return bandwidth * per_mbps * duration

    def total_cost(self, network: SubstrateNetwork) -> float:
        """Hosting plus transport cost of the placement."""
        return self.hosting_cost(network) + self.transport_cost(network)

    # ------------------------------------------------------------------ #
    # Feasibility / commit / release
    # ------------------------------------------------------------------ #
    def is_feasible(self, network: SubstrateNetwork) -> bool:
        """Check node capacity, path bandwidth and SLA without mutating state.

        Node feasibility aggregates the demands of all VNFs of this chain
        colocated on the same node, so a node cannot be "double booked" by a
        single placement.  The node and link checks reduce to array
        comparisons against the substrate ledger.
        """
        ledger = network.ledger

        # Per-node aggregated demand (chains are short, the dict stays tiny).
        grouped: Dict[int, np.ndarray] = {}
        for instance in self._instances:
            demand = instance.demand_array
            row = ledger.node_row[instance.node_id]
            if row in grouped:
                grouped[row] = grouped[row] + demand
            else:
                grouped[row] = demand
        if grouped:
            rows = np.fromiter(grouped.keys(), dtype=np.int64, count=len(grouped))
            demands = np.stack(list(grouped.values()))
            free = ledger.node_capacity[rows] - ledger.node_used[rows]
            if not bool(np.all(demands <= free + 1e-9)):
                return False

        # A link shared by several segments must carry each traversal.
        # Accumulating per traversed slot keeps this O(path hops) instead of
        # touching every substrate link.
        bandwidth = self.request.bandwidth_mbps
        traversals: Dict[int, int] = {}
        for segment in self._segments:
            for slot in ledger.path_edge_indices(segment.path.nodes).tolist():
                traversals[slot] = traversals.get(slot, 0) + 1
        link_capacity = ledger.link_capacity
        link_used = ledger.link_used
        for slot, count in traversals.items():
            if count * bandwidth > link_capacity[slot] - link_used[slot] + 1e-9:
                return False
        return self.satisfies_sla(network)

    def commit(self, network: SubstrateNetwork) -> None:
        """Atomically reserve node resources and path bandwidth.

        On any failure every reservation made so far is rolled back and
        :class:`PlacementError` is raised; the substrate is left unchanged.
        """
        if self._committed:
            raise PlacementError(
                f"placement for request {self.request.request_id} is already committed"
            )
        committed_nodes: List[Tuple[int, str]] = []
        committed_paths: List[Tuple[Tuple[int, ...], str]] = []
        try:
            for instance in self._instances:
                network.allocate_node(
                    instance.node_id, instance.allocation_handle, instance.demand
                )
                committed_nodes.append((instance.node_id, instance.allocation_handle))
            for index, segment in enumerate(self._segments):
                handle = self._segment_handle(index)
                network.allocate_path(
                    segment.path.nodes, handle, self.request.bandwidth_mbps
                )
                committed_paths.append((segment.path.nodes, handle))
        except (InsufficientCapacityError, InsufficientBandwidthError, NoRouteError) as exc:
            for nodes, handle in committed_paths:
                network.release_path(nodes, handle)
            for node_id, handle in committed_nodes:
                network.release_node(node_id, handle)
            raise PlacementError(
                f"placement for request {self.request.request_id} is infeasible: {exc}"
            ) from exc
        self._committed = True

    def release(self, network: SubstrateNetwork) -> None:
        """Free every reservation made by :meth:`commit`."""
        if not self._committed:
            raise PlacementError(
                f"placement for request {self.request.request_id} is not committed"
            )
        for index, segment in enumerate(self._segments):
            network.release_path(segment.path.nodes, self._segment_handle(index))
        for instance in self._instances:
            network.release_node(instance.node_id, instance.allocation_handle)
        self._committed = False

    def _segment_handle(self, index: int) -> str:
        return f"req:{self.request.request_id}:seg:{index}"

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
