"""The geo-distributed substrate network: an immutable topology plus a ledger.

A :class:`SubstrateNetwork` is built node by node and link by link.  On first
use it freezes them into a read-only :class:`SubstrateTopology` (rows, slots,
static columns, latency tables and a route table), which many networks may
share (:meth:`SubstrateNetwork.over`); its own
:class:`~repro.substrate.ledger.SubstrateLedger` holds all usage.  The network
provides the operations that placement policies and the discrete-event
simulator need:

* latency-weighted shortest-path routing between any two nodes, read from
  the topology's route table,
* feasibility-checked allocation/rollback of node resources and path
  bandwidth, addressed by node id and path and applied to ledger rows and
  link slots,
* utilization, cost and load-balance statistics, and
* cheap state snapshots used by the RL state encoder.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.substrate.geo import propagation_latency_ms
from repro.substrate.ledger import CAPACITY_TOL, SubstrateLedger
from repro.substrate.link import (
    InsufficientBandwidthError,
    Link,
    canonical_endpoints,
)
from repro.substrate.node import ComputeNode, NodeTier
from repro.substrate.resources import ResourceVector


class UnknownNodeError(KeyError):
    """Raised when an operation references a node id not in the network."""


class NoRouteError(RuntimeError):
    """Raised when two nodes are not connected in the substrate graph."""


@dataclass(frozen=True)
class PathInfo:
    """A routed path: its nodes, latency, link slots and cost per Mbps.

    ``slots`` are the topology's link slots of the hops in traversal order,
    and ``cost_per_mbps`` is the sum of those links' per-Mbps costs.
    """

    nodes: Tuple[int, ...]
    latency_ms: float
    slots: Tuple[int, ...] = ()
    cost_per_mbps: float = 0.0

    def links(self) -> List[Tuple[int, int]]:
        """Canonical endpoint pairs of the links along the path."""
        return [
            canonical_endpoints(self.nodes[i], self.nodes[i + 1])
            for i in range(len(self.nodes) - 1)
        ]


#: The route-table entry of a row pair that no path connects.
UNREACHABLE = PathInfo(nodes=(), latency_ms=math.inf)


class SubstrateTopology:
    """The static half of a substrate: nodes, links, their columns and routes.

    Node ``i`` of ``nodes`` is ledger row ``i`` and link ``j`` of ``links`` is
    link slot ``j``.  Only the route table fills after construction, and
    every numpy array is read-only, so any number of networks, ledgers and
    SoA lanes share one topology.

    ``latency[i, j]`` is the latency-shortest distance between rows ``i`` and
    ``j`` (``inf`` when disconnected) and ``next_hop[i, j]`` the row after
    ``i`` on that path (``-1`` when disconnected), from one vectorized
    Floyd–Warshall sweep.  ``routes`` is the route table: entry
    ``a * num_nodes + b`` is ``None`` until :meth:`route` fills it with the
    :class:`PathInfo` from row ``a`` to row ``b``, or with
    :data:`UNREACHABLE`.
    """

    def __init__(self, nodes: Iterable[ComputeNode], links: Iterable[Link]) -> None:
        self.nodes = nodes = tuple(nodes)
        self.links = links = tuple(links)
        self.num_nodes = n = len(nodes)
        self.num_links = len(links)

        # --- node columns, one row per node --------------------------------- #
        self.node_ids: Tuple[int, ...] = tuple(node.node_id for node in nodes)
        self.node_row: Dict[int, int] = {
            node_id: row for row, node_id in enumerate(self.node_ids)
        }
        self.edge_node_ids: Tuple[int, ...] = tuple(
            node.node_id for node in nodes if node.is_edge
        )
        self.node_capacity = (
            np.stack([node.capacity.as_array() for node in nodes])
            if nodes
            else np.zeros((0, 3))
        )
        # Zero-capacity dimensions report 0.0 utilization (x / inf == 0).
        self.node_capacity_safe = np.where(
            self.node_capacity > 0, self.node_capacity, np.inf
        )
        self.capacity_plus_tol = self.node_capacity + CAPACITY_TOL
        self.node_cost_per_unit = (
            np.stack([node.cost_per_unit.as_array() for node in nodes])
            if nodes
            else np.zeros((0, 3))
        )
        self.node_activation_cost = np.array(
            [node.activation_cost for node in nodes], dtype=float
        )
        self.edge_tier_mask = np.array([node.is_edge for node in nodes], dtype=bool)
        self.cloud_tier_mask = ~self.edge_tier_mask

        # --- link columns, one slot per link -------------------------------- #
        self.edge_index: Dict[Tuple[int, int], int] = {
            link.endpoints: slot for slot, link in enumerate(links)
        }
        self.link_capacity = np.array(
            [link.bandwidth_capacity for link in links], dtype=float
        )
        self.link_cost = np.array([link.cost_per_mbps for link in links], dtype=float)

        # Python-float copies of the static columns for the scalar chain kernel.
        self.capacity_rows: List[List[float]] = self.node_capacity.tolist()
        self.capacity_tol_rows: List[List[float]] = self.capacity_plus_tol.tolist()
        self.link_capacity_list: List[float] = self.link_capacity.tolist()
        self.cost_rows: List[List[float]] = self.node_cost_per_unit.tolist()

        # --- all-pairs routing ---------------------------------------------- #
        latency = np.full((n, n), np.inf)
        next_hop = np.full((n, n), -1, dtype=np.int64)
        diag = np.arange(n)
        latency[diag, diag] = 0.0
        next_hop[diag, diag] = diag
        for link in links:
            u, v = link.endpoints
            i, j = self.node_row[u], self.node_row[v]
            if link.latency_ms < latency[i, j]:
                latency[i, j] = latency[j, i] = link.latency_ms
                next_hop[i, j] = j
                next_hop[j, i] = i
        # Vectorized Floyd–Warshall: one (n, n) relaxation per pivot.
        for k in range(n):
            via = latency[:, k, None] + latency[None, k, :]
            better = via < latency
            if better.any():
                latency = np.where(better, via, latency)
                next_hop = np.where(better, next_hop[:, k, None], next_hop)
        self.latency = latency
        self.next_hop = next_hop
        for value in vars(self).values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.routes: List[Optional[PathInfo]] = [None] * (n * n)

    def route(self, pair: int) -> PathInfo:
        """Fill and return the route-table entry of one ordered row pair.

        Between node ids ``s`` and ``t`` the path walks the next-hop table
        from ``min(s, t)`` to ``max(s, t)`` and is reversed when ``s > t``, so
        both directions take the same links even where equal-latency paths
        tie; its latency is the matrix entry of that canonical pair.
        """
        a, b = divmod(pair, self.num_nodes)
        ids = self.node_ids
        source, target = ids[a], ids[b]
        low, high = (a, b) if source < target else (b, a)
        if a == b:
            path = PathInfo(nodes=(source,), latency_ms=0.0)
        elif self.next_hop[low, high] < 0:
            path = UNREACHABLE
        else:
            hops = self.next_hop[:, high]
            rows = [low]
            while rows[-1] != high:
                rows.append(int(hops[rows[-1]]))
            if source > target:
                rows.reverse()
            nodes = tuple(ids[row] for row in rows)
            slots = [
                self.edge_index[canonical_endpoints(nodes[i], nodes[i + 1])]
                for i in range(len(nodes) - 1)
            ]
            path = PathInfo(
                nodes=nodes,
                latency_ms=float(self.latency[low, high]),
                slots=tuple(slots),
                cost_per_mbps=float(self.link_cost[slots].sum()),
            )
        self.routes[pair] = path
        return path

    def path(self, source: int, target: int) -> PathInfo:
        """The routed path between two node ids (one table read when warm)."""
        row = self.node_row
        try:
            pair = row[source] * self.num_nodes + row[target]
        except KeyError as exc:
            raise UnknownNodeError(f"unknown node id {exc.args[0]}") from None
        path = self.routes[pair]
        if path is None:
            path = self.route(pair)
        if path is UNREACHABLE:
            raise NoRouteError(f"no route between {source} and {target}")
        return path


class SubstrateNetwork:
    """A capacitated, latency-weighted graph of edge and cloud nodes."""

    def __init__(self) -> None:
        self._nodes: Dict[int, ComputeNode] = {}
        self._links: Dict[Tuple[int, int], Link] = {}
        self._topology: Optional[SubstrateTopology] = None
        self._ledger: Optional[SubstrateLedger] = None

    @classmethod
    def over(cls, topology: SubstrateTopology) -> "SubstrateNetwork":
        """A new network over a built topology, with its own empty ledger."""
        network = cls()
        network._nodes = {node.node_id: node for node in topology.nodes}
        network._links = {link.endpoints: link for link in topology.links}
        network._topology = topology
        return network

    def _drop_topology(self) -> None:
        """Forget this network's topology and ledger before its graph changes.

        The rebuilt ledger starts empty, so the graph may change only while
        nothing is allocated.  A topology other networks share is left as it
        is; this network builds a new one on next use.
        """
        ledger = self._ledger
        if ledger is not None and (any(ledger.node_records) or any(ledger.link_records)):
            raise RuntimeError("cannot change the topology while allocations are live")
        self._topology = None
        self._ledger = None

    @property
    def topology(self) -> SubstrateTopology:
        """The immutable topology of the current graph (built lazily)."""
        if self._topology is None:
            self._topology = SubstrateTopology(
                self._nodes.values(), self._links.values()
            )
        return self._topology

    @property
    def ledger(self) -> SubstrateLedger:
        """The array-backed usage ledger (built lazily, empty after a rebuild)."""
        if self._ledger is None:
            self._ledger = SubstrateLedger(self.topology)
        return self._ledger

    @property
    def latency_matrix(self) -> np.ndarray:
        """All-pairs shortest-path latency matrix in ledger row order."""
        return self.topology.latency

    def latency_row(self, node_id: int) -> np.ndarray:
        """Shortest-path latencies from ``node_id`` to every node (row view)."""
        topology = self.topology
        try:
            return topology.latency[topology.node_row[node_id]]
        except KeyError as exc:
            raise UnknownNodeError(f"unknown node id {node_id}") from exc

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: ComputeNode) -> None:
        """Register a compute node.  Node ids must be unique."""
        if node.node_id in self._nodes:
            raise ValueError(f"node id {node.node_id} already present")
        self._drop_topology()
        self._nodes[node.node_id] = node

    def add_link(
        self,
        u: int,
        v: int,
        bandwidth_capacity: float,
        latency_ms: Optional[float] = None,
        cost_per_mbps: float = 0.0005,
    ) -> Link:
        """Connect two registered nodes.

        When ``latency_ms`` is omitted it is derived from the geographic
        distance between the endpoints via the fibre propagation model.
        """
        for node_id in (u, v):
            if node_id not in self._nodes:
                raise UnknownNodeError(f"unknown node id {node_id}")
        key = canonical_endpoints(u, v)
        if key in self._links:
            raise ValueError(f"link {key} already present")
        if latency_ms is None:
            latency_ms = propagation_latency_ms(
                self._nodes[u].location, self._nodes[v].location
            )
        link = Link(
            endpoints=key,
            bandwidth_capacity=bandwidth_capacity,
            latency_ms=latency_ms,
            cost_per_mbps=cost_per_mbps,
        )
        self._drop_topology()
        self._links[key] = link
        return link

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #
    @property
    def node_ids(self) -> List[int]:
        """All node ids in insertion order."""
        return list(self._nodes.keys())

    @property
    def edge_node_ids(self) -> Tuple[int, ...]:
        """Ids of edge-tier nodes, in insertion order (kept by the topology)."""
        return self.topology.edge_node_ids

    @property
    def cloud_node_ids(self) -> List[int]:
        """Ids of cloud-tier nodes."""
        return [nid for nid, node in self._nodes.items() if node.is_cloud]

    @property
    def num_nodes(self) -> int:
        """Total number of compute nodes."""
        return len(self._nodes)

    @property
    def num_links(self) -> int:
        """Total number of links."""
        return len(self._links)

    def node(self, node_id: int) -> ComputeNode:
        """Return the node with ``node_id`` or raise :class:`UnknownNodeError`."""
        try:
            return self._nodes[node_id]
        except KeyError as exc:
            raise UnknownNodeError(f"unknown node id {node_id}") from exc

    def nodes(self) -> Iterable[ComputeNode]:
        """Iterate over all compute nodes."""
        return self._nodes.values()

    def link(self, u: int, v: int) -> Link:
        """Return the link connecting ``u`` and ``v``."""
        key = canonical_endpoints(u, v)
        if key not in self._links:
            raise UnknownNodeError(f"no link between {u} and {v}")
        return self._links[key]

    def links(self) -> Iterable[Link]:
        """Iterate over all links."""
        return self._links.values()

    def has_link(self, u: int, v: int) -> bool:
        """True if nodes ``u`` and ``v`` are directly connected."""
        return canonical_endpoints(u, v) in self._links

    def is_connected(self) -> bool:
        """True when every node can reach every other node.

        The all-pairs latency matrix holds ``inf`` exactly for unreachable
        pairs, so it answers reachability too.
        """
        return bool(np.isfinite(self.latency_matrix).all())

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #
    def shortest_path(self, source: int, target: int) -> PathInfo:
        """Latency-shortest path between two nodes, from the route table.

        Bandwidth reservations do not change the latency metric, so routing
        stays fixed for the life of a topology, matching latency-based
        routing in SDN controllers.
        """
        return self.topology.path(source, target)

    def latency_between(self, source: int, target: int) -> float:
        """Latency of the shortest path between two nodes.

        This is a single O(1) matrix lookup.
        """
        topology = self.topology
        row = topology.node_row
        try:
            value = topology.latency[row[source], row[target]]
        except KeyError as exc:
            raise UnknownNodeError(f"unknown node id {exc.args[0]}") from exc
        if value == np.inf:
            raise NoRouteError(f"no route between {source} and {target}")
        return float(value)

    # ------------------------------------------------------------------ #
    # Allocation (nodes + paths) with rollback on partial failure
    # ------------------------------------------------------------------ #
    def _node_row(self, node_id: int) -> int:
        try:
            return self.topology.node_row[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node id {node_id}") from None

    def _link_slot(self, u: int, v: int) -> int:
        try:
            return self.topology.edge_index[canonical_endpoints(u, v)]
        except KeyError:
            raise UnknownNodeError(f"no link between {u} and {v}") from None

    def allocate_node(self, node_id: int, handle: str, demand: ResourceVector) -> None:
        """Reserve node resources under ``handle``."""
        self.ledger.allocate_node(self._node_row(node_id), handle, demand.as_array())

    def release_node(self, node_id: int, handle: str) -> None:
        """Free node resources stored under ``handle``."""
        self.ledger.release_node(self._node_row(node_id), handle)

    def allocate_path(
        self, nodes: Sequence[int], handle: str, bandwidth: float
    ) -> None:
        """Reserve ``bandwidth`` on every link of a path, atomically.

        If any link rejects the reservation (too little free bandwidth, or a
        handle it already holds), reservations already made under the same
        handle are rolled back before re-raising, so a failed allocation
        never leaks bandwidth.
        """
        ledger = self.ledger
        reserved: List[int] = []
        try:
            for i in range(len(nodes) - 1):
                slot = self._link_slot(nodes[i], nodes[i + 1])
                ledger.reserve_link(slot, handle, bandwidth)
                reserved.append(slot)
        except (InsufficientBandwidthError, ValueError):
            for slot in reserved:
                ledger.release_link(slot, handle)
            raise

    def release_path(self, nodes: Sequence[int], handle: str) -> None:
        """Free a path reservation made under ``handle``.

        Links that do not hold the handle are skipped so that rollback after
        partial allocation failures stays idempotent.
        """
        ledger = self.ledger
        for i in range(len(nodes) - 1):
            slot = self._link_slot(nodes[i], nodes[i + 1])
            if handle in ledger.link_records[slot]:
                ledger.release_link(slot, handle)

    def reset(self) -> None:
        """Clear all allocations on every node and link."""
        self.ledger.reset()

    # ------------------------------------------------------------------ #
    # Aggregate statistics
    # ------------------------------------------------------------------ #
    def _tier_mask(self, tier: Optional[NodeTier]) -> np.ndarray:
        ledger = self.ledger
        if tier is None:
            return np.ones(ledger.num_nodes, dtype=bool)
        return ledger.edge_tier_mask if tier is NodeTier.EDGE else ledger.cloud_tier_mask

    def total_capacity(self, tier: Optional[NodeTier] = None) -> ResourceVector:
        """Aggregate capacity, optionally restricted to one tier."""
        if not self._nodes:
            return ResourceVector.zero()
        ledger = self.ledger
        return ResourceVector.from_array(
            ledger.node_capacity[self._tier_mask(tier)].sum(axis=0)
        )

    def total_used(self, tier: Optional[NodeTier] = None) -> ResourceVector:
        """Aggregate used resources, optionally restricted to one tier."""
        if not self._nodes:
            return ResourceVector.zero()
        ledger = self.ledger
        return ResourceVector.from_array(
            ledger.node_used[self._tier_mask(tier)].sum(axis=0)
        )

    def mean_node_utilization(self, tier: Optional[NodeTier] = None) -> float:
        """Mean of per-node bottleneck utilizations."""
        if not self._nodes:
            return 0.0
        values = self.ledger.max_utilization()[self._tier_mask(tier)]
        return float(values.mean()) if values.size else 0.0

    def utilization_imbalance(self, tier: Optional[NodeTier] = None) -> float:
        """Standard deviation of per-node utilizations (load-balance metric)."""
        if not self._nodes:
            return 0.0
        values = self.ledger.max_utilization()[self._tier_mask(tier)]
        return float(values.std()) if values.size else 0.0

    def compute_cost_rate(self) -> float:
        """Instantaneous cost rate of all node and link allocations."""
        if not self._nodes:
            return 0.0
        return self.ledger.cost_rate()

    def snapshot(self) -> Dict[str, object]:
        """A JSON-friendly summary of the whole substrate."""
        ledger = self.ledger
        available = np.maximum(ledger.node_capacity - ledger.node_used, 0.0)
        max_utilization = ledger.max_utilization()
        nodes = [
            {
                **node.snapshot(),
                "used": ResourceVector.from_array(ledger.node_used[row]).as_dict(),
                "available": ResourceVector.from_array(available[row]).as_dict(),
                "allocations": len(ledger.node_records[row]),
                "max_utilization": float(max_utilization[row]),
            }
            for row, node in enumerate(self._nodes.values())
        ]
        return {
            "num_nodes": self.num_nodes,
            "num_edge_nodes": len(self.edge_node_ids),
            "num_cloud_nodes": len(self.cloud_node_ids),
            "num_links": self.num_links,
            "mean_edge_utilization": self.mean_node_utilization(NodeTier.EDGE),
            "utilization_imbalance": self.utilization_imbalance(NodeTier.EDGE),
            "cost_rate": self.compute_cost_rate(),
            "nodes": nodes,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SubstrateNetwork(nodes={self.num_nodes}, links={self.num_links}, "
            f"edges={len(self.edge_node_ids)}, clouds={len(self.cloud_node_ids)})"
        )
