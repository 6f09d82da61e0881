"""The geo-distributed substrate network.

:class:`SubstrateNetwork` combines static
:class:`~repro.substrate.node.ComputeNode` and
:class:`~repro.substrate.link.Link` descriptions, keyed by node id and by
canonical link endpoints, with one
:class:`~repro.substrate.ledger.SubstrateLedger` that holds all usage.  It
provides the operations that placement policies and the discrete-event
simulator need:

* latency-weighted shortest-path routing between any two nodes, answered
  from one all-pairs latency matrix and next-hop table,
* feasibility-checked allocation/rollback of node resources and path
  bandwidth, addressed by node id and path and applied to ledger rows and
  link slots,
* utilization, cost and load-balance statistics, and
* cheap state snapshots used by the RL state encoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.substrate.geo import propagation_latency_ms
from repro.substrate.ledger import SubstrateLedger
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


class DenseRouting:
    """All-pairs latency matrix and next-hop table over a fixed topology.

    Built once per topology with a vectorized Floyd–Warshall sweep:
    ``latency[i, j]`` is the latency-shortest distance between the i-th and
    j-th node (``inf`` when disconnected) and ``next_hop[i, j]`` is the row
    index of the next node on that path (``-1`` when disconnected), so path
    reconstruction is a simple array walk with no graph traversal.
    """

    def __init__(self, network: "SubstrateNetwork") -> None:
        ids = list(network.node_ids)
        self.node_ids = ids
        self.index: Dict[int, int] = {node_id: i for i, node_id in enumerate(ids)}
        n = len(ids)
        latency = np.full((n, n), np.inf)
        next_hop = np.full((n, n), -1, dtype=np.int64)
        diag = np.arange(n)
        latency[diag, diag] = 0.0
        next_hop[diag, diag] = diag
        for link in network.links():
            u, v = link.endpoints
            i, j = self.index[u], self.index[v]
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

    def walk(self, source: int, target: int) -> Tuple[int, ...]:
        """Reconstruct the node-id sequence of the shortest path."""
        i, j = self.index[source], self.index[target]
        if self.next_hop[i, j] < 0:
            raise NoRouteError(f"no route between {source} and {target}")
        hops = self.next_hop[:, j]
        sequence = [source]
        while i != j:
            i = int(hops[i])
            sequence.append(self.node_ids[i])
        return tuple(sequence)


@dataclass(frozen=True)
class PathInfo:
    """A routed path with its aggregate latency."""

    nodes: Tuple[int, ...]
    latency_ms: float

    @property
    def hop_count(self) -> int:
        """Number of links traversed."""
        return max(0, len(self.nodes) - 1)

    def links(self) -> List[Tuple[int, int]]:
        """Canonical endpoint pairs of the links along the path."""
        return [
            canonical_endpoints(self.nodes[i], self.nodes[i + 1])
            for i in range(len(self.nodes) - 1)
        ]


class SubstrateNetwork:
    """A capacitated, latency-weighted graph of edge and cloud nodes."""

    def __init__(self) -> None:
        self._nodes: Dict[int, ComputeNode] = {}
        self._links: Dict[Tuple[int, int], Link] = {}
        #: Routed paths memoized under their canonical (min, max) id pair.
        self._path_cache: Dict[Tuple[int, int], PathInfo] = {}
        self._dense: Optional[DenseRouting] = None
        self._ledger: Optional[SubstrateLedger] = None
        self._edge_ids: Optional[Tuple[int, ...]] = None

    def _invalidate_topology_caches(self) -> None:
        """Drop every derived structure before a topology mutation.

        The rebuilt ledger starts empty, so the topology may change only
        while nothing is allocated.
        """
        ledger = self._ledger
        if ledger is not None and (any(ledger.node_records) or any(ledger.link_records)):
            raise RuntimeError("cannot change the topology while allocations are live")
        self._path_cache.clear()
        self._dense = None
        self._ledger = None
        self._edge_ids = None

    @property
    def ledger(self) -> SubstrateLedger:
        """The array-backed usage ledger (built lazily, empty after a rebuild)."""
        if self._ledger is None:
            self._ledger = SubstrateLedger(self)
        return self._ledger

    @property
    def dense_routing(self) -> DenseRouting:
        """The all-pairs latency matrix / next-hop table (built lazily)."""
        if self._dense is None:
            self._dense = DenseRouting(self)
        return self._dense

    @property
    def latency_matrix(self) -> np.ndarray:
        """All-pairs shortest-path latency matrix in ledger row order."""
        return self.dense_routing.latency

    def latency_row(self, node_id: int) -> np.ndarray:
        """Shortest-path latencies from ``node_id`` to every node (row view)."""
        dense = self.dense_routing
        try:
            return dense.latency[dense.index[node_id]]
        except KeyError as exc:
            raise UnknownNodeError(f"unknown node id {node_id}") from exc

    def prepare(self) -> "SubstrateNetwork":
        """Eagerly build the dense routing tables and the resource ledger.

        Topology generators call this once after construction so that the
        first ``env.step()`` does not pay the build cost.
        """
        self.dense_routing
        self.ledger
        return self

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    def add_node(self, node: ComputeNode) -> None:
        """Register a compute node.  Node ids must be unique."""
        if node.node_id in self._nodes:
            raise ValueError(f"node id {node.node_id} already present")
        self._invalidate_topology_caches()
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
        self._invalidate_topology_caches()
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
        """Ids of edge-tier nodes, in insertion order (memoized per topology)."""
        if self._edge_ids is None:
            self._edge_ids = tuple(
                nid for nid, node in self._nodes.items() if node.is_edge
            )
        return self._edge_ids

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
        """Latency-shortest path between two nodes.

        The path is reconstructed by walking the precomputed next-hop
        table.  Routed paths are memoized under the canonical ``(min, max)``
        id pair — the reverse orientation is a cheap tuple reversal, never a
        second cache entry.  Caches are invalidated whenever topology
        changes; bandwidth reservations do not change the latency metric so
        routing stays stable within an episode, matching the behaviour of
        latency-based routing in SDN controllers.
        """
        for node_id in (source, target):
            if node_id not in self._nodes:
                raise UnknownNodeError(f"unknown node id {node_id}")
        if source == target:
            return PathInfo(nodes=(source,), latency_ms=0.0)
        key = canonical_endpoints(source, target)
        cached = self._path_cache.get(key)
        if cached is None:
            dense = self.dense_routing
            nodes = dense.walk(*key)
            latency = float(dense.latency[dense.index[key[0]], dense.index[key[1]]])
            cached = PathInfo(nodes=nodes, latency_ms=latency)
            self._path_cache[key] = cached
        if source == key[0]:
            return cached
        return PathInfo(nodes=cached.nodes[::-1], latency_ms=cached.latency_ms)

    def latency_between(self, source: int, target: int) -> float:
        """Latency of the shortest path between two nodes.

        This is a single O(1) matrix lookup.
        """
        dense = self.dense_routing
        try:
            value = dense.latency[dense.index[source], dense.index[target]]
        except KeyError as exc:
            raise UnknownNodeError(f"unknown node id {exc.args[0]}") from exc
        if value == np.inf:
            raise NoRouteError(f"no route between {source} and {target}")
        return float(value)

    def path_available_bandwidth(self, nodes: Sequence[int]) -> float:
        """Bottleneck free bandwidth along an explicit node sequence."""
        if len(nodes) <= 1:
            return float("inf")
        return self.ledger.path_available_bandwidth(nodes)

    def path_can_carry(self, nodes: Sequence[int], bandwidth: float) -> bool:
        """True when every link along the path can carry ``bandwidth``."""
        return self.path_available_bandwidth(nodes) + 1e-9 >= bandwidth

    # ------------------------------------------------------------------ #
    # Allocation (nodes + paths) with rollback on partial failure
    # ------------------------------------------------------------------ #
    def _node_row(self, node_id: int) -> int:
        try:
            return self.ledger.node_row[node_id]
        except KeyError:
            raise UnknownNodeError(f"unknown node id {node_id}") from None

    def _link_slot(self, u: int, v: int) -> int:
        try:
            return self.ledger.edge_index[canonical_endpoints(u, v)]
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
