"""The placement lifecycle: commit, depart, fail, recover and fence.

:class:`PlacementLifecycle` is the bookkeeping that the discrete-event
:class:`~repro.sim.simulation.NFVSimulation` and the
:class:`~repro.serving.service.OnlinePlacementService` share.  A failed node
or link is *fenced*: its remaining capacity or bandwidth is reserved under a
failure handle, so no placement can use it until it recovers, and capacity a
release frees on a fenced component is folded back into the fence.

The fencing primitives are module-level, so the reference
:class:`~repro.core.env.VNFPlacementEnv` fences with the same semantics.
They work on the network's :class:`~repro.substrate.ledger.SubstrateLedger`
rows and slots, the only usage state of the substrate.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.nfv.placement import Placement, PlacementError
from repro.substrate.link import canonical_endpoints
from repro.substrate.network import SubstrateNetwork


# --------------------------------------------------------------------------- #
# Capacity fencing primitives
# --------------------------------------------------------------------------- #
_NODE_FENCE_PREFIX = "fence:node:"
_LINK_FENCE_PREFIX = "fence:link:"


def node_fence_handle(node_id: int) -> str:
    """The allocation handle a failed node's fence reserves capacity under."""
    return f"{_NODE_FENCE_PREFIX}{node_id}"


def link_fence_handle(endpoints: Tuple[int, int]) -> str:
    """The reservation handle a failed link's fence reserves bandwidth under."""
    u, v = canonical_endpoints(*endpoints)
    return f"{_LINK_FENCE_PREFIX}{u}:{v}"


def refresh_node_fence(network: SubstrateNetwork, node_id: int) -> None:
    """(Re)size a node's failure fence to consume all of its free capacity.

    Idempotent: releases any existing fence first, then reserves whatever is
    free.  Keeps the invariant "a failed node has zero available capacity"
    even when capacity is freed on an already-fenced node.
    """
    ledger = network.ledger
    row = ledger.node_row[node_id]
    handle = node_fence_handle(node_id)
    if handle in ledger.node_records[row]:
        ledger.release_node(row, handle)
    remaining = np.maximum(ledger.node_capacity[row] - ledger.node_used[row], 0.0)
    if remaining[0] + remaining[1] + remaining[2] > 1e-12:
        ledger.allocate_node(row, handle, remaining)


def release_node_fence(network: SubstrateNetwork, node_id: int) -> None:
    """Drop a node's failure fence (no-op when the node holds none)."""
    ledger = network.ledger
    row = ledger.node_row[node_id]
    handle = node_fence_handle(node_id)
    if handle in ledger.node_records[row]:
        ledger.release_node(row, handle)


def refresh_link_fence(network: SubstrateNetwork, endpoints: Tuple[int, int]) -> None:
    """(Re)size a link's failure fence to consume all of its free bandwidth.

    The bandwidth analogue of :func:`refresh_node_fence`: a failed link must
    never offer placeable bandwidth, even when reservations on it are released
    mid-failure.
    """
    ledger = network.ledger
    slot = ledger.edge_index[canonical_endpoints(*endpoints)]
    handle = link_fence_handle(endpoints)
    if handle in ledger.link_records[slot]:
        ledger.release_link(slot, handle)
    remaining = max(0.0, ledger.link_capacity[slot] - ledger.link_used[slot])
    if remaining > 0.0:
        ledger.reserve_link(slot, handle, remaining)


def release_link_fence(network: SubstrateNetwork, endpoints: Tuple[int, int]) -> None:
    """Drop a link's failure fence (no-op when the link holds none)."""
    ledger = network.ledger
    slot = ledger.edge_index[canonical_endpoints(*endpoints)]
    handle = link_fence_handle(endpoints)
    if handle in ledger.link_records[slot]:
        ledger.release_link(slot, handle)


def placement_traverses_link(
    placement: Placement, endpoints: Tuple[int, int], network: SubstrateNetwork
) -> bool:
    """True when any routed segment of ``placement`` crosses ``endpoints``."""
    topology = network.topology
    slot = topology.edge_index.get(canonical_endpoints(*endpoints))
    return slot in placement.compiled(topology).traversals


# --------------------------------------------------------------------------- #
# The lifecycle
# --------------------------------------------------------------------------- #
class PlacementLifecycle:
    """The active placements on one substrate and its fenced components.

    ``active`` maps request id → committed placement in commit order, the
    order failures evict in; ``failed_links`` holds canonical endpoints.
    """

    def __init__(self, network: SubstrateNetwork) -> None:
        self.network = network
        self.active: Dict[int, Placement] = {}
        self.failed_nodes: set[int] = set()
        self.failed_links: set[Tuple[int, int]] = set()

    def commit(self, request_id: int, placement: Placement) -> Optional[str]:
        """Re-validate and commit ``placement``: ``None``, or why it was rejected.

        A decision that raced a failure or departure is rejected here instead
        of corrupting capacity accounting.
        """
        if not placement.is_feasible(self.network):
            return "infeasible_placement"
        try:
            placement.commit(self.network)
        except PlacementError:
            return "commit_failed"
        self.active[request_id] = placement
        return None

    def depart(self, request_id: int) -> None:
        """Release a departing placement (no-op when it was evicted earlier)."""
        placement = self.active.pop(request_id, None)
        if placement is not None:
            self._release(placement)

    def fail_node(self, node_id: int) -> Optional[List[Placement]]:
        """Evict every placement hosted on ``node_id``, then fence the node.

        Returns the evicted placements, or ``None`` for a duplicate failure.
        """
        if node_id in self.failed_nodes:
            return None
        self.failed_nodes.add(node_id)
        evicted = self._evict(lambda placement: node_id in placement.node_assignment)
        refresh_node_fence(self.network, node_id)
        return evicted

    def recover_node(self, node_id: int) -> bool:
        """Lift a failed node's fence; ``False`` when the node is not failed."""
        if node_id not in self.failed_nodes:
            return False
        self.failed_nodes.discard(node_id)
        release_node_fence(self.network, node_id)
        return True

    def fail_link(self, endpoints: Tuple[int, int]) -> Optional[List[Placement]]:
        """Evict every placement routed across ``endpoints``, then fence the link.

        Returns the evicted placements, or ``None`` for a duplicate failure
        or a link the substrate does not have.
        """
        endpoints = canonical_endpoints(*endpoints)
        if endpoints in self.failed_links or not self.network.has_link(*endpoints):
            return None
        self.failed_links.add(endpoints)
        network = self.network
        evicted = self._evict(
            lambda placement: placement_traverses_link(placement, endpoints, network)
        )
        refresh_link_fence(self.network, endpoints)
        return evicted

    def recover_link(self, endpoints: Tuple[int, int]) -> bool:
        """Lift a failed link's fence; ``False`` when the link is not failed."""
        endpoints = canonical_endpoints(*endpoints)
        if endpoints not in self.failed_links:
            return False
        self.failed_links.discard(endpoints)
        release_link_fence(self.network, endpoints)
        return True

    def release_fences(self) -> None:
        """Lift every fence, e.g. to reuse a network a run left with failures."""
        for node_id in sorted(self.failed_nodes):
            release_node_fence(self.network, node_id)
        self.failed_nodes.clear()
        for endpoints in sorted(self.failed_links):
            release_link_fence(self.network, endpoints)
        self.failed_links.clear()

    def clear(self) -> None:
        """Forget every placement and failure (after a network reset)."""
        self.active.clear()
        self.failed_nodes.clear()
        self.failed_links.clear()

    def _evict(self, hit: Callable[[Placement], bool]) -> List[Placement]:
        victims = [
            (request_id, placement)
            for request_id, placement in self.active.items()
            if hit(placement)
        ]
        for request_id, placement in victims:
            del self.active[request_id]
            self._release(placement)
        return [placement for _, placement in victims]

    def _release(self, placement: Placement) -> None:
        if placement.is_committed:
            placement.release(self.network)
        # The release may have freed capacity on components that are already
        # fenced — fold it back into the fences.
        for node_id in set(placement.node_assignment) & self.failed_nodes:
            refresh_node_fence(self.network, node_id)
        for endpoints in self.failed_links:
            if placement_traverses_link(placement, endpoints, self.network):
                refresh_link_fence(self.network, endpoints)
