"""Scalar usage readers and per-node references of the encoder, the action mask
and feasibility (test oracles).

The readers (:func:`node_used`, :func:`node_available`, :func:`node_can_host`,
:func:`node_utilization`, :func:`node_max_utilization`, :func:`link_used`,
:func:`link_available` and :func:`link_can_carry`) answer one node or link at
a time from its ledger row or slot, with the scalar float arithmetic of a
single fit check.

Each reference function is the loop over nodes and links that the batched
production method replaced: :func:`encode_reference` for
``StateEncoder.encode``, :func:`valid_mask_reference` for
``ActionSpace.valid_mask`` and :func:`is_feasible_reference` for
``Placement.is_feasible``.  They call the scalar readers and
``SubstrateNetwork.latency_between`` one node or link at a time, where
production reads whole ledger columns and the all-pairs latency matrix.
``tests/test_substrate_vectorized.py`` asserts that both sides agree through
whole episodes on random topologies.

:func:`check_reference`, :func:`commit_reference` and
:func:`release_reference` are ``Placement.is_feasible``, ``commit`` and
``release`` as they ran before placements compiled: every call regroups the
demands, looks up the link slots and goes through the per-VNF and
per-hop network primitives.  ``tests/test_ledger.py`` drives them and the
compiled path on twin networks and asserts bitwise-equal ledgers.

:func:`route_reference` derives a route the way the per-network path memos
did before the topology's route table replaced them: the canonical next-hop
walk and its reversal, the link slots of :func:`path_slots` and their
summed cost.  ``tests/test_substrate_vectorized.py`` holds every table entry
to it with ``==``.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.action import ActionSpace
from repro.core.state import NODE_FEATURES, StateEncoder
from repro.nfv.placement import Placement, PlacementError
from repro.nfv.sfc import SFCRequest
from repro.substrate.link import InsufficientBandwidthError, canonical_endpoints
from repro.substrate.network import NoRouteError, SubstrateNetwork, UnknownNodeError
from repro.substrate.node import InsufficientCapacityError
from repro.substrate.resources import RESOURCE_DIMENSIONS, ResourceVector, aggregate


# --------------------------------------------------------------------------- #
# Routes as the per-network path memos derived them
# --------------------------------------------------------------------------- #
def path_slots(network: SubstrateNetwork, nodes: Sequence[int]) -> np.ndarray:
    """Ledger slots of the links along a node sequence, in traversal order."""
    edge_index = network.ledger.edge_index
    return np.array(
        [
            edge_index[canonical_endpoints(nodes[i], nodes[i + 1])]
            for i in range(len(nodes) - 1)
        ],
        dtype=np.int64,
    )


def route_reference(
    network: SubstrateNetwork, source: int, target: int
) -> Tuple[Tuple[int, ...], float, List[int], float]:
    """(nodes, latency, link slots, cost per Mbps) of the route ``source -> target``.

    The walk follows the next-hop table from ``min(source, target)`` to
    ``max(source, target)`` and is reversed when ``source > target``; the
    latency is the matrix entry of that canonical pair, and the cost is
    ``float(link_cost[slots].sum())`` over the slots in traversal order.
    """
    topology = network.topology
    row = topology.node_row
    for node_id in (source, target):
        if node_id not in row:
            raise UnknownNodeError(f"unknown node id {node_id}")
    if source == target:
        return (source,), 0.0, [], 0.0
    low, high = min(source, target), max(source, target)
    i, j = row[low], row[high]
    if topology.next_hop[i, j] < 0:
        raise NoRouteError(f"no route between {source} and {target}")
    hops = topology.next_hop[:, j]
    nodes = [low]
    while i != j:
        i = int(hops[i])
        nodes.append(topology.node_ids[i])
    if source > target:
        nodes.reverse()
    latency = float(topology.latency[row[low], row[high]])
    slots = path_slots(network, nodes)
    cost = float(topology.link_cost[slots].sum()) if slots.size else 0.0
    return tuple(nodes), latency, slots.tolist(), cost


# --------------------------------------------------------------------------- #
# Scalar usage readers over ledger rows and slots
# --------------------------------------------------------------------------- #
def _row(network: SubstrateNetwork, node_id: int) -> Tuple[np.ndarray, np.ndarray]:
    ledger = network.ledger
    row = ledger.node_row[node_id]
    return ledger.node_used[row], ledger.node_capacity[row]


def node_used(network: SubstrateNetwork, node_id: int) -> ResourceVector:
    """Resources currently allocated on ``node_id``."""
    return ResourceVector.from_array(_row(network, node_id)[0])


def node_available(network: SubstrateNetwork, node_id: int) -> ResourceVector:
    """Resources still free on ``node_id``, clamped at zero."""
    used, capacity = _row(network, node_id)
    return ResourceVector.from_array(np.maximum(capacity - used, 0.0))


def node_can_host(
    network: SubstrateNetwork, node_id: int, demand: ResourceVector, tol: float = 1e-9
) -> bool:
    """True when ``demand`` fits in the free capacity of ``node_id``."""
    used, capacity = _row(network, node_id)
    return bool(
        used[0] + demand.cpu <= capacity[0] + tol
        and used[1] + demand.memory <= capacity[1] + tol
        and used[2] + demand.storage <= capacity[2] + tol
    )


def node_utilization(network: SubstrateNetwork, node_id: int) -> Dict[str, float]:
    """Per-dimension utilization ratios (0.0 in a zero-capacity dimension)."""
    used, capacity = _row(network, node_id)
    return {
        dim: (float(used[i] / capacity[i]) if capacity[i] > 0 else 0.0)
        for i, dim in enumerate(RESOURCE_DIMENSIONS)
    }


def node_max_utilization(network: SubstrateNetwork, node_id: int) -> float:
    """The bottleneck (largest-dimension) utilization ratio of ``node_id``."""
    return max(node_utilization(network, node_id).values())


def _slot(network: SubstrateNetwork, u: int, v: int) -> Tuple[float, float]:
    ledger = network.ledger
    slot = ledger.edge_index[network.link(u, v).endpoints]
    return float(ledger.link_used[slot]), float(ledger.link_capacity[slot])


def link_used(network: SubstrateNetwork, u: int, v: int) -> float:
    """Bandwidth currently reserved on the link ``u``–``v`` (Mbps)."""
    return _slot(network, u, v)[0]


def link_available(network: SubstrateNetwork, u: int, v: int) -> float:
    """Bandwidth still free on the link ``u``–``v`` (Mbps), clamped at zero."""
    used, capacity = _slot(network, u, v)
    return max(0.0, capacity - used)


def link_can_carry(
    network: SubstrateNetwork, u: int, v: int, bandwidth: float
) -> bool:
    """True when ``bandwidth`` Mbps fits in the free capacity of ``u``–``v``."""
    return bandwidth <= link_available(network, u, v) + 1e-9


# --------------------------------------------------------------------------- #
# Per-node references of the batched encoder, mask and feasibility check
# --------------------------------------------------------------------------- #
def encode_reference(
    encoder: StateEncoder,
    request: SFCRequest,
    vnf_index: int,
    partial_assignment: Sequence[int],
    partial_latency_ms: float,
) -> np.ndarray:
    """The original per-node encoding loop of ``StateEncoder.encode``."""
    if not 0 <= vnf_index < request.num_vnfs:
        raise ValueError(
            f"vnf_index {vnf_index} outside the chain of length {request.num_vnfs}"
        )
    next_vnf = request.chain.vnf_at(vnf_index)
    demand = next_vnf.demand_for(request.bandwidth_mbps)
    anchor = encoder.anchor_node(request, partial_assignment)
    sla = request.sla.max_latency_ms

    features = np.zeros(encoder.state_dim, dtype=float)
    offset = 0
    network = encoder.network
    for node_id in encoder.node_order:
        utilization = node_utilization(network, node_id)
        latency = network.latency_between(anchor, node_id)
        features[offset + 0] = min(1.0, utilization["cpu"])
        features[offset + 1] = min(1.0, utilization["memory"])
        features[offset + 2] = min(1.0, latency / sla)
        features[offset + 3] = 1.0 if node_can_host(network, node_id, demand) else 0.0
        offset += NODE_FEATURES

    one_hot_offset = offset + encoder.catalog.index_of(next_vnf.name)
    features[one_hot_offset] = 1.0
    offset += len(encoder.catalog)
    encoder._write_request_scalars(
        features, offset, request, vnf_index, partial_latency_ms, sla
    )
    return features


def valid_mask_reference(
    actions: ActionSpace,
    request: SFCRequest,
    vnf_index: int,
    partial_assignment: Sequence[int],
    partial_latency_ms: float,
    latency_check: bool = True,
) -> np.ndarray:
    """The original per-node masking loop of ``ActionSpace.valid_mask``."""
    next_vnf = request.chain.vnf_at(vnf_index)
    demand = next_vnf.demand_for(request.bandwidth_mbps)
    anchor = (
        partial_assignment[-1] if partial_assignment else request.source_node_id
    )
    budget = request.sla.max_latency_ms

    mask = np.zeros(actions.num_actions, dtype=bool)
    mask[actions.reject_action] = True
    for index, node_id in enumerate(actions.node_order):
        if not node_can_host(actions.network, node_id, demand):
            continue
        if latency_check:
            added = (
                actions.network.latency_between(anchor, node_id)
                + next_vnf.processing_delay_ms
            )
            if partial_latency_ms + added > budget:
                continue
        mask[index] = True
    return mask


def _vnf_demands(placement: Placement) -> List[Tuple[int, ResourceVector]]:
    """(node id, demand) per VNF in chain order, from its type and bandwidth."""
    bandwidth = placement.request.bandwidth_mbps
    return [
        (node_id, vnf_type.demand_for(bandwidth))
        for node_id, vnf_type in zip(
            placement.node_assignment, placement.request.chain.vnf_types
        )
    ]


def is_feasible_reference(placement: Placement, network: SubstrateNetwork) -> bool:
    """The original object-by-object check of ``Placement.is_feasible``."""
    grouped: Dict[int, List[ResourceVector]] = {}
    for node_id, demand in _vnf_demands(placement):
        grouped.setdefault(node_id, []).append(demand)
    for node_id, demands in grouped.items():
        if not node_can_host(network, node_id, aggregate(demands)):
            return False
    bandwidth = placement.request.bandwidth_mbps
    # A link shared by several segments must carry each traversal.
    link_load: Dict[Tuple[int, int], float] = {}
    for path in placement.paths:
        for endpoints in path.links():
            link_load[endpoints] = link_load.get(endpoints, 0.0) + bandwidth
    for endpoints, load in link_load.items():
        if not link_can_carry(network, *endpoints, load):
            return False
    return placement.satisfies_sla(network)


# --------------------------------------------------------------------------- #
# Per-call references of the compiled check, commit and release
# --------------------------------------------------------------------------- #
def check_reference(placement: Placement, network: SubstrateNetwork) -> bool:
    """``Placement.is_feasible`` re-deriving rows, demands and slots per call."""
    ledger = network.ledger
    grouped: Dict[int, np.ndarray] = {}
    for node_id, vector in _vnf_demands(placement):
        demand = vector.as_array()
        row = ledger.node_row[node_id]
        grouped[row] = grouped[row] + demand if row in grouped else demand
    if grouped:
        rows = np.fromiter(grouped.keys(), dtype=np.int64, count=len(grouped))
        demands = np.stack(list(grouped.values()))
        free = ledger.node_capacity[rows] - ledger.node_used[rows]
        if not bool(np.all(demands <= free + 1e-9)):
            return False
    bandwidth = placement.request.bandwidth_mbps
    traversals: Dict[int, int] = {}
    for path in placement.paths:
        for slot in path_slots(network, path.nodes).tolist():
            traversals[slot] = traversals.get(slot, 0) + 1
    for slot, count in traversals.items():
        if count * bandwidth > ledger.link_capacity[slot] - ledger.link_used[slot] + 1e-9:
            return False
    return placement.request.sla.is_satisfied(
        placement.end_to_end_latency_ms(), placement.availability(network)
    )


def _vnf_handle(placement: Placement, index: int) -> str:
    return f"req:{placement.request.request_id}:vnf:{index}"


def _segment_handle(placement: Placement, index: int) -> str:
    return f"req:{placement.request.request_id}:seg:{index}"


def commit_reference(placement: Placement, network: SubstrateNetwork) -> None:
    """``Placement.commit`` through one primitive call per VNF and segment.

    A capacity, bandwidth or route error rolls back what was reserved, paths
    then nodes in commit order, and raises :class:`PlacementError`; any other
    error (such as a handle the substrate already holds) escapes unrolled.
    """
    request = placement.request
    if placement.is_committed:
        raise PlacementError(
            f"placement for request {request.request_id} is already committed"
        )
    committed_nodes: List[Tuple[int, str]] = []
    committed_paths: List[Tuple[Tuple[int, ...], str]] = []
    try:
        for index, (node_id, demand) in enumerate(_vnf_demands(placement)):
            handle = _vnf_handle(placement, index)
            network.allocate_node(node_id, handle, demand)
            committed_nodes.append((node_id, handle))
        for index, path in enumerate(placement.paths):
            handle = _segment_handle(placement, index)
            network.allocate_path(path.nodes, handle, request.bandwidth_mbps)
            committed_paths.append((path.nodes, handle))
    except (InsufficientCapacityError, InsufficientBandwidthError, NoRouteError) as exc:
        for nodes, handle in committed_paths:
            network.release_path(nodes, handle)
        for node_id, handle in committed_nodes:
            network.release_node(node_id, handle)
        raise PlacementError(
            f"placement for request {request.request_id} is infeasible: {exc}"
        ) from exc
    placement._committed = True


def release_reference(placement: Placement, network: SubstrateNetwork) -> None:
    """``Placement.release`` through one primitive call per segment and VNF."""
    if not placement.is_committed:
        raise PlacementError(
            f"placement for request {placement.request.request_id} is not committed"
        )
    for index, path in enumerate(placement.paths):
        network.release_path(path.nodes, _segment_handle(placement, index))
    for index, node_id in enumerate(placement.node_assignment):
        network.release_node(node_id, _vnf_handle(placement, index))
    placement._committed = False
