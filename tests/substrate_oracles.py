"""Per-object references of the encoder, the action mask and feasibility (test oracles).

Each function is the loop over node and link objects that the batched
production method replaced: :func:`encode_reference` for
``StateEncoder.encode``, :func:`valid_mask_reference` for
``ActionSpace.valid_mask`` and :func:`is_feasible_reference` for
``Placement.is_feasible``.  They ask ``ComputeNode.utilization`` /
``can_host``, ``Link.can_carry`` and ``SubstrateNetwork.latency_between``
one object at a time, where production reads the ledger arrays and the
all-pairs latency matrix.  ``tests/test_substrate_vectorized.py`` asserts
that both sides agree through whole episodes on random topologies.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.core.action import ActionSpace
from repro.core.state import NODE_FEATURES, StateEncoder
from repro.nfv.placement import Placement
from repro.nfv.sfc import SFCRequest
from repro.nfv.vnf import VNFInstance
from repro.substrate.network import SubstrateNetwork
from repro.substrate.resources import aggregate


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
    for node_id in encoder.node_order:
        node = encoder.network.node(node_id)
        utilization = node.utilization()
        latency = encoder.network.latency_between(anchor, node_id)
        features[offset + 0] = min(1.0, utilization["cpu"])
        features[offset + 1] = min(1.0, utilization["memory"])
        features[offset + 2] = min(1.0, latency / sla)
        features[offset + 3] = 1.0 if node.can_host(demand) else 0.0
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
        node = actions.network.node(node_id)
        if not node.can_host(demand):
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


def _aggregated_node_demand(placement: Placement) -> Dict[int, List[VNFInstance]]:
    grouped: Dict[int, List[VNFInstance]] = {}
    for instance in placement.instances:
        grouped.setdefault(instance.node_id, []).append(instance)
    return grouped


def is_feasible_reference(placement: Placement, network: SubstrateNetwork) -> bool:
    """The original object-by-object check of ``Placement.is_feasible``."""
    for node_id, instances in _aggregated_node_demand(placement).items():
        demand = aggregate(inst.demand for inst in instances)
        if not network.node(node_id).can_host(demand):
            return False
    bandwidth = placement.request.bandwidth_mbps
    # A link shared by several segments must carry each traversal.
    link_load: Dict[Tuple[int, int], float] = {}
    for segment in placement.segments:
        for endpoints in segment.path.links():
            link_load[endpoints] = link_load.get(endpoints, 0.0) + bandwidth
    for endpoints, load in link_load.items():
        if not network.link(*endpoints).can_carry(load):
            return False
    return placement.satisfies_sla(network)
