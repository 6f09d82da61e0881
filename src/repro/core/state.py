"""State encoding for the VNF-placement MDP.

The encoder turns (substrate network, pending request, progress within the
request's chain) into a fixed-width feature vector.  All features are
normalized to roughly [0, 1] so that the same network architecture and
hyperparameters work across topology sizes, and so that the tabular baseline
can discretize the state meaningfully.

Per substrate node (4 features):

* CPU utilization,
* memory utilization,
* latency from the current anchor (the previous VNF's host, or the request's
  ingress node for the first VNF), normalized by the request's SLA, capped at 1,
* a binary "can host the next VNF" flag.

Per request (catalog one-hot + 5 scalars):

* one-hot of the next VNF type to place,
* remaining chain length / maximum chain length,
* bandwidth / bandwidth normalizer,
* fraction of the latency SLA already consumed,
* holding time / holding-time normalizer,
* fraction of the chain already placed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.nfv.catalog import VNFCatalog
from repro.nfv.sfc import SFCRequest
from repro.substrate.ledger import LedgerRowCache
from repro.substrate.network import SubstrateNetwork
from repro.utils.validation import check_positive

#: Number of features encoded per substrate node.
NODE_FEATURES = 4

#: Number of scalar (non-one-hot) request features.
REQUEST_SCALARS = 5


@dataclass(frozen=True)
class EncoderConfig:
    """Normalization constants of the state encoder."""

    max_chain_length: int = 6
    bandwidth_normalizer_mbps: float = 400.0
    holding_time_normalizer: float = 600.0

    def __post_init__(self) -> None:
        check_positive(self.max_chain_length, "max_chain_length")
        check_positive(self.bandwidth_normalizer_mbps, "bandwidth_normalizer_mbps")
        check_positive(self.holding_time_normalizer, "holding_time_normalizer")


class StateEncoder:
    """Encodes placement-decision states for a fixed topology and catalog."""

    def __init__(
        self,
        network: SubstrateNetwork,
        catalog: VNFCatalog,
        config: Optional[EncoderConfig] = None,
    ) -> None:
        self.network = network
        self.catalog = catalog
        self.config = config or EncoderConfig()
        #: Node ids in the fixed order used by both the encoder and the action space.
        self.node_order: List[int] = list(network.node_ids)
        if not self.node_order:
            raise ValueError("cannot encode states for an empty network")
        self._row_cache = LedgerRowCache(self.node_order)

    # ------------------------------------------------------------------ #
    # Dimensions
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of substrate nodes in the encoding."""
        return len(self.node_order)

    @property
    def state_dim(self) -> int:
        """Width of the encoded state vector."""
        return NODE_FEATURES * self.num_nodes + len(self.catalog) + REQUEST_SCALARS

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def anchor_node(
        self, request: SFCRequest, partial_assignment: Sequence[int]
    ) -> int:
        """The node traffic currently sits at: last placed VNF or the ingress."""
        if partial_assignment:
            return partial_assignment[-1]
        return request.source_node_id

    def encode(
        self,
        request: SFCRequest,
        vnf_index: int,
        partial_assignment: Sequence[int],
        partial_latency_ms: float,
    ) -> np.ndarray:
        """Encode the decision state for placing VNF ``vnf_index`` of ``request``.

        The whole node-feature block is built with batched array expressions
        (latency row = one matrix slice, utilization columns = ledger views).
        """
        if not 0 <= vnf_index < request.num_vnfs:
            raise ValueError(
                f"vnf_index {vnf_index} outside the chain of length {request.num_vnfs}"
            )
        next_vnf = request.chain.vnf_at(vnf_index)
        demand = request.chain.demand_rows[vnf_index]
        anchor = self.anchor_node(request, partial_assignment)
        sla = request.sla.max_latency_ms

        num_nodes = self.num_nodes
        features = np.zeros(self.state_dim, dtype=float)
        ledger, rows = self._row_cache.get(self.network)
        utilization = ledger.utilization_matrix()
        latency = self.network.latency_row(anchor)
        can_host = ledger.can_host_all(demand)
        if not self._row_cache.identity:
            utilization = utilization[rows]
            latency = latency[rows]
            can_host = can_host[rows]

        node_block = features[: NODE_FEATURES * num_nodes].reshape(
            num_nodes, NODE_FEATURES
        )
        np.minimum(utilization[:, 0], 1.0, out=node_block[:, 0])
        np.minimum(utilization[:, 1], 1.0, out=node_block[:, 1])
        np.minimum(latency / sla, 1.0, out=node_block[:, 2])
        node_block[:, 3] = can_host

        offset = NODE_FEATURES * num_nodes
        features[offset + self.catalog.index_of(next_vnf.name)] = 1.0
        offset += len(self.catalog)
        self._write_request_scalars(
            features, offset, request, vnf_index, partial_latency_ms, sla
        )
        return features

    def _write_request_scalars(
        self,
        features: np.ndarray,
        offset: int,
        request: SFCRequest,
        vnf_index: int,
        partial_latency_ms: float,
        sla: float,
    ) -> None:
        remaining = request.num_vnfs - vnf_index
        features[offset + 0] = min(1.0, remaining / self.config.max_chain_length)
        features[offset + 1] = min(
            1.0, request.bandwidth_mbps / self.config.bandwidth_normalizer_mbps
        )
        features[offset + 2] = min(1.0, partial_latency_ms / sla)
        features[offset + 3] = min(
            1.0, request.holding_time / self.config.holding_time_normalizer
        )
        features[offset + 4] = vnf_index / max(1, request.num_vnfs)

    def describe(self) -> List[str]:
        """Human-readable names of every feature (used in docs and tests)."""
        names: List[str] = []
        for node_id in self.node_order:
            names.extend(
                [
                    f"node{node_id}:cpu_util",
                    f"node{node_id}:mem_util",
                    f"node{node_id}:latency_to_anchor",
                    f"node{node_id}:can_host",
                ]
            )
        names.extend(f"vnf_onehot:{name}" for name in self.catalog.names)
        names.extend(
            [
                "request:remaining_vnfs",
                "request:bandwidth",
                "request:sla_consumed",
                "request:holding_time",
                "request:progress",
            ]
        )
        return names
