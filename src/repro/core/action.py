"""The action space of the VNF-placement MDP.

One action per substrate node ("host the next VNF here") plus an explicit
REJECT action.  The action space also computes validity masks: a node action
is valid only when the node can host the next VNF's demand and when routing
to it does not already blow the request's latency budget (a cheap,
admissible pre-check — the full feasibility check happens at commit time).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.nfv.sfc import SFCRequest
from repro.substrate.ledger import LedgerRowCache
from repro.substrate.network import SubstrateNetwork


class ActionSpace:
    """Maps discrete action indices to placement decisions."""

    def __init__(self, network: SubstrateNetwork, node_order: Optional[Sequence[int]] = None) -> None:
        self.network = network
        self.node_order: List[int] = list(node_order or network.node_ids)
        if not self.node_order:
            raise ValueError("cannot build an action space over an empty network")
        self._row_cache = LedgerRowCache(self.node_order)

    # ------------------------------------------------------------------ #
    # Sizes and conversions
    # ------------------------------------------------------------------ #
    @property
    def num_actions(self) -> int:
        """Number of discrete actions (nodes + reject)."""
        return len(self.node_order) + 1

    @property
    def reject_action(self) -> int:
        """The index of the explicit reject action."""
        return len(self.node_order)

    def is_reject(self, action: int) -> bool:
        """True when ``action`` is the reject action."""
        return action == self.reject_action

    def node_for_action(self, action: int) -> int:
        """The substrate node id selected by ``action``."""
        if not 0 <= action < self.reject_action:
            raise ValueError(
                f"action {action} is not a node action (0..{self.reject_action - 1})"
            )
        return self.node_order[action]

    def action_for_node(self, node_id: int) -> int:
        """The action index that places the next VNF on ``node_id``."""
        try:
            return self.node_order.index(node_id)
        except ValueError as exc:
            raise ValueError(f"node {node_id} is not part of the action space") from exc

    # ------------------------------------------------------------------ #
    # Validity masks
    # ------------------------------------------------------------------ #
    def valid_mask(
        self,
        request: SFCRequest,
        vnf_index: int,
        partial_assignment: Sequence[int],
        partial_latency_ms: float,
        latency_check: bool = True,
    ) -> np.ndarray:
        """Boolean mask over actions for placing VNF ``vnf_index``.

        The reject action is always valid.  A node action is valid when the
        node has the free capacity for the next VNF's demand and — when
        ``latency_check`` is enabled — when routing from the current anchor to
        that node plus the VNF's processing delay still fits the SLA.

        The whole mask is one batched array expression over the substrate
        ledger and latency matrix.
        """
        next_vnf = request.chain.vnf_at(vnf_index)
        demand = request.chain.demand_rows[vnf_index]
        anchor = (
            partial_assignment[-1] if partial_assignment else request.source_node_id
        )
        budget = request.sla.max_latency_ms

        ledger, rows = self._row_cache.get(self.network)
        valid = ledger.can_host_all(demand)
        if not self._row_cache.identity:
            valid = valid[rows]
        if latency_check:
            latency = self.network.latency_row(anchor)
            if not self._row_cache.identity:
                latency = latency[rows]
            # Non-inplace combine: can_host_all returns a memoized read-only
            # array that must not be clobbered.
            valid = valid & (
                latency + (next_vnf.processing_delay_ms + partial_latency_ms)
                <= budget
            )
        mask = np.empty(self.num_actions, dtype=bool)
        mask[: self.reject_action] = valid
        mask[self.reject_action] = True
        return mask
