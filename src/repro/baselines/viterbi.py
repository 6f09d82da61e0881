"""Dynamic-programming (Viterbi-style) chain embedding.

For one request the chain-embedding problem over latency decomposes by VNF
position, so the minimum-latency assignment can be computed exactly with a
Viterbi pass over (VNF position × candidate node).  A configurable node cost
term trades latency against hosting cost and load, which makes this the
strongest non-learning baseline in the comparison — it optimizes each request
exactly, but myopically (it never sacrifices the current request for future
ones, which is precisely what the DRL policy learns to do).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.baselines.common import AssignmentPolicy, DecisionRows, candidate_rows
from repro.baselines.greedy import bottleneck_utilization, hosting_cost
from repro.nfv.sfc import SFCRequest
from repro.substrate.network import SubstrateNetwork
from repro.utils.validation import check_non_negative


class ViterbiPlacementPolicy(AssignmentPolicy):
    """Per-request optimal chain embedding by dynamic programming.

    The per-transition weight is ``latency(u → v) + processing_delay`` plus
    ``cost_weight`` times the hosting cost of the VNF on ``v`` (normalized)
    plus ``load_weight`` times the utilization of ``v``.  When the request
    names a destination, the last VNF's node also pays the egress latency to
    it, as :meth:`~repro.nfv.placement.Placement.end_to_end_latency_ms` does.
    """

    name = "viterbi"

    def __init__(
        self,
        cost_weight: float = 0.0,
        load_weight: float = 0.0,
        cost_normalizer: float = 200.0,
    ) -> None:
        check_non_negative(cost_weight, "cost_weight")
        check_non_negative(load_weight, "load_weight")
        if cost_normalizer <= 0:
            raise ValueError("cost_normalizer must be positive")
        self.cost_weight = cost_weight
        self.load_weight = load_weight
        self.cost_normalizer = cost_normalizer

    def _node_costs(self, request: SFCRequest, network: SubstrateNetwork) -> np.ndarray:
        """``(L, N)`` cost and load terms of hosting each VNF on each ledger row.

        Nothing commits while a request is planned, so one evaluation over
        the chain's ``(L, 3)`` demands serves every VNF of it.
        """
        rows = DecisionRows(
            network.ledger, None, request.chain.demand_rows, request.holding_time
        )
        max_latency = request.sla.max_latency_ms
        return (
            self.cost_weight * hosting_cost(rows) / self.cost_normalizer * max_latency
            + self.load_weight * bottleneck_utilization(rows) * max_latency
        )

    def plan_assignment(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Tuple[int, ...]]:
        candidate_sets = candidate_rows(request, network)
        if candidate_sets is None:
            return None
        ledger = network.ledger
        latency = network.latency_matrix
        node_costs = self._node_costs(request, network)

        # Viterbi forward pass: best[j] = minimum accumulated weight of
        # placing VNFs 0..k with VNF k on row candidate_sets[k][j].  The
        # request's source is the single "previous" row of VNF 0.
        previous = [ledger.node_row[request.source_node_id]]
        best = np.zeros(1)
        backpointers: List[np.ndarray] = []
        delays = [vnf.processing_delay_ms for vnf in request.chain.vnf_types]
        for vnf_index, current in enumerate(candidate_sets):
            transition = (
                latency[previous][:, current]
                + delays[vnf_index]
                + node_costs[vnf_index, current]
            )
            totals = best[:, None] + transition
            backpointers.append(totals.argmin(axis=0))
            best = totals.min(axis=0)
            previous = current

        destination = request.destination_node_id
        if destination is not None:
            best = best + latency[previous, ledger.node_row[destination]]

        # Backtrack the minimizing assignment (the source layer has one row).
        index = int(np.argmin(best))
        chosen = []
        for current, pointer in zip(reversed(candidate_sets), reversed(backpointers)):
            chosen.append(ledger.node_ids[current[index]])
            index = int(pointer[index])
        return tuple(reversed(chosen))
