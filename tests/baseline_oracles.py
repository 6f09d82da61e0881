"""Per-node reference planners of the heuristic baselines (test oracles).

Each class subclasses its production policy and overrides only
``plan_assignment`` with a loop over nodes: ``hosting_candidates`` asks
``node_can_host`` of every node, scores come from one ``latency_between``,
``hosting_cost`` or scalar ledger reader (``tests/substrate_oracles.py``)
per candidate, and ``min()`` over the ordered candidate list breaks ties
(Viterbi also keeps its per-node ``_node_cost``).  The production planners score ledger rows instead;
``tests/test_baselines.py`` asserts that their plans equal these on live
simulated substrates, and ``benchmarks/bench_policyeval.py`` times the
batched kernels against them.

:func:`per_vnf_plan` decides a ``NodeScoringPolicy``'s chain one VNF at a
time, with one ``can_host_all``, score and ``masked_argmin`` per VNF: the
reference for the production planner's single ``(L, N)`` pass.  It reads
the ledger predicate itself, so it agrees with that pass at the ulp where
``node_can_host`` (``used + d <= cap + tol``) and the masks
(``d <= (cap + tol) - used``) part.  Over the same ledger rows,
:func:`choice_random_plan` draws the random planner's attempts with a full
``derive_seed`` per request and one ``rng.choice(rows)`` per VNF, and
:func:`viterbi_per_vnf_plan` evaluates Viterbi's cost terms one VNF at a
time and gathers transitions with ``np.ix_``: the references for the
production planners' seed base, batched draws and single cost pass.
"""

from __future__ import annotations

import itertools
from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.baselines import (
    BestFitPolicy,
    BruteForceOptimalPolicy,
    CloudOnlyPolicy,
    EdgeOnlyPolicy,
    FirstFitPolicy,
    GreedyCheapestPolicy,
    GreedyLeastLoadedPolicy,
    GreedyNearestPolicy,
    RandomPlacementPolicy,
    ViterbiPlacementPolicy,
    build_if_feasible,
)
from repro.baselines.common import (
    DecisionRows,
    NodeScoringPolicy,
    candidate_rows,
    masked_argmin,
)
from repro.baselines.greedy import bottleneck_utilization, hosting_cost
from repro.baselines.optimal import SearchSpaceTooLargeError
from repro.nfv.sfc import SFCRequest
from repro.substrate.network import SubstrateNetwork
from repro.utils.rng import derive_seed, new_rng
from tests.substrate_oracles import node_available, node_can_host, node_max_utilization


def hosting_candidates(
    request: SFCRequest,
    vnf_index: int,
    network: SubstrateNetwork,
    node_ids: Optional[Iterable[int]] = None,
) -> List[int]:
    """Nodes with enough free capacity for VNF ``vnf_index`` of ``request``."""
    demand = request.chain.vnf_at(vnf_index).demand_for(request.bandwidth_mbps)
    pool = list(node_ids) if node_ids is not None else network.node_ids
    return [node_id for node_id in pool if node_can_host(network, node_id, demand)]


def per_vnf_plan(
    policy: NodeScoringPolicy, request: SFCRequest, network: SubstrateNetwork
) -> Optional[Tuple[int, ...]]:
    """``policy``'s plan, deciding the chain's VNFs one ledger pass at a time."""
    ledger = network.ledger
    latency = network.latency_matrix
    tier = None if policy.tier_mask is None else getattr(ledger, policy.tier_mask)
    anchor = ledger.node_row[request.source_node_id]
    assignment = []
    for demand in request.chain.demand_rows:
        valid = ledger.can_host_all(demand)
        if tier is not None:
            valid = valid & tier
        if not valid.any():
            return None
        rows = DecisionRows(ledger, latency[anchor], demand, request.holding_time)
        anchor = int(masked_argmin(valid, policy.node_scores(rows)))
        assignment.append(ledger.node_ids[anchor])
    return tuple(assignment)


def request_rng(policy: RandomPlacementPolicy, request: SFCRequest) -> np.random.Generator:
    """The random planner's per-request generator, from a full ``derive_seed``."""
    return new_rng(
        derive_seed(
            policy.seed,
            "request",
            request.arrival_time,
            request.source_node_id,
            request.bandwidth_mbps,
            request.holding_time,
            request.num_vnfs,
        )
    )


def choice_random_plan(
    policy: RandomPlacementPolicy, request: SFCRequest, network: SubstrateNetwork
) -> Optional[Tuple[int, ...]]:
    """``policy``'s plan, drawn one ``rng.choice(rows)`` per VNF and attempt."""
    candidate_sets = candidate_rows(request, network)
    if candidate_sets is None:
        return None
    node_ids = network.ledger.node_ids
    rng = request_rng(policy, request)
    for _ in range(policy.max_attempts):
        assignment = tuple(node_ids[rng.choice(rows)] for rows in candidate_sets)
        if build_if_feasible(request, assignment, network) is not None:
            return assignment
    return None


def viterbi_per_vnf_plan(
    policy: ViterbiPlacementPolicy, request: SFCRequest, network: SubstrateNetwork
) -> Optional[Tuple[int, ...]]:
    """``policy``'s plan, with its cost and load terms evaluated per VNF."""
    candidate_sets = candidate_rows(request, network)
    if candidate_sets is None:
        return None
    ledger = network.ledger
    latency = network.latency_matrix
    max_latency = request.sla.max_latency_ms
    previous = [ledger.node_row[request.source_node_id]]
    best = np.zeros(1)
    backpointers: List[np.ndarray] = []
    for vnf_index, current in enumerate(candidate_sets):
        vnf = request.chain.vnf_at(vnf_index)
        rows = DecisionRows(
            ledger, None, request.chain.demand_rows[vnf_index], request.holding_time
        )
        row_cost = (
            policy.cost_weight * hosting_cost(rows)[current]
            / policy.cost_normalizer * max_latency
            + policy.load_weight * bottleneck_utilization(rows)[current] * max_latency
        )
        transition = (
            latency[np.ix_(previous, current)]
            + vnf.processing_delay_ms
            + row_cost[None, :]
        )
        totals = best[:, None] + transition
        backpointers.append(np.argmin(totals, axis=0))
        best = np.min(totals, axis=0)
        previous = current
    destination = request.destination_node_id
    if destination is not None:
        best = best + latency[previous, ledger.node_row[destination]]
    index = int(np.argmin(best))
    chosen = []
    for current, pointer in zip(reversed(candidate_sets), reversed(backpointers)):
        chosen.append(ledger.node_ids[current[index]])
        index = int(pointer[index])
    return tuple(reversed(chosen))


class GreedyNearestOracle(GreedyNearestPolicy):
    """``GreedyNearestPolicy`` planning over node objects."""

    def plan_assignment(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Tuple[int, ...]]:
        assignment = []
        anchor = request.source_node_id
        for vnf_index in range(request.num_vnfs):
            candidates = hosting_candidates(request, vnf_index, network)
            if not candidates:
                return None
            best = min(
                candidates,
                key=lambda node_id: network.latency_between(anchor, node_id),
            )
            assignment.append(best)
            anchor = best
        return tuple(assignment)


class GreedyLeastLoadedOracle(GreedyLeastLoadedPolicy):
    """``GreedyLeastLoadedPolicy`` planning over node objects."""

    def plan_assignment(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Tuple[int, ...]]:
        assignment = []
        for vnf_index in range(request.num_vnfs):
            candidates = hosting_candidates(request, vnf_index, network)
            if not candidates:
                return None
            best = min(
                candidates,
                key=lambda node_id: node_max_utilization(network, node_id),
            )
            assignment.append(best)
        return tuple(assignment)


class GreedyCheapestOracle(GreedyCheapestPolicy):
    """``GreedyCheapestPolicy`` planning over node objects."""

    def plan_assignment(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Tuple[int, ...]]:
        assignment = []
        for vnf_index in range(request.num_vnfs):
            candidates = hosting_candidates(request, vnf_index, network)
            if not candidates:
                return None
            vnf = request.chain.vnf_at(vnf_index)
            demand = vnf.demand_for(request.bandwidth_mbps)
            best = min(
                candidates,
                key=lambda node_id: network.node(node_id).hosting_cost(
                    demand, request.holding_time
                ),
            )
            assignment.append(best)
        return tuple(assignment)


class FirstFitOracle(FirstFitPolicy):
    """``FirstFitPolicy`` planning over node objects."""

    def plan_assignment(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Tuple[int, ...]]:
        assignment: List[int] = []
        for vnf_index in range(request.num_vnfs):
            candidates = hosting_candidates(request, vnf_index, network)
            if not candidates:
                return None
            assignment.append(candidates[0])
        return tuple(assignment)


class BestFitOracle(BestFitPolicy):
    """``BestFitPolicy`` planning over node objects."""

    def plan_assignment(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Tuple[int, ...]]:
        assignment: List[int] = []
        for vnf_index in range(request.num_vnfs):
            candidates = hosting_candidates(request, vnf_index, network)
            if not candidates:
                return None
            demand = request.chain.vnf_at(vnf_index).demand_for(request.bandwidth_mbps)

            def remaining_slack(node_id: int) -> float:
                return (node_available(network, node_id) - demand).total()

            assignment.append(min(candidates, key=remaining_slack))
        return tuple(assignment)


class CloudOnlyOracle(CloudOnlyPolicy):
    """``CloudOnlyPolicy`` planning over node objects."""

    def plan_assignment(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Tuple[int, ...]]:
        cloud_ids = network.cloud_node_ids
        if not cloud_ids:
            return None
        assignment: List[int] = []
        for vnf_index in range(request.num_vnfs):
            candidates = hosting_candidates(request, vnf_index, network, cloud_ids)
            if not candidates:
                return None
            assignment.append(candidates[0])
        return tuple(assignment)


class EdgeOnlyOracle(EdgeOnlyPolicy):
    """``EdgeOnlyPolicy`` planning over node objects."""

    def plan_assignment(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Tuple[int, ...]]:
        edge_ids = network.edge_node_ids
        if not edge_ids:
            return None
        assignment: List[int] = []
        anchor = request.source_node_id
        for vnf_index in range(request.num_vnfs):
            candidates = hosting_candidates(request, vnf_index, network, edge_ids)
            if not candidates:
                return None
            best = min(
                candidates,
                key=lambda node_id: network.latency_between(anchor, node_id),
            )
            assignment.append(best)
            anchor = best
        return tuple(assignment)


class RandomOracle(RandomPlacementPolicy):
    """``RandomPlacementPolicy`` planning over node objects."""

    def plan_assignment(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Tuple[int, ...]]:
        rng = request_rng(self, request)
        for _ in range(self.max_attempts):
            assignment = []
            feasible = True
            for vnf_index in range(request.num_vnfs):
                candidates = hosting_candidates(request, vnf_index, network)
                if not candidates:
                    feasible = False
                    break
                assignment.append(int(rng.choice(candidates)))
            if not feasible:
                return None
            if build_if_feasible(request, assignment, network) is not None:
                return tuple(assignment)
        return None


class BruteForceOracle(BruteForceOptimalPolicy):
    """``BruteForceOptimalPolicy`` planning over node objects."""

    def plan_assignment(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Tuple[int, ...]]:
        candidate_sets: List[List[int]] = []
        space = 1
        for vnf_index in range(request.num_vnfs):
            candidates = hosting_candidates(request, vnf_index, network)
            if not candidates:
                return None
            candidate_sets.append(candidates)
            space *= len(candidates)

        if space > self.max_assignments:
            if self.fallback_to_reject:
                return None
            raise SearchSpaceTooLargeError(
                f"request {request.request_id}: {space} assignments exceed the "
                f"budget of {self.max_assignments}"
            )

        best_assignment: Optional[Tuple[int, ...]] = None
        best_value = float("inf")
        for assignment in itertools.product(*candidate_sets):
            placement = build_if_feasible(request, assignment, network)
            if placement is None:
                continue
            value = self._objective(placement, network)
            if value < best_value:
                best_value = value
                best_assignment = tuple(assignment)
        return best_assignment


class ViterbiOracle(ViterbiPlacementPolicy):
    """``ViterbiPlacementPolicy`` planning over node objects."""

    def _node_cost(
        self, request: SFCRequest, vnf_index: int, node_id: int, network: SubstrateNetwork
    ) -> float:
        if self.cost_weight == 0.0 and self.load_weight == 0.0:
            return 0.0
        node = network.node(node_id)
        vnf = request.chain.vnf_at(vnf_index)
        hosting = node.hosting_cost(
            vnf.demand_for(request.bandwidth_mbps), request.holding_time
        )
        return (
            self.cost_weight * hosting / self.cost_normalizer * request.sla.max_latency_ms
            + self.load_weight
            * node_max_utilization(network, node_id)
            * request.sla.max_latency_ms
        )

    def plan_assignment(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Tuple[int, ...]]:
        candidate_sets: List[List[int]] = []
        for vnf_index in range(request.num_vnfs):
            candidates = hosting_candidates(request, vnf_index, network)
            if not candidates:
                return None
            candidate_sets.append(candidates)

        # Viterbi forward pass: best[k][j] = minimum accumulated weight of
        # placing VNFs 0..k with VNF k on candidate_sets[k][j].
        first = candidate_sets[0]
        best = np.array(
            [
                network.latency_between(request.source_node_id, node_id)
                + request.chain.vnf_at(0).processing_delay_ms
                + self._node_cost(request, 0, node_id, network)
                for node_id in first
            ]
        )
        backpointers: List[np.ndarray] = []

        for vnf_index in range(1, request.num_vnfs):
            current = candidate_sets[vnf_index]
            previous = candidate_sets[vnf_index - 1]
            transition = np.empty((len(previous), len(current)))
            for i, prev_node in enumerate(previous):
                for j, node_id in enumerate(current):
                    transition[i, j] = (
                        network.latency_between(prev_node, node_id)
                        + request.chain.vnf_at(vnf_index).processing_delay_ms
                        + self._node_cost(request, vnf_index, node_id, network)
                    )
            totals = best[:, None] + transition
            backpointers.append(np.argmin(totals, axis=0))
            best = np.min(totals, axis=0)

        destination = request.destination_node_id
        if destination is not None:
            best = best + np.array(
                [
                    network.latency_between(node_id, destination)
                    for node_id in candidate_sets[-1]
                ]
            )

        # Backtrack the minimizing assignment.
        last_index = int(np.argmin(best))
        assignment_indices = [last_index]
        for pointer in reversed(backpointers):
            assignment_indices.append(int(pointer[assignment_indices[-1]]))
        assignment_indices.reverse()
        return tuple(
            candidate_sets[k][idx] for k, idx in enumerate(assignment_indices)
        )


#: Production policy class -> its per-object oracle.
ORACLES = {
    GreedyNearestPolicy: GreedyNearestOracle,
    GreedyLeastLoadedPolicy: GreedyLeastLoadedOracle,
    GreedyCheapestPolicy: GreedyCheapestOracle,
    FirstFitPolicy: FirstFitOracle,
    BestFitPolicy: BestFitOracle,
    CloudOnlyPolicy: CloudOnlyOracle,
    EdgeOnlyPolicy: EdgeOnlyOracle,
    RandomPlacementPolicy: RandomOracle,
    BruteForceOptimalPolicy: BruteForceOracle,
    ViterbiPlacementPolicy: ViterbiOracle,
}
