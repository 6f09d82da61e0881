"""Brute-force per-request optimal placement (small instances only).

The paper compares against an ILP solved with a commercial solver; offline,
no solver is available, so this module provides the equivalent "upper bound
at small scale" baseline: exhaustive enumeration of node assignments for one
request, selecting the feasible assignment that minimizes a configurable
objective (latency, cost, or a weighted mix).  The search space is
``num_candidate_nodes ** chain_length``, so the policy refuses to run beyond
a configurable budget rather than silently stalling a benchmark.
"""

from __future__ import annotations

import itertools
import math
from typing import Optional, Tuple

from repro.baselines.common import (
    AssignmentPolicy,
    build_if_feasible,
    candidate_rows,
)
from repro.nfv.placement import Placement
from repro.nfv.sfc import SFCRequest
from repro.substrate.network import SubstrateNetwork
from repro.utils.validation import check_non_negative, check_positive


class SearchSpaceTooLargeError(RuntimeError):
    """Raised when exhaustive enumeration would exceed the configured budget."""


class BruteForceOptimalPolicy(AssignmentPolicy):
    """Exhaustive per-request optimum under a latency+cost objective.

    Parameters
    ----------
    latency_weight, cost_weight:
        Objective = ``latency_weight * latency + cost_weight * cost``.
    max_assignments:
        Upper bound on the number of assignments enumerated per request;
        larger search spaces raise :class:`SearchSpaceTooLargeError` (or, when
        ``fallback_to_reject`` is set, reject the request).
    """

    name = "optimal_small"

    def __init__(
        self,
        latency_weight: float = 1.0,
        cost_weight: float = 0.0,
        max_assignments: int = 200_000,
        fallback_to_reject: bool = False,
    ) -> None:
        check_non_negative(latency_weight, "latency_weight")
        check_non_negative(cost_weight, "cost_weight")
        check_positive(max_assignments, "max_assignments")
        self.latency_weight = latency_weight
        self.cost_weight = cost_weight
        self.max_assignments = max_assignments
        self.fallback_to_reject = fallback_to_reject

    def _objective(self, placement: Placement, network: SubstrateNetwork) -> float:
        value = self.latency_weight * placement.end_to_end_latency_ms()
        if self.cost_weight:
            value += self.cost_weight * placement.total_cost(network)
        return value

    def plan_assignment(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Tuple[int, ...]]:
        rows = candidate_rows(request, network)
        if rows is None:
            return None
        node_ids = network.ledger.node_ids
        candidate_sets = [[node_ids[row] for row in valid] for valid in rows]
        space = math.prod(len(candidates) for candidates in candidate_sets)
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
