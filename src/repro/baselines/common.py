"""Shared helpers for the heuristic placement baselines.

Every baseline plans from the substrate's array ledger: a VNF's candidate
nodes are the rows ``ledger.can_host_all`` admits (the predicate the action
masks use), scored by array expressions over the ledger columns and
``network.latency_matrix``, which is in ledger row order.  Nothing commits
while a request is planned, so one ``can_host_all`` call over the chain's
``(L, 3)`` ``demand_rows`` gives every VNF's candidates as an ``(L, N)``
mask.  Node ids appear only when a chosen row is reported.

* :class:`AssignmentPolicy` — base class for heuristics that decide a node
  assignment per request (``plan_assignment`` is primary, ``place`` derived),
* :class:`NodeScoringPolicy` — base class for the greedy, fit and tier
  heuristics, which host each VNF on the best-scoring valid node.  Each one
  defines a single score function, :meth:`NodeScoringPolicy.node_scores`,
  over attributes named like :class:`~repro.core.vecenv.LaneDecisionContext`
  (``latency``, ``used``, ``capacity``, ``capacity_safe``, ``cost_per_unit``,
  ``demands``, ``holding``).  It broadcasts over an optional leading axis,
  so a whole chain (:class:`DecisionRows` with ``(L, 3)`` demands, or the
  ``(N, N)`` latency matrix as every anchor's row) and K vectorized lanes
  (the context) are scored by the same expression,
* :func:`masked_argmin` — the node-level choice rule both paths share: the
  first minimum in ledger row order, or the first valid row when every valid
  score is infinite,
* :func:`masked_score_actions` — that rule applied per lane to ``(K, A)``
  validity masks, with the reject action for lanes that have no valid node.
"""

from __future__ import annotations

from abc import abstractmethod
from itertools import compress
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.nfv.placement import Placement
from repro.nfv.sfc import SFCRequest
from repro.sim.simulation import PlacementPolicy
from repro.substrate.ledger import SubstrateLedger
from repro.substrate.network import NoRouteError, SubstrateNetwork


def build_if_feasible(
    request: SFCRequest,
    assignment: Sequence[int],
    network: SubstrateNetwork,
) -> Optional[Placement]:
    """Route ``assignment`` and return the placement only if it is feasible."""
    try:
        placement = Placement.build(request, assignment, network)
    except NoRouteError:
        return None
    if not placement.is_feasible(network):
        return None
    return placement


def candidate_rows(
    request: SFCRequest, network: SubstrateNetwork
) -> Optional[List[np.ndarray]]:
    """Ledger rows that can host each VNF of ``request``, in row order.

    ``None`` when some VNF fits on no node.
    """
    valid = network.ledger.can_host_all(request.chain.demand_rows)
    rows = [np.flatnonzero(vnf_valid) for vnf_valid in valid]
    return rows if all(vnf_rows.size for vnf_rows in rows) else None


def masked_argmin(valid: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """Lowest-score valid row along the last axis.

    Ties — including rows whose valid scores are all infinite — resolve to
    the lowest valid row, the same first-minimum rule as ``min()`` over an
    ordered candidate list.  Broadcasts over leading axes; the result is
    meaningless where ``valid`` has no true entry, so callers check first.
    """
    masked = np.where(valid, scores, np.inf)
    # A finite minimum sits on a valid row, so at or after the first one;
    # when every valid score is infinite, argmin stops at row 0 instead.
    return np.maximum(masked.argmin(axis=-1), valid.argmax(axis=-1))


class AssignmentPolicy(PlacementPolicy):
    """Base for heuristics whose primary decision is a node assignment.

    Subclasses implement :meth:`plan_assignment`; :meth:`place` is derived by
    routing and feasibility-checking the planned assignment.  This inverts
    the default :class:`~repro.sim.simulation.PlacementPolicy` orientation so
    the default :meth:`~repro.sim.simulation.PlacementPolicy.select_actions`,
    which replays planned assignments, never builds placements it does not
    need.
    """

    @abstractmethod
    def plan_assignment(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Tuple[int, ...]]:
        """The node assignment this policy chooses, or ``None`` to reject."""

    def place(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Placement]:
        assignment = self.plan_assignment(request, network)
        if assignment is None:
            return None
        return build_if_feasible(request, assignment, network)


class DecisionRows:
    """Pending VNF decisions of one request over a substrate's ledger rows.

    The attributes carry :class:`~repro.core.vecenv.LaneDecisionContext`'s
    names, and its shapes without the leading lane axis (``holding`` is
    0-d), so a score function written once serves both.  ``demands`` is one
    VNF's ``(3,)`` demand or the chain's ``(L, 3)`` ``demand_rows``.
    ``latency`` is the anchor's row of ``network.latency_matrix``, or the
    whole ``(N, N)`` matrix to score every anchor at once.
    """

    __slots__ = (
        "latency",
        "used",
        "capacity",
        "capacity_safe",
        "cost_per_unit",
        "demands",
        "holding",
    )

    def __init__(
        self,
        ledger: SubstrateLedger,
        latency: Optional[np.ndarray],
        demands: np.ndarray,
        holding_time: float,
    ) -> None:
        self.latency = latency
        self.used = ledger.node_used
        self.capacity = ledger.node_capacity
        self.capacity_safe = ledger.node_capacity_safe
        self.cost_per_unit = ledger.node_cost_per_unit
        self.demands = demands
        self.holding = np.float64(holding_time)


class NodeScoringPolicy(AssignmentPolicy):
    """Host each VNF on the valid node with the lowest :meth:`node_scores`.

    Valid nodes are those that can host the VNF, restricted to the ledger's
    :attr:`tier_mask` when one is set.  Every VNF is decided against the
    current substrate, so one ``(L, N)`` validity pass serves the chain, and
    a request is rejected when some VNF has no valid node.  A score that
    ignores the anchor is evaluated once over the ``(L, 3)`` demands and one
    :func:`masked_argmin` picks every row.  A score that reads it
    (:attr:`reads_anchor`) is evaluated once over the whole latency matrix,
    then the chain is walked in order: each VNF's anchor is the previous
    VNF's node (the request's source for the first one).
    """

    #: Name of the ledger tier mask (``"edge_tier_mask"`` or
    #: ``"cloud_tier_mask"``) the candidates are restricted to, if any.
    tier_mask: Optional[str] = None
    #: Whether :meth:`node_scores` reads ``latency``, the anchor's row.  The
    #: planner then scores every anchor at once and walks the chain; other
    #: scores are evaluated once for all of the chain's VNFs.
    reads_anchor: bool = False

    def node_scores(self, rows) -> np.ndarray:
        """Per-node score of the pending decision; lower is better.

        ``rows`` is a :class:`DecisionRows` or a lane context; the result has
        its node-axis shape.  The default scores every node alike, so the
        tie rule makes it first fit: the lowest valid row wins.
        """
        return np.zeros(rows.used.shape[:-1])

    def plan_assignment(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Tuple[int, ...]]:
        ledger = network.ledger
        demands = request.chain.demand_rows
        # Nothing commits while a request is planned, so one (L, N) pass
        # answers every VNF's validity at once.
        valid = ledger.can_host_all(demands)
        if self.tier_mask is not None:
            valid = valid & getattr(ledger, self.tier_mask)
        per_vnf = valid.tolist()
        if not all(map(any, per_vnf)):
            return None
        node_ids = ledger.node_ids
        if not self.reads_anchor:
            rows = DecisionRows(ledger, None, demands, request.holding_time)
            choice = masked_argmin(valid, self.node_scores(rows))
            return tuple([node_ids[row] for row in choice.tolist()])
        # Each VNF's anchor is the node chosen for the one before it: score
        # every (anchor, node) pair at once, then walk the chain.
        rows = DecisionRows(ledger, network.latency_matrix, demands, request.holding_time)
        table = self.node_scores(rows)
        anchor = ledger.node_row[request.source_node_id]
        everywhere = range(len(node_ids))
        assignment = []
        for vnf_valid in per_vnf:
            # The first minimum over valid rows in row order, and the first
            # valid row when all are infinite: masked_argmin's rule.
            scores = table[anchor].tolist()
            anchor = min(compress(everywhere, vnf_valid), key=scores.__getitem__)
            assignment.append(node_ids[anchor])
        return tuple(assignment)

    def select_actions(self, states=None, masks=None, greedy: bool = True) -> np.ndarray:
        """:meth:`node_scores` over every lane, then a per-lane masked argmin.

        Scores come from the bound vec env's shared decision context, or,
        for plain lane lists, from each active lane's own ledger rows.
        """
        lanes = self.bound_lanes
        masks = lane_masks(lanes, masks)
        if self.tier_mask is not None:
            masks = self._tier_valid(lanes, masks)
        context = self.bound_context
        if context is not None:
            return masked_score_actions(
                masks, self.node_scores(context), context.active
            )
        requests, active = lane_requests(lanes)
        scores = np.full((len(lanes), masks.shape[1] - 1), np.inf)
        for lane, env in enumerate(lanes):
            request = requests[lane]
            if request is None:
                continue
            demand = request.chain.demand_rows[env.vnf_index]
            network = env.network
            scores[lane] = self.node_scores(
                DecisionRows(
                    network.ledger,
                    network.latency_row(env.anchor_node_id),
                    demand,
                    request.holding_time,
                )
            )
        return masked_score_actions(masks, scores, active)

    def _tier_valid(self, lanes, masks: np.ndarray) -> np.ndarray:
        reject = masks.shape[1] - 1
        # Tier membership is topology-constant: stack it once per lane set.
        cached = getattr(self, "_tier_stack", None)
        if cached is None or cached[0] is not lanes:
            stack = np.stack(
                [getattr(env.network.ledger, self.tier_mask) for env in lanes]
            )
            cached = (lanes, stack)
            self._tier_stack = cached
        restricted = masks.copy()
        restricted[:, :reject] &= cached[1]
        return restricted


def lane_masks(lanes: Sequence, masks: Optional[np.ndarray]) -> np.ndarray:
    """The ``(K, A)`` validity masks for ``lanes``, computing them if absent."""
    if masks is not None:
        return np.atleast_2d(np.asarray(masks, dtype=bool))
    return np.stack([env.valid_action_mask() for env in lanes])


def masked_score_actions(
    masks: np.ndarray, scores: np.ndarray, active: np.ndarray
) -> np.ndarray:
    """Lowest-score valid node action per lane (reject when none is valid).

    ``scores`` is ``(K, num_nodes)`` in action order; ``active`` flags lanes
    with a request in flight.  The choice per lane is :func:`masked_argmin`.
    """
    # repro-lint: readonly=masks,scores,active
    reject = masks.shape[1] - 1
    node_valid = masks[:, :reject] & active[:, None]
    choice = masked_argmin(node_valid, scores)
    return np.where(node_valid.any(axis=1), choice, reject).astype(int)


def lane_requests(lanes: Sequence) -> Tuple[List, np.ndarray]:
    """Per-lane current requests and the boolean active-lane vector."""
    requests = [env.current_request for env in lanes]
    active = np.array([request is not None for request in requests], dtype=bool)
    return requests, active
