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
  over attributes named like :class:`~repro.core.soa.LaneDecisionContext`
  (``latency``, ``used``, ``capacity``, ``capacity_safe``, ``cost_per_unit``,
  ``demands``, ``holding``).  It broadcasts over an optional leading axis,
  so a whole chain (:class:`DecisionRows` with ``(L, 3)`` demands, or the
  ``(N, N)`` latency matrix as every anchor's row) and K vectorized lanes
  (the context) are scored by the same expression,
* :func:`masked_argmin` — the node-level choice rule both paths share: the
  first minimum in ledger row order, or the first valid row when every valid
  score is infinite.
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
    rows = [vnf_valid.nonzero()[0] for vnf_valid in valid]
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

    The attributes carry :class:`~repro.core.soa.LaneDecisionContext`'s
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
        """:meth:`node_scores` over the bound SoA env's decision context.

        Each lane takes its lowest-score valid node, by :func:`masked_argmin`,
        or reject when it has none; the tier mask is a topology constant.
        Lanes without a shared context (reference lanes, plain env lists)
        take the default plan-replay
        :meth:`~repro.sim.simulation.PlacementPolicy.select_actions`.  The
        two agree decision for decision under the baseline lane
        configuration (capacity-only masks, ``latency_mask_check=False``),
        which the test suite asserts bitwise; a latency pre-mask restricts
        only the kernel.
        """
        venv = getattr(self, "_lane_venv", None)
        if venv is None:
            return super().select_actions(states, masks, greedy)
        context = venv.lane_decision_context()
        if masks is None:
            masks = venv.valid_action_masks()
        reject = masks.shape[1] - 1
        valid = masks[:, :reject] & context.active[:, None]
        if self.tier_mask is not None:
            valid &= getattr(venv.topology, self.tier_mask)
        choice = masked_argmin(valid, self.node_scores(context))
        return np.where(valid.any(axis=1), choice, reject).astype(int)
