"""Uniform-random placement: the weakest baseline in every comparison."""

from __future__ import annotations

from typing import Optional, Tuple

from repro.baselines.common import (
    AssignmentPolicy,
    build_if_feasible,
    candidate_rows,
)
from repro.nfv.placement import Placement
from repro.nfv.sfc import SFCRequest
from repro.substrate.network import SubstrateNetwork
from repro.utils.rng import RandomState, mix_seed_labels, new_rng, seed_base


class RandomPlacementPolicy(AssignmentPolicy):
    """Place each VNF on a uniformly random node that can host it.

    The policy retries a few complete assignments before giving up, which
    keeps its acceptance at low load from being pathologically bad while
    still ignoring latency and cost entirely.

    Randomness is derived *per request* from the policy seed and the
    request's intrinsic attributes, so the decision for a given request
    depends only on the seed and the substrate state — not on how many other
    requests the policy instance has seen.
    This makes one policy instance shared across K vectorized lanes bitwise
    identical to per-lane serial evaluation (and re-runs reproducible),
    which the batched-protocol equivalence suite relies on.
    """

    name = "random"

    def __init__(self, max_attempts: int = 5, seed: RandomState = None) -> None:
        if max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        self.max_attempts = max_attempts
        # Resolve an unseeded policy to a concrete root seed once, so the
        # per-request derivation below stays self-consistent for the
        # instance's lifetime (batched and reference paths must agree).
        self.seed = (
            seed if seed is not None else int(new_rng(None).integers(0, 2**31 - 1))
        )
        # derive_seed(self.seed, ...) is the label mix over this one draw; a
        # Generator seed is drawn from here, once per policy.
        self._seed_base = seed_base(self.seed)

    def _request_rng(self, request: SFCRequest):
        # Derive from intrinsic request attributes rather than the request
        # id: an id is a position in one generator's stream, while the
        # attribute tuple is identical for one logical request however its
        # workload is (re)constructed.
        return new_rng(
            mix_seed_labels(
                self._seed_base,
                "request",
                request.arrival_time,
                request.source_node_id,
                request.bandwidth_mbps,
                request.holding_time,
                request.num_vnfs,
            )
        )

    def place(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Placement]:
        """The placement :meth:`plan_assignment` found feasible, not a rebuilt one."""
        return self._first_feasible(request, network)

    def plan_assignment(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Tuple[int, ...]]:
        placement = self._first_feasible(request, network)
        return None if placement is None else placement.node_assignment

    def _first_feasible(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Placement]:
        candidate_sets = candidate_rows(request, network)
        if candidate_sets is None:
            return None
        node_ids = network.ledger.node_ids
        # Every attempt's index draws in one call: over an array of bounds,
        # ``integers`` draws element by element, the stream of one
        # ``integers(0, len(rows))`` per VNF, which is the draw
        # ``rng.choice(rows)`` makes.  Rows list the candidates in node
        # order, so the draws match choosing among their node ids.  The
        # request's generator is dropped after the plan, so the draws of
        # attempts never made are never read.
        length = len(candidate_sets)
        bounds = [len(rows) for rows in candidate_sets] * self.max_attempts
        draws = self._request_rng(request).integers(0, bounds).tolist()
        for start in range(0, len(bounds), length):
            assignment = tuple(
                node_ids[rows[index]]
                for rows, index in zip(candidate_sets, draws[start:start + length])
            )
            placement = build_if_feasible(request, assignment, network)
            if placement is not None:
                return placement
        return None
