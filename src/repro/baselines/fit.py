"""Bin-packing style baselines: first fit, best fit, and tier-restricted.

First fit and best fit treat nodes as bins ordered by id (first fit) or by
remaining slack after the allocation (best fit).  The tier-restricted
policies — cloud-only and edge-only — bound the comparison from the two
extremes of the geo-distribution trade-off: cloud-only has effectively
infinite capacity but pays the WAN latency on every chain; edge-only has the
best latency but saturates quickly.

All four are :class:`~repro.baselines.common.NodeScoringPolicy` subclasses:
first fit and cloud-only keep the constant default score (the lowest valid
row wins), best fit scores post-allocation slack, edge-only anchor latency,
and the tier policies restrict the candidates with the ledger's tier masks.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import NodeScoringPolicy


class FirstFitPolicy(NodeScoringPolicy):
    """Place each VNF on the first (lowest-id) node with enough capacity."""

    name = "first_fit"


class BestFitPolicy(NodeScoringPolicy):
    """Place each VNF on the feasible node left with the least slack.

    Classic best-fit packing: consolidating load onto already-busy nodes
    keeps other nodes free for large future requests, at the price of
    latency-agnostic choices.
    """

    name = "best_fit"

    def node_scores(self, rows) -> np.ndarray:
        # Same clamping as (node.available - demand).total(): free capacity
        # clamps at zero, then the per-dimension slack does too.
        free = np.maximum(rows.capacity - rows.used, 0.0)
        return np.maximum(free - rows.demands[..., None, :], 0.0).sum(axis=-1)


class CloudOnlyPolicy(NodeScoringPolicy):
    """Host every VNF in the central cloud (latency-worst, capacity-best)."""

    name = "cloud_only"
    tier_mask = "cloud_tier_mask"


class EdgeOnlyPolicy(NodeScoringPolicy):
    """Host every VNF on edge nodes near the ingress (latency-best, scarce)."""

    name = "edge_only"
    tier_mask = "edge_tier_mask"
    reads_anchor = True

    def node_scores(self, rows) -> np.ndarray:
        return rows.latency
