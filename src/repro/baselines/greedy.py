"""Greedy placement heuristics.

Two standard greedy rules appear in virtually every VNF-placement evaluation:

* **greedy-nearest** — host each VNF on the feasible node with the lowest
  latency from the current anchor (latency-first, ignores load), and
* **greedy-least-loaded** — host each VNF on the feasible node with the most
  free capacity (load-first, ignores latency).

Both are strong at one end of the latency/utilization trade-off and weak at
the other, which is exactly the gap the learned policy closes.

Each policy is one score function over ledger rows
(:meth:`~repro.baselines.common.NodeScoringPolicy.node_scores`); the shared
base applies it to one request in ``plan_assignment`` and to every lane of a
vectorized batch in ``select_actions``.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.common import NodeScoringPolicy


def bottleneck_utilization(rows) -> np.ndarray:
    """Per-node largest-dimension utilization (``ledger.max_utilization``)."""
    return (rows.used / rows.capacity_safe).max(axis=-1)


def hosting_cost(rows) -> np.ndarray:
    """Per-node cost of hosting the pending demand for the holding time.

    The same expression as ``ComputeNode.hosting_cost``: demand . cost * t.
    """
    return (rows.cost_per_unit * rows.demands[..., None, :]).sum(axis=-1) * (
        rows.holding[..., None]
    )


class GreedyNearestPolicy(NodeScoringPolicy):
    """Latency-greedy: pick the closest feasible node for every VNF."""

    name = "greedy_nearest"
    reads_anchor = True

    def node_scores(self, rows) -> np.ndarray:
        return rows.latency


class GreedyLeastLoadedPolicy(NodeScoringPolicy):
    """Load-greedy: pick the feasible node with the lowest utilization."""

    name = "greedy_least_loaded"

    def node_scores(self, rows) -> np.ndarray:
        return bottleneck_utilization(rows)


class GreedyCheapestPolicy(NodeScoringPolicy):
    """Cost-greedy: pick the feasible node with the lowest hosting cost."""

    name = "greedy_cheapest"

    def node_scores(self, rows) -> np.ndarray:
        return hosting_cost(rows)
