"""Reward shaping for the VNF-placement MDP.

The reward has two parts:

* a **per-step shaping term** charged for every VNF placed, proportional to
  the latency the hop adds (relative to the SLA budget) and to the hosting
  cost of the instance — this gives the agent a dense signal about which node
  choices are expensive long before the chain completes; and
* a **terminal term** granted when the whole chain is placed (acceptance
  reward scaled by revenue, minus latency and cost penalties) or when the
  request is rejected / turns out infeasible (a flat penalty).

The relative weights are the knobs of the reward-ablation experiment.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.nfv.sfc import SFCRequest
from repro.substrate.network import SubstrateNetwork
from repro.utils.validation import check_non_negative


@dataclass(frozen=True)
class RewardConfig:
    """Weights of the composite reward function."""

    accept_reward: float = 10.0
    reject_penalty: float = 5.0
    infeasible_penalty: float = 8.0
    latency_weight: float = 2.0
    cost_weight: float = 4.0
    step_latency_weight: float = 1.0
    step_cost_weight: float = 0.8
    load_balance_weight: float = 1.5
    revenue_scale: float = 1.0
    cost_normalizer: float = 200.0

    def __post_init__(self) -> None:
        check_non_negative(self.accept_reward, "accept_reward")
        check_non_negative(self.reject_penalty, "reject_penalty")
        check_non_negative(self.infeasible_penalty, "infeasible_penalty")
        check_non_negative(self.latency_weight, "latency_weight")
        check_non_negative(self.cost_weight, "cost_weight")
        check_non_negative(self.step_latency_weight, "step_latency_weight")
        check_non_negative(self.step_cost_weight, "step_cost_weight")
        check_non_negative(self.load_balance_weight, "load_balance_weight")
        check_non_negative(self.revenue_scale, "revenue_scale")
        if self.cost_normalizer <= 0:
            raise ValueError("cost_normalizer must be positive")


class RewardCalculator:
    """Computes per-step and terminal rewards for one request's episode segment."""

    def __init__(self, config: Optional[RewardConfig] = None) -> None:
        self.config = config or RewardConfig()

    # ------------------------------------------------------------------ #
    # Per-step shaping
    # ------------------------------------------------------------------ #
    def step_reward(
        self,
        request: SFCRequest,
        network: SubstrateNetwork,
        node_id: int,
        added_latency_ms: float,
        vnf_index: int,
    ) -> float:
        """Shaping reward for placing one VNF on ``node_id``.

        Negative and small relative to the terminal reward, so the agent is
        steered towards low-latency, cheap, lightly loaded nodes without the
        shaping dominating the accept/reject trade-off.
        """
        config = self.config
        sla = request.sla.max_latency_ms
        latency_term = config.step_latency_weight * (added_latency_ms / sla)

        # Read the node's cost row and memoized bottleneck utilization from
        # the ledger instead of rebuilding resource vectors.
        ledger = network.ledger
        row = ledger.node_row[node_id]
        demand = request.chain.demand_rows[vnf_index]
        hosting = float(demand @ ledger.node_cost_per_unit[row]) * request.holding_time
        utilization = float(ledger.max_utilization()[row])
        cost_term = config.step_cost_weight * (hosting / config.cost_normalizer)

        balance_term = config.load_balance_weight * 0.1 * utilization
        return -(latency_term + cost_term + balance_term)

    # ------------------------------------------------------------------ #
    # Terminal rewards
    # ------------------------------------------------------------------ #
    def acceptance_reward(
        self, latency_ms: float, sla_ms: float, total_cost: float, revenue: float
    ) -> float:
        """Terminal reward for successfully committing a full chain.

        ``latency_ms`` is the chain's end-to-end latency, ``sla_ms`` its SLA
        budget, ``total_cost`` its hosting plus transport cost and
        ``revenue`` the request's :meth:`~repro.nfv.sfc.SFCRequest.revenue`.
        """
        config = self.config
        return (
            config.accept_reward
            + config.revenue_scale * revenue / 100.0
            - config.latency_weight * (latency_ms / sla_ms)
            - config.cost_weight * (total_cost / config.cost_normalizer)
        )

    def rejection_penalty(self, request: SFCRequest) -> float:
        """Terminal reward (negative) for explicitly rejecting a request."""
        return -self.config.reject_penalty

    def infeasibility_penalty(self, request: SFCRequest) -> float:
        """Terminal reward (negative) when a completed assignment cannot commit."""
        return -self.config.infeasible_penalty

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def describe(self) -> Dict[str, float]:
        """The reward weights as a dictionary (logged with experiment results)."""
        return {
            "accept_reward": self.config.accept_reward,
            "reject_penalty": self.config.reject_penalty,
            "infeasible_penalty": self.config.infeasible_penalty,
            "latency_weight": self.config.latency_weight,
            "cost_weight": self.config.cost_weight,
            "step_latency_weight": self.config.step_latency_weight,
            "step_cost_weight": self.config.step_cost_weight,
            "load_balance_weight": self.config.load_balance_weight,
        }


def latency_focused_config() -> RewardConfig:
    """Reward variant emphasizing latency (ablation A, latency-heavy point)."""
    return RewardConfig(latency_weight=8.0, cost_weight=0.5, step_latency_weight=2.0)


def cost_focused_config() -> RewardConfig:
    """Reward variant emphasizing operational cost (ablation A, cost-heavy point)."""
    return RewardConfig(latency_weight=1.0, cost_weight=6.0, step_cost_weight=1.0)


def acceptance_focused_config() -> RewardConfig:
    """Reward variant emphasizing raw acceptance (ablation A, accept-heavy point)."""
    return RewardConfig(
        accept_reward=20.0, reject_penalty=10.0, latency_weight=1.0, cost_weight=0.5
    )
