"""Wall-clock decision budgets for placement policies.

An online serving loop cannot let one slow policy call stall the request
stream: every decision gets a wall-clock budget, and a policy that exceeds it
is *preempted* — its (late) answer is discarded and the request falls through
to the next tier of the fallback chain.

Preemption here is *soft*: Python cannot safely interrupt an arbitrary policy
mid-call, so the call runs to completion, the elapsed time is measured, and an
over-budget result is thrown away.  What the serving loop is **charged** is
capped at the budget (``charged_s = min(elapsed, budget)``), which models a
real serving system where the slow computation is cancelled at the deadline —
and gives the fallback chain the hard guarantee that total decision latency
never exceeds the sum of its tier budgets.

For deterministic tests and benchmarks a ``latency_model`` can replace the
measured wall-clock with a synthetic per-request latency, so timeout paths can
be exercised without actually burning time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.nfv.placement import Placement
from repro.nfv.sfc import SFCRequest
from repro.sim.simulation import PlacementPolicy
from repro.substrate.network import SubstrateNetwork
from repro.utils.validation import check_positive


@dataclass(frozen=True)
class DecisionOutcome:
    """The result of one budgeted policy invocation.

    ``elapsed_s`` is the measured (or modelled) decision time; ``charged_s``
    is what the serving loop accounts for — capped at the budget, because an
    over-budget decision is abandoned at the deadline.
    """

    placement: Optional[Placement]
    elapsed_s: float
    charged_s: float
    timed_out: bool


class BudgetedPolicy(PlacementPolicy):
    """Wraps a policy with a wall-clock decision budget.

    ``clock`` (default :func:`time.perf_counter`) is injectable for tests;
    ``latency_model``, when given, is called as ``latency_model(request)`` and
    its return value replaces the measured elapsed time entirely — the
    wrapped policy still runs (its placement is used when under budget), but
    timing becomes deterministic.
    """

    def __init__(
        self,
        policy: PlacementPolicy,
        budget_s: float,
        clock: Optional[Callable[[], float]] = None,
        latency_model: Optional[Callable[[SFCRequest], float]] = None,
    ) -> None:
        check_positive(budget_s, "budget_s")
        self.policy = policy
        self.budget_s = budget_s
        self.name = f"budgeted[{policy.name}]"
        self._clock = clock or time.perf_counter
        self._latency_model = latency_model
        self.calls = 0
        self.timeouts = 0
        self.total_charged_s = 0.0

    def decide(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> DecisionOutcome:
        """Run the wrapped policy under the budget and account for the time."""
        start = self._clock()
        placement = self.policy.place(request, network)
        elapsed = self._clock() - start
        if self._latency_model is not None:
            elapsed = float(self._latency_model(request))
        timed_out = elapsed > self.budget_s
        charged = min(elapsed, self.budget_s)
        self.calls += 1
        self.total_charged_s += charged
        if timed_out:
            self.timeouts += 1
            placement = None  # soft preemption: the late answer is discarded
        return DecisionOutcome(
            placement=placement,
            elapsed_s=elapsed,
            charged_s=charged,
            timed_out=timed_out,
        )

    # ------------------------------------------------------------------ #
    # PlacementPolicy interface (delegation)
    # ------------------------------------------------------------------ #
    def place(
        self, request: SFCRequest, network: SubstrateNetwork
    ) -> Optional[Placement]:
        return self.decide(request, network).placement

    def reset(self) -> None:
        self.policy.reset()
        self.calls = 0
        self.timeouts = 0
        self.total_charged_s = 0.0
