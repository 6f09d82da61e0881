"""Non-learning placement baselines used in every comparison figure."""

from repro.baselines.common import AssignmentPolicy, build_if_feasible
from repro.baselines.fit import (
    BestFitPolicy,
    CloudOnlyPolicy,
    EdgeOnlyPolicy,
    FirstFitPolicy,
)
from repro.baselines.greedy import (
    GreedyCheapestPolicy,
    GreedyLeastLoadedPolicy,
    GreedyNearestPolicy,
)
from repro.baselines.optimal import BruteForceOptimalPolicy, SearchSpaceTooLargeError
from repro.baselines.random_policy import RandomPlacementPolicy
from repro.baselines.viterbi import ViterbiPlacementPolicy


def standard_baselines(seed=None):
    """The baseline set used by the comparison figures (Figs. 2-7, Table II)."""
    return [
        RandomPlacementPolicy(seed=seed),
        GreedyNearestPolicy(),
        GreedyLeastLoadedPolicy(),
        FirstFitPolicy(),
        BestFitPolicy(),
        CloudOnlyPolicy(),
        ViterbiPlacementPolicy(cost_weight=0.2, load_weight=0.2),
    ]


__all__ = [
    "AssignmentPolicy",
    "build_if_feasible",
    "BestFitPolicy",
    "CloudOnlyPolicy",
    "EdgeOnlyPolicy",
    "FirstFitPolicy",
    "GreedyCheapestPolicy",
    "GreedyLeastLoadedPolicy",
    "GreedyNearestPolicy",
    "BruteForceOptimalPolicy",
    "SearchSpaceTooLargeError",
    "RandomPlacementPolicy",
    "ViterbiPlacementPolicy",
    "standard_baselines",
]
