"""The paper's core contribution: the DRL VNF-management MDP and controller."""

from repro.core.action import ActionSpace
from repro.core.env import EnvConfig, EpisodeStats, VNFPlacementEnv
from repro.core.manager import ManagerConfig, VNFManager
from repro.core.policy import DRLPlacementPolicy
from repro.core.reward import (
    RewardCalculator,
    RewardConfig,
    acceptance_focused_config,
    cost_focused_config,
    latency_focused_config,
)
from repro.core.soa import SoAVecPlacementEnv
from repro.core.state import EncoderConfig, StateEncoder
from repro.core.timeout import BudgetedPolicy, DecisionOutcome
from repro.core.training import (
    EvaluationResult,
    TrainingConfig,
    TrainingHistory,
    VecTrainer,
)
from repro.core.vecenv import (
    VecPlacementEnv,
    lane_workload_seed,
    make_lane_env,
    make_vec_env,
)

__all__ = [
    "ActionSpace",
    "EnvConfig",
    "EpisodeStats",
    "VNFPlacementEnv",
    "ManagerConfig",
    "VNFManager",
    "DRLPlacementPolicy",
    "RewardCalculator",
    "RewardConfig",
    "acceptance_focused_config",
    "cost_focused_config",
    "latency_focused_config",
    "EncoderConfig",
    "StateEncoder",
    "EvaluationResult",
    "TrainingConfig",
    "TrainingHistory",
    "VecTrainer",
    "VecPlacementEnv",
    "SoAVecPlacementEnv",
    "make_vec_env",
    "BudgetedPolicy",
    "DecisionOutcome",
    "lane_workload_seed",
    "make_lane_env",
]
