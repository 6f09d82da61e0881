"""Per-figure reproduction functions.

Each ``figure_*`` function regenerates the data series behind one figure of
the reconstructed evaluation and returns a plain dictionary:

``{"figure": <id>, "x_label": ..., "x": [...], "series": {name: [...]}, ...}``

The functions only *compute* — printing/formatting lives in
:mod:`repro.experiments.reporting` and persistence in the benchmark files —
so they are equally usable from benchmarks, examples and notebooks.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.agents.dqn import make_dqn_variant
from repro.baselines import standard_baselines
from repro.core.manager import VNFManager
from repro.core.reward import (
    RewardConfig,
    acceptance_focused_config,
    cost_focused_config,
    latency_focused_config,
)
from repro.core.training import TrainingConfig, VecTrainer
from repro.core.vecenv import make_vec_env
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import (
    build_reference_scenario,
    evaluate_drl_and_baselines,
    train_manager,
    vec_sweep_env_eval,
)
from repro.utils.rng import derive_seed
from repro.workloads.scenarios import scalability_scenario, scenario_grid


def _env_eval_baselines(config: ExperimentConfig):
    """The baseline panel evaluated through the vec lanes of ``env_eval``."""
    return standard_baselines(seed=derive_seed(config.seed, "env_eval_baselines"))


# --------------------------------------------------------------------------- #
# Fig. 1 — training convergence
# --------------------------------------------------------------------------- #
def figure_training_convergence(
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, object]:
    """Episode reward (raw and smoothed) of the DRL agent during training."""
    config = config or ExperimentConfig.fast()
    scenario = build_reference_scenario(config)
    manager = train_manager(scenario, config)
    history = manager.trainer.history
    return {
        "figure": "fig1_training_convergence",
        "x_label": "training episode",
        "y_label": "episode reward",
        "x": list(range(1, len(history.episode_rewards) + 1)),
        "series": {
            "episode_reward": list(history.episode_rewards),
            "smoothed_reward": history.moving_average_reward(config.training_episodes // 10 or 1),
            "acceptance_ratio": list(history.episode_acceptance),
        },
        "evaluation": {
            "episodes": list(history.evaluation_episodes_at),
            "rewards": list(history.evaluation_rewards),
        },
    }


# --------------------------------------------------------------------------- #
# Figs. 2-4 — load sweeps (acceptance, latency, cost vs arrival rate)
# --------------------------------------------------------------------------- #
def _load_sweep(
    config: ExperimentConfig, metric: str
) -> Dict[str, object]:
    """Shared implementation of the arrival-rate sweep figures."""
    scenario = build_reference_scenario(config)
    manager = train_manager(scenario, config)
    series: Dict[str, List[float]] = {}
    for rate in config.arrival_rates:
        swept = scenario.with_arrival_rate(rate)
        results = evaluate_drl_and_baselines(swept, manager, config)
        for name, result in results.items():
            value = getattr(result.summary, metric)
            series.setdefault(name, []).append(float(value))
    # The environment-level sweep runs as ONE scenario-diverse vectorized
    # batch per policy: one lane per load point, one batched pass for the
    # agent and for every baseline of the comparison panel.
    env_eval = vec_sweep_env_eval(
        manager,
        scenario_grid(scenario, arrival_rates=config.arrival_rates),
        config,
        baselines=_env_eval_baselines(config),
    )
    return {
        "x_label": "arrival rate (requests / time unit)",
        "x": list(config.arrival_rates),
        "series": series,
        "env_eval": env_eval,
    }


def figure_acceptance_vs_arrival(
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, object]:
    """Fig. 2 — acceptance ratio vs offered load, DRL vs baselines."""
    config = config or ExperimentConfig.fast()
    data = _load_sweep(config, "acceptance_ratio")
    data.update({"figure": "fig2_acceptance_vs_arrival", "y_label": "acceptance ratio"})
    return data


def figure_latency_vs_arrival(
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, object]:
    """Fig. 3 — mean end-to-end latency of accepted requests vs offered load."""
    config = config or ExperimentConfig.fast()
    data = _load_sweep(config, "mean_latency_ms")
    data.update({"figure": "fig3_latency_vs_arrival", "y_label": "mean latency (ms)"})
    return data


def figure_cost_vs_arrival(
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, object]:
    """Fig. 4 — mean operational cost per accepted request vs offered load."""
    config = config or ExperimentConfig.fast()
    data = _load_sweep(config, "mean_cost_per_accepted")
    data.update(
        {"figure": "fig4_cost_vs_arrival", "y_label": "cost per accepted request"}
    )
    return data


# --------------------------------------------------------------------------- #
# Fig. 5 — scalability over the number of edge nodes
# --------------------------------------------------------------------------- #
def figure_acceptance_vs_edges(
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, object]:
    """Fig. 5 — acceptance ratio as the topology grows (per-node load fixed).

    The DRL controller is retrained per topology size (the state and action
    spaces change with the topology), exactly as the paper retrains its agent
    per substrate.
    """
    config = config or ExperimentConfig.fast()
    series: Dict[str, List[float]] = {}
    env_eval: Dict[str, object] = {
        "lanes_per_size": [],
        "mean_reward": [],
        "acceptance_ratio": [],
        "mean_latency_ms": [],
        "baselines": {},
    }
    for num_edges in config.edge_node_sweep:
        scenario = scalability_scenario(
            num_edges,
            horizon=config.evaluation_horizon,
            seed=derive_seed(config.seed, "scalability", num_edges),
        )
        manager = train_manager(scenario, config)
        results = evaluate_drl_and_baselines(scenario, manager, config)
        for name, result in results.items():
            series.setdefault(name, []).append(result.summary.acceptance_ratio)
        # Environment-level greedy evaluation at this size runs as one vec
        # batch of seed-diverse replicated lanes (the state/action spaces
        # change with the topology, so sizes cannot share one batch).
        lanes = 2
        size_eval = vec_sweep_env_eval(
            manager,
            [scenario] * lanes,
            config,
            episodes_per_scenario=1,
            baselines=_env_eval_baselines(config),
        )
        env_eval["lanes_per_size"].append(lanes)
        env_eval["mean_reward"].append(float(np.mean(size_eval["mean_reward"])))
        env_eval["acceptance_ratio"].append(
            float(np.mean(size_eval["acceptance_ratio"]))
        )
        env_eval["mean_latency_ms"].append(
            float(np.mean(size_eval["mean_latency_ms"]))
        )
        for name, entry in size_eval.get("baselines", {}).items():
            folded = env_eval["baselines"].setdefault(
                name, {"acceptance_ratio": [], "mean_latency_ms": []}
            )
            folded["acceptance_ratio"].append(
                float(np.mean(entry["acceptance_ratio"]))
            )
            folded["mean_latency_ms"].append(
                float(np.mean(entry["mean_latency_ms"]))
            )
    return {
        "figure": "fig5_acceptance_vs_edges",
        "x_label": "number of edge nodes",
        "y_label": "acceptance ratio",
        "x": list(config.edge_node_sweep),
        "series": series,
        "env_eval": env_eval,
    }


# --------------------------------------------------------------------------- #
# Fig. 6 — SLA-strictness sensitivity
# --------------------------------------------------------------------------- #
def figure_sla_sensitivity(
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, object]:
    """Fig. 6 — acceptance ratio vs latency-SLA scale (0.5x stricter .. 2x looser)."""
    config = config or ExperimentConfig.fast()
    scenario = build_reference_scenario(config)
    manager = train_manager(scenario, config)
    series: Dict[str, List[float]] = {}
    violation_series: Dict[str, List[float]] = {}
    for scale in config.sla_scales:
        swept = scenario.with_sla_scale(scale)
        results = evaluate_drl_and_baselines(swept, manager, config)
        for name, result in results.items():
            series.setdefault(name, []).append(result.summary.acceptance_ratio)
            violation_series.setdefault(name, []).append(
                result.summary.sla_violation_ratio
            )
    # The SLA sweep's environment-level evaluation runs as one
    # scenario-diverse vec batch (one lane per SLA scale) for the agent and
    # each baseline, mirroring the load sweeps of Figs. 2-4.
    env_eval = vec_sweep_env_eval(
        manager,
        scenario_grid(scenario, sla_scales=config.sla_scales),
        config,
        baselines=_env_eval_baselines(config),
    )
    return {
        "figure": "fig6_sla_sensitivity",
        "x_label": "SLA scale factor (1.0 = reference budgets)",
        "y_label": "acceptance ratio",
        "x": list(config.sla_scales),
        "series": series,
        "sla_violation_series": violation_series,
        "env_eval": env_eval,
    }


# --------------------------------------------------------------------------- #
# Fig. 7 — utilization and load balance at the reference load
# --------------------------------------------------------------------------- #
def figure_utilization(
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, object]:
    """Fig. 7 — mean edge utilization and imbalance per algorithm."""
    config = config or ExperimentConfig.fast()
    scenario = build_reference_scenario(config)
    manager = train_manager(scenario, config)
    results = evaluate_drl_and_baselines(scenario, manager, config)
    policies = list(results.keys())
    return {
        "figure": "fig7_utilization",
        "x_label": "policy",
        "y_label": "mean edge utilization",
        "x": policies,
        "series": {
            "mean_edge_utilization": [
                results[p].summary.mean_edge_utilization for p in policies
            ],
            "utilization_imbalance": [
                results[p].summary.mean_utilization_imbalance for p in policies
            ],
            "acceptance_ratio": [
                results[p].summary.acceptance_ratio for p in policies
            ],
        },
    }


# --------------------------------------------------------------------------- #
# Ablation A — reward-weight variants
# --------------------------------------------------------------------------- #
def figure_reward_ablation(
    config: Optional[ExperimentConfig] = None,
) -> Dict[str, object]:
    """Ablation A — how reward weighting moves the latency/cost/acceptance balance."""
    config = config or ExperimentConfig.fast()
    scenario = build_reference_scenario(config)
    variants: Dict[str, RewardConfig] = {
        "balanced": RewardConfig(),
        "latency_focused": latency_focused_config(),
        "cost_focused": cost_focused_config(),
        "acceptance_focused": acceptance_focused_config(),
    }
    rows: Dict[str, Dict[str, float]] = {}
    for name, reward in variants.items():
        manager = train_manager(scenario, config, reward=reward)
        results = evaluate_drl_and_baselines(
            scenario, manager, config, include_baselines=False
        )
        summary = next(iter(results.values())).summary
        rows[name] = {
            "acceptance_ratio": summary.acceptance_ratio,
            "mean_latency_ms": summary.mean_latency_ms,
            "mean_cost_per_accepted": summary.mean_cost_per_accepted,
            "sla_violation_ratio": summary.sla_violation_ratio,
        }
    variant_names = list(rows.keys())
    return {
        "figure": "ablation_reward_weights",
        "x_label": "reward variant",
        "y_label": "metric value",
        "x": variant_names,
        "series": {
            metric: [rows[name][metric] for name in variant_names]
            for metric in (
                "acceptance_ratio",
                "mean_latency_ms",
                "mean_cost_per_accepted",
                "sla_violation_ratio",
            )
        },
    }


# --------------------------------------------------------------------------- #
# Ablation B — agent variants
# --------------------------------------------------------------------------- #
def figure_agent_ablation(
    config: Optional[ExperimentConfig] = None,
    variants: Optional[List[str]] = None,
) -> Dict[str, object]:
    """Ablation B — DQN vs Double vs Dueling vs tabular Q on the same scenario."""
    config = config or ExperimentConfig.fast()
    variants = variants or ["dqn", "double", "dueling"]
    scenario = build_reference_scenario(config)

    results: Dict[str, Dict[str, float]] = {}
    for variant in variants:
        venv = make_vec_env(
            [scenario],
            env_config=config.manager_config().env,
            auto_reset=False,
            derive_lane_seeds=False,
        )
        agent = make_dqn_variant(
            variant,
            venv.state_dim,
            venv.num_actions,
            config=config.dqn_config(),
            seed=derive_seed(config.seed, "agent_ablation", variant),
        )
        trainer = VecTrainer(
            venv,
            agent,
            TrainingConfig(
                num_episodes=config.training_episodes,
                evaluation_interval=max(5, config.training_episodes // 2),
                evaluation_episodes=2,
            ),
        )
        trainer.train()
        evaluation = trainer.evaluate(3)
        results[agent.name] = {
            "mean_reward": evaluation.mean_reward,
            "mean_acceptance": evaluation.mean_acceptance,
            "mean_latency_ms": evaluation.mean_latency_ms,
        }
    agent_names = list(results.keys())
    return {
        "figure": "ablation_agent_variants",
        "x_label": "agent variant",
        "y_label": "greedy evaluation metric",
        "x": agent_names,
        "series": {
            metric: [results[name][metric] for name in agent_names]
            for metric in ("mean_reward", "mean_acceptance", "mean_latency_ms")
        },
    }
