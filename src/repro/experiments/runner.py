"""Shared runners used by the figure/table reproduction functions.

Policies are compared on one shared trace with
:func:`repro.sim.simulation.run_policy_comparison`: each policy simulates on
its own fresh substrate copy, so no run can see another's allocations.
"""

from __future__ import annotations

from dataclasses import replace as dataclass_replace
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from repro.agents.base import Agent
from repro.baselines import standard_baselines
from repro.core.env import EnvConfig
from repro.core.manager import VNFManager
from repro.core.reward import RewardConfig
from repro.core.state import EncoderConfig
from repro.core.training import EvaluationResult
from repro.core.vecenv import make_vec_env
from repro.experiments.config import ExperimentConfig
from repro.sim.failures import FailureConfig
from repro.sim.simulation import (
    NFVSimulation,
    PlacementPolicy,
    SimulationConfig,
    SimulationResult,
    # Old name kept: benchmarks/e2e/workloads.py patches and times it here.
    run_policy_comparison as parallel_policy_comparison,
)
from repro.utils.rng import RandomState, derive_seed
from repro.workloads.scenarios import Scenario, reference_scenario

#: Anything that speaks the batched acting protocol: a learning agent or a
#: lane-bindable placement policy.
BatchedPolicy = Union[Agent, PlacementPolicy]


def build_reference_scenario(
    config: ExperimentConfig, arrival_rate: Optional[float] = None
) -> Scenario:
    """The reference scenario at the experiment's scale and (optional) load."""
    return reference_scenario(
        arrival_rate=arrival_rate or config.reference_arrival_rate,
        num_edge_nodes=config.num_edge_nodes,
        horizon=config.evaluation_horizon,
        seed=config.seed,
    )


def train_manager(
    scenario: Scenario,
    config: ExperimentConfig,
    reward: Optional[RewardConfig] = None,
    verbose: bool = False,
) -> VNFManager:
    """Train a DQN-based manager on ``scenario`` with the experiment settings."""
    manager = VNFManager(
        scenario,
        config=config.manager_config(reward),
        seed=derive_seed(config.seed, "manager", scenario.name),
    )
    manager.train(verbose=verbose)
    return manager


def evaluate_policies(
    scenario: Scenario,
    policies: Sequence[PlacementPolicy],
    horizon: Optional[float] = None,
) -> List[SimulationResult]:
    """Run every policy over the scenario's trace on fresh substrate copies.

    Results keep the order of ``policies``.
    """
    requests = scenario.generate_requests(horizon=horizon)
    simulation_config = SimulationConfig(
        horizon=horizon or scenario.workload_config.horizon
    )
    return parallel_policy_comparison(
        network_factory=scenario.build_network,
        policies=list(policies),
        requests=requests,
        config=simulation_config,
    )


def evaluate_drl_and_baselines(
    scenario: Scenario,
    manager: VNFManager,
    config: ExperimentConfig,
    include_baselines: bool = True,
    max_workers: Optional[int] = None,
) -> Dict[str, SimulationResult]:
    """Evaluate the trained DRL policy and the standard baselines.

    The DRL policy needs its encoder bound to the *same network object* the
    simulation mutates, so it is constructed per evaluation via a small
    adapter around :meth:`VNFManager.build_policy`.

    ``max_workers`` is ignored: the baselines are compared one after another
    in this process.  It is accepted because the end-to-end benchmark
    harness (``benchmarks/e2e/workloads.py``) still passes it.
    """
    requests = scenario.generate_requests()
    simulation_config = SimulationConfig(horizon=scenario.workload_config.horizon)
    results: Dict[str, SimulationResult] = {}

    # DRL policy: build network first, bind the policy to it, then simulate.
    drl_network = scenario.build_network()
    drl_policy = manager.build_policy(drl_network)
    drl_result = NFVSimulation(drl_network, drl_policy, simulation_config).run(requests)
    results[drl_policy.name] = drl_result

    if include_baselines:
        baselines = standard_baselines(seed=derive_seed(config.seed, "baselines"))
        baseline_results = parallel_policy_comparison(
            network_factory=scenario.build_network,
            policies=baselines,
            requests=requests,
            config=simulation_config,
        )
        for policy, result in zip(baselines, baseline_results):
            results[policy.name] = result
    return results


def evaluate_agent_across_scenarios(
    agent: BatchedPolicy,
    scenarios: Sequence[Scenario],
    episodes_per_scenario: int = 2,
    seed: RandomState = 0,
    env_config: Optional[EnvConfig] = None,
    reward_config: Optional[RewardConfig] = None,
    encoder_config: Optional[EncoderConfig] = None,
    max_steps_per_episode: int = 2000,
    failure_config: Optional[FailureConfig] = None,
) -> List[EvaluationResult]:
    """Greedy-evaluate one batched policy over a scenario-diverse vec batch.

    Builds a vectorized environment with one lane per scenario (e.g. every
    load point of an arrival-rate sweep) and streams all lanes together, so
    the whole sweep is one batched decision loop instead of K serial
    evaluation runs.  Returns one :class:`EvaluationResult` per scenario,
    aggregated over ``episodes_per_scenario`` completed lane episodes.

    ``agent`` is anything speaking the batched acting protocol: a learning
    :class:`~repro.agents.base.Agent`, or a heuristic
    :class:`~repro.sim.simulation.PlacementPolicy` (it is bound to the lanes
    and — since heuristics decide from the lane substrate — state encoding
    is skipped entirely, the lane fast path).  With a ``failure_config``,
    per-lane failure schedules are injected and the returned results carry
    the disruption statistics (an availability sweep).

    Every lane set is built with ``backend="auto"``: the SoA core, or the
    reference core when the lanes mix topologies or configurations.  The
    lane set is closed when the evaluation ends, which frees its episodes
    even while a bound policy still refers to it.

    All scenarios must share the agent's observation and action space (same
    topology size); per-lane workload seeds are derived from ``seed``.
    """
    if episodes_per_scenario <= 0:
        raise ValueError(
            f"episodes_per_scenario must be positive, got {episodes_per_scenario}"
        )
    is_heuristic = isinstance(agent, PlacementPolicy)
    venv = make_vec_env(
        scenarios,
        seed=seed,
        env_config=env_config,
        reward_config=reward_config,
        encoder_config=encoder_config,
        failure_config=failure_config,
        backend="auto",
    )
    try:
        if is_heuristic:
            agent.bind_lanes(venv)
            agent.reset()
        observe = not is_heuristic
        num_lanes = venv.num_lanes
        counts = np.zeros(num_lanes, dtype=int)
        lane_steps = np.zeros(num_lanes, dtype=int)
        per_lane: List[List[Dict[str, float]]] = [[] for _ in range(num_lanes)]
        states = venv.reset(observe=observe)
        while (counts < episodes_per_scenario).any():
            masks = venv.valid_action_masks()
            actions = agent.select_actions(states, masks, greedy=True)
            # Lean-step protocol: evaluation only reads finished-episode
            # stats, so no per-step info dicts are built.
            states, _, dones, _ = venv.step(actions, observe=observe, info=False)
            lane_steps += 1
            lane_stats = None  # fetched once per step, only if a lane truncates
            for lane, done in enumerate(dones):
                truncated = lane_steps[lane] >= max_steps_per_episode
                if not done and not truncated:
                    continue
                if counts[lane] < episodes_per_scenario:
                    if done:
                        stats = venv.last_episode_stats(lane)
                    else:
                        if lane_stats is None:
                            lane_stats = venv.lane_stats()
                        stats = lane_stats[lane].as_dict()
                    per_lane[lane].append(stats)
                    counts[lane] += 1
                if truncated and not done:
                    states[lane] = venv.reset_lane(lane)
                lane_steps[lane] = 0
    finally:
        venv.close()
    return [
        EvaluationResult(
            mean_reward=float(np.mean([s["total_reward"] for s in stats_list])),
            mean_acceptance=float(
                np.mean([s["acceptance_ratio"] for s in stats_list])
            ),
            mean_latency_ms=float(
                np.mean([s["mean_latency_ms"] for s in stats_list])
            ),
            episodes=len(stats_list),
            mean_disrupted=float(
                np.mean([s.get("disrupted", 0) for s in stats_list])
            ),
        )
        for stats_list in per_lane
    ]


def evaluate_baseline_across_scenarios(
    policy: PlacementPolicy,
    scenarios: Sequence[Scenario],
    episodes_per_scenario: int = 2,
    seed: RandomState = 0,
    env_config: Optional[EnvConfig] = None,
    reward_config: Optional[RewardConfig] = None,
    failure_config: Optional[FailureConfig] = None,
) -> List[EvaluationResult]:
    """Evaluate one heuristic baseline over the same vec batch as an agent.

    Thin wrapper over :func:`evaluate_agent_across_scenarios` that gives the
    baseline lanes the serial admission semantics: the capacity-only action
    masks apply ``ledger.can_host_all``, the predicate the baselines'
    ``plan_assignment`` takes its candidates from (no latency pre-mask — the
    policy proposes and the lane rejects SLA-infeasible chains at commit
    time, exactly like :class:`~repro.sim.simulation.NFVSimulation` does
    with :meth:`~repro.sim.simulation.PlacementPolicy.place`).  Pass the same
    ``reward_config`` used for the agent so the reward series of both are
    scored with identical weights.
    """
    env_config = env_config or EnvConfig()
    baseline_env_config = dataclass_replace(env_config, latency_mask_check=False)
    return evaluate_agent_across_scenarios(
        policy,
        scenarios,
        episodes_per_scenario=episodes_per_scenario,
        seed=seed,
        env_config=baseline_env_config,
        reward_config=reward_config,
        failure_config=failure_config,
    )


def vec_sweep_env_eval(
    manager: VNFManager,
    scenarios: Sequence[Scenario],
    config: ExperimentConfig,
    episodes_per_scenario: int = 2,
    baselines: Optional[Sequence[PlacementPolicy]] = None,
    failure_config: Optional[FailureConfig] = None,
) -> Dict[str, object]:
    """JSON-friendly scenario-diverse vec evaluation of a trained manager.

    One batched pass over all sweep points; the environment/reward/encoder
    configuration mirrors the manager's training environment so the numbers
    are comparable with its training-time evaluations.  With ``baselines``,
    each baseline policy is evaluated over an identically-seeded lane batch
    (fresh substrate copies per policy, same request streams) and reported
    under the ``"baselines"`` key; with a ``failure_config`` the whole sweep
    runs fault-injected and gains a ``"mean_disrupted"`` series.
    """
    seed = derive_seed(config.seed, "vec_env_eval")
    results = evaluate_agent_across_scenarios(
        manager.agent,
        scenarios,
        episodes_per_scenario=episodes_per_scenario,
        seed=seed,
        env_config=manager.config.env,
        reward_config=manager.config.reward,
        encoder_config=manager.config.encoder,
        failure_config=failure_config,
    )
    payload: Dict[str, object] = {
        "scenarios": [scenario.name for scenario in scenarios],
        "episodes_per_scenario": episodes_per_scenario,
        "mean_reward": [result.mean_reward for result in results],
        "acceptance_ratio": [result.mean_acceptance for result in results],
        "mean_latency_ms": [result.mean_latency_ms for result in results],
    }
    if failure_config is not None:
        payload["mean_disrupted"] = [result.mean_disrupted for result in results]
    if baselines:
        baseline_payload: Dict[str, Dict[str, List[float]]] = {}
        for policy in baselines:
            baseline_results = evaluate_baseline_across_scenarios(
                policy,
                scenarios,
                episodes_per_scenario=episodes_per_scenario,
                seed=seed,
                env_config=manager.config.env,
                reward_config=manager.config.reward,
                failure_config=failure_config,
            )
            entry = {
                "mean_reward": [r.mean_reward for r in baseline_results],
                "acceptance_ratio": [r.mean_acceptance for r in baseline_results],
                "mean_latency_ms": [r.mean_latency_ms for r in baseline_results],
            }
            if failure_config is not None:
                entry["mean_disrupted"] = [
                    r.mean_disrupted for r in baseline_results
                ]
            baseline_payload[policy.name] = entry
        payload["baselines"] = baseline_payload
    return payload


def results_to_rows(results: Dict[str, SimulationResult]) -> List[Dict[str, object]]:
    """Flatten named simulation results into table rows."""
    rows: List[Dict[str, object]] = []
    for name, result in results.items():
        summary = result.summary
        rows.append(
            {
                "policy": name,
                "acceptance_ratio": round(summary.acceptance_ratio, 4),
                "mean_latency_ms": round(summary.mean_latency_ms, 3),
                "sla_violation_ratio": round(summary.sla_violation_ratio, 4),
                "total_cost": round(summary.total_cost, 2),
                "total_revenue": round(summary.total_revenue, 2),
                "profit": round(summary.profit, 2),
                "mean_edge_utilization": round(summary.mean_edge_utilization, 4),
                "utilization_imbalance": round(summary.mean_utilization_imbalance, 4),
            }
        )
    return rows
