"""Microbenchmark of batched vs serial baseline-policy evaluation.

PR 4 unifies heuristics and learned agents behind one batched
``PlacementPolicy`` protocol so the comparison figures can evaluate every
policy through K vectorized environment lanes.  This benchmark guards the two
halves of that claim over a K=16 scenario-diverse load sweep:

* ``decision_throughput`` — the headline: for each kernelized heuristic, the
  time spent producing placement decisions per batched step on the
  production lane core (the SoA core's ``(K, A)`` mask kernel + one
  vectorized ``select_actions`` over its decision context) versus the
  per-request reference on reference lanes: each lane's request planned by
  the policy's per-node oracle (``tests/baseline_oracles.py``: one scalar
  fit check and one score call per node, ``min()`` over the candidate
  list).
  Production ``plan_assignment`` calls the kernels' own score functions, so
  timing it would compare ledger scoring with itself rather than batching
  with per-object planning.  Both drives run identically-seeded lane
  batches and the decisions are asserted identical step by step.  The
  aggregate speedup at K=16 must be **>= 4x**.
* ``sweep_eval`` — context numbers: end-to-end wall-clock of evaluating a
  policy over the whole 16-point sweep through vec lanes versus the serial
  per-request ``NFVSimulation`` loop, for a representative heuristic and for
  an (untrained, reference-size) DQN agent whose forward passes the vec path
  batches.  Recorded honestly, no bar: heuristic lanes pay environment
  bookkeeping the bare simulator does not, so their end-to-end win comes
  from the decision path above, while the agent side gains from batching
  one forward pass over K lanes.  Both sides run the production policies.

Run standalone::

    PYTHONPATH=src:. python benchmarks/bench_policyeval.py           # full
    PYTHONPATH=src:. python benchmarks/bench_policyeval.py --smoke   # seconds

Raw numbers are persisted to ``benchmarks/results/policyeval.json``.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List

import numpy as np

from repro.agents.dqn import DQNAgent, DQNConfig
from repro.baselines import (
    BestFitPolicy,
    CloudOnlyPolicy,
    EdgeOnlyPolicy,
    FirstFitPolicy,
    GreedyCheapestPolicy,
    GreedyLeastLoadedPolicy,
    GreedyNearestPolicy,
)
from repro.core.env import EnvConfig
from repro.core.policy import DRLPlacementPolicy
from repro.core.soa import SoAVecPlacementEnv
from repro.core.vecenv import VecPlacementEnv
from repro.experiments.runner import (
    evaluate_agent_across_scenarios,
    evaluate_baseline_across_scenarios,
)
from repro.sim.simulation import NFVSimulation, PlacementPolicy, SimulationConfig
from repro.workloads.scenarios import Scenario, reference_scenario, scenario_grid
from tests.baseline_oracles import ORACLES

#: Required aggregate decision-throughput speedup of the batched path at K=16.
MIN_SPEEDUP_K16 = 4.0

K_LANES = 16
DECISION_STEPS = 400
SWEEP_EPISODES = 1
SEED = 0

#: The heuristics with vectorized ``select_actions`` kernels.
KERNEL_POLICIES: Dict[str, Callable[[], object]] = {
    "greedy_nearest": GreedyNearestPolicy,
    "greedy_least_loaded": GreedyLeastLoadedPolicy,
    "greedy_cheapest": GreedyCheapestPolicy,
    "first_fit": FirstFitPolicy,
    "best_fit": BestFitPolicy,
    "cloud_only": CloudOnlyPolicy,
    "edge_only": EdgeOnlyPolicy,
}


def _grid(num_lanes: int = K_LANES) -> List[Scenario]:
    # The paper's reference topology size: the decision-path comparison
    # should reflect the substrate the figures actually sweep.
    base = reference_scenario(
        arrival_rate=0.8, num_edge_nodes=16, horizon=200.0, seed=SEED
    )
    rates = [round(0.3 + 0.06 * i, 3) for i in range(num_lanes)]
    return scenario_grid(base, arrival_rates=rates)


def _env_config() -> EnvConfig:
    # Capacity-only masks: the per-object reference planners have no latency
    # pre-check either, so both paths see identical candidate sets.
    return EnvConfig(requests_per_episode=40, latency_mask_check=False)


def measure_decision_throughput(
    policy_factory: Callable[[], object],
    num_lanes: int = K_LANES,
    steps: int = DECISION_STEPS,
) -> Dict[str, float]:
    """Decision-path time of the batched kernel vs the per-request reference.

    Two identically-seeded lane batches advance in lockstep, the batched
    side on the SoA core heuristics are evaluated on and the reference side
    on reference lanes; only the decision work is timed (mask kernel +
    batched ``select_actions`` on one side, per-lane planning by the
    policy's per-object oracle on the other).  Decisions are asserted
    identical at every step — the timing is only meaningful because the
    trajectories are.
    """
    grid = _grid(num_lanes)
    venv_batched = SoAVecPlacementEnv.from_scenarios(
        grid, seed=SEED, env_config=_env_config()
    )
    venv_reference = VecPlacementEnv.from_scenarios(
        grid, seed=SEED, env_config=_env_config()
    )
    batched = policy_factory().bind_lanes(venv_batched)
    reference = ORACLES[policy_factory]().bind_lanes(venv_reference)
    venv_batched.reset(observe=False)
    venv_reference.reset(observe=False)

    batched_s = 0.0
    reference_s = 0.0
    for _ in range(steps):
        start = time.perf_counter()
        masks = venv_batched.valid_action_masks()
        batched_actions = batched.select_actions(masks=masks)
        batched_s += time.perf_counter() - start

        start = time.perf_counter()
        reference_actions = PlacementPolicy.select_actions(reference)
        reference_s += time.perf_counter() - start

        assert np.array_equal(batched_actions, reference_actions), (
            f"{batched.name}: batched and reference decisions diverged"
        )
        venv_batched.step(batched_actions, observe=False)
        venv_reference.step(reference_actions, observe=False)

    decisions = steps * num_lanes
    return {
        "lanes": num_lanes,
        "decisions": decisions,
        "batched_s": batched_s,
        "reference_s": reference_s,
        "batched_decisions_per_s": decisions / batched_s,
        "reference_decisions_per_s": decisions / reference_s,
        "speedup": reference_s / batched_s,
    }


def measure_heuristic_sweep(
    policy_factory: Callable[[], object],
    num_lanes: int = K_LANES,
    episodes_per_scenario: int = SWEEP_EPISODES,
) -> Dict[str, float]:
    """End-to-end sweep evaluation: vec lanes vs serial per-request loop."""
    grid = _grid(num_lanes)

    start = time.perf_counter()
    vec_results = evaluate_baseline_across_scenarios(
        policy_factory(),
        grid,
        episodes_per_scenario=episodes_per_scenario,
        seed=SEED,
        env_config=_env_config(),
    )
    vec_s = time.perf_counter() - start
    vec_requests = 40 * episodes_per_scenario * num_lanes

    start = time.perf_counter()
    serial_requests = 0
    for cell in grid:
        network = cell.build_network()
        requests = cell.generate_requests()
        simulation = NFVSimulation(
            network,
            policy_factory(),
            SimulationConfig(horizon=cell.workload_config.horizon),
        )
        simulation.run(requests)
        serial_requests += len(requests)
    serial_s = time.perf_counter() - start

    return {
        "lanes": num_lanes,
        "vec_requests_per_s": vec_requests / vec_s,
        "serial_requests_per_s": serial_requests / serial_s,
        "speedup": (vec_requests / vec_s) / (serial_requests / serial_s),
        "vec_mean_acceptance": float(
            np.mean([r.mean_acceptance for r in vec_results])
        ),
    }


def measure_agent_sweep(
    num_lanes: int = K_LANES, episodes_per_scenario: int = SWEEP_EPISODES
) -> Dict[str, float]:
    """The DRL side: batched lane evaluation vs per-request serial policy."""
    grid = _grid(num_lanes)
    probe = VecPlacementEnv.from_scenarios(grid, seed=SEED, env_config=_env_config())
    agent = DQNAgent(
        probe.state_dim,
        probe.num_actions,
        DQNConfig(hidden_layers=(128, 128)),
        seed=SEED,
    )

    start = time.perf_counter()
    evaluate_agent_across_scenarios(
        agent,
        grid,
        episodes_per_scenario=episodes_per_scenario,
        seed=SEED,
        env_config=_env_config(),
    )
    vec_s = time.perf_counter() - start
    vec_requests = 40 * episodes_per_scenario * num_lanes

    start = time.perf_counter()
    serial_requests = 0
    for cell in grid:
        network = cell.build_network()
        requests = cell.generate_requests()
        policy = DRLPlacementPolicy(agent, network, cell.catalog)
        NFVSimulation(
            network, policy, SimulationConfig(horizon=cell.workload_config.horizon)
        ).run(requests)
        serial_requests += len(requests)
    serial_s = time.perf_counter() - start

    return {
        "lanes": num_lanes,
        "vec_requests_per_s": vec_requests / vec_s,
        "serial_requests_per_s": serial_requests / serial_s,
        "speedup": (vec_requests / vec_s) / (serial_requests / serial_s),
    }


def run_policyeval_benchmark(
    steps: int = DECISION_STEPS,
    num_lanes: int = K_LANES,
    check_speedup: bool = True,
    include_sweep: bool = True,
) -> Dict[str, object]:
    """Run all measurements, persist the JSON and check the speedup bar."""
    decision: Dict[str, Dict[str, float]] = {
        name: measure_decision_throughput(factory, num_lanes, steps)
        for name, factory in KERNEL_POLICIES.items()
    }
    total_batched = sum(row["batched_s"] for row in decision.values())
    total_reference = sum(row["reference_s"] for row in decision.values())
    aggregate = total_reference / total_batched
    results: Dict[str, object] = {
        "config": {
            "scenario_family": "reference-16edges load grid",
            "k_lanes": num_lanes,
            "decision_steps": steps,
            "kernel_policies": sorted(KERNEL_POLICIES),
            "seed": SEED,
        },
        "decision_throughput": decision,
        "aggregate_decision_speedup": aggregate,
    }
    if include_sweep:
        results["sweep_eval"] = {
            "greedy_nearest": measure_heuristic_sweep(GreedyNearestPolicy, num_lanes),
            "drl_dqn_untrained": measure_agent_sweep(num_lanes),
        }

    from benchmarks.common import RESULTS_DIR
    from repro.utils.serialization import save_json

    save_json(results, RESULTS_DIR / "policyeval.json")
    if check_speedup:
        assert aggregate >= MIN_SPEEDUP_K16, (
            f"batched baseline decisions are only {aggregate:.1f}x the serial "
            f"reference at K={num_lanes} (required: {MIN_SPEEDUP_K16}x)"
        )
    return results


def run_smoke() -> Dict[str, float]:
    """Seconds-fast perf regression guard for CI.

    Two representative kernels over a short drive, with a conservative 2x
    bar (the full benchmark's bar is 4x over a longer measurement).
    """
    rows = [
        measure_decision_throughput(GreedyNearestPolicy, K_LANES, steps=80),
        measure_decision_throughput(FirstFitPolicy, K_LANES, steps=80),
    ]
    total_batched = sum(row["batched_s"] for row in rows)
    total_reference = sum(row["reference_s"] for row in rows)
    speedup = total_reference / total_batched
    assert speedup >= 2.0, (
        f"batched baseline decisions are only {speedup:.1f}x the serial "
        "reference on the smoke measurement (required: 2x)"
    )
    return {
        "batched_decisions_per_s": sum(
            row["decisions"] for row in rows
        ) / total_batched,
        "reference_decisions_per_s": sum(
            row["decisions"] for row in rows
        ) / total_reference,
        "speedup": speedup,
    }


def bench_policyeval(benchmark) -> None:
    """pytest-benchmark entry point matching the figure benchmarks."""
    results = benchmark.pedantic(
        run_policyeval_benchmark, rounds=1, iterations=1, warmup_rounds=0
    )
    assert results["aggregate_decision_speedup"] >= MIN_SPEEDUP_K16


def main() -> None:
    import sys

    if "--smoke" in sys.argv:
        smoke = run_smoke()
        print(
            f"policy-eval smoke: batched {smoke['batched_decisions_per_s']:.0f} "
            f"decisions/s vs reference {smoke['reference_decisions_per_s']:.0f} "
            f"decisions/s ({smoke['speedup']:.1f}x, bar: >= 2x)"
        )
        return
    results = run_policyeval_benchmark()
    print(f"decision throughput at K={K_LANES} (batched kernel vs per-request reference)")
    for name, row in results["decision_throughput"].items():
        print(
            f"  {name:20s}: {row['batched_decisions_per_s']:9.0f} vs "
            f"{row['reference_decisions_per_s']:9.0f} decisions/s "
            f"({row['speedup']:.1f}x)"
        )
    print(
        f"  aggregate: {results['aggregate_decision_speedup']:.1f}x "
        f"(bar: >= {MIN_SPEEDUP_K16}x)"
    )
    for name, row in results.get("sweep_eval", {}).items():
        print(
            f"sweep end-to-end [{name}]: vec {row['vec_requests_per_s']:.0f} req/s "
            f"vs serial {row['serial_requests_per_s']:.0f} req/s "
            f"({row['speedup']:.2f}x)"
        )


if __name__ == "__main__":
    main()
