"""Microbenchmark of the environment core and its routing layer.

Six measurements over the dense routing tables (all-pairs latency matrix
with next-hop reconstruction), the array-backed substrate ledger, the
batched state/mask encoding and the request layer that feeds them:

* ``env_step`` — steps/s of the single-environment decision loop
  (``valid_action_mask()`` + ``step()``, which encodes the next state) over
  masked-random episodes on the default metro/cloud topology;
* ``env_step_k1`` — µs per step of the same masked-random loop through the
  vectorized surface on one lane (``valid_action_masks()`` + lean
  ``step()``), the loop K=1 training runs, on the paper preset's reference
  scenario; the reference core and the SoA core step the same lane spec in
  alternated rounds;
* ``latency_lookups`` — ``latency_between`` throughput and the build time
  of a fresh ``SubstrateTopology`` (static columns plus Floyd–Warshall) as
  a function of topology size; lookups should stay near-constant in N while
  the build grows as O(N³);
* ``placement_ops`` — µs per call of ``Placement.build``, ``is_feasible``,
  ``commit`` and ``release`` over one reference-scenario trace, replayed
  the way the simulator and the serving loop drive placements;
* ``plan_ops`` — µs per ``plan_assignment`` call of each
  ``standard_baselines`` policy over the same trace, replayed the same way
  with each policy committing its own feasible plans (random's plan time
  includes routing its draws, since it retries a draw that does not fit),
  and the ``chain_fits`` calls a plan makes, counted on one more, untimed
  pass;
* ``request_ops`` — µs per call of ``RequestGenerator.sample_request``, of
  a fresh chain's first ``demand_rows`` read and of the SoA core's
  ``_request_view`` over the arrival times of the same trace.

Run standalone::

    PYTHONPATH=src:. python benchmarks/bench_envstep.py

Raw numbers are persisted to ``benchmarks/results/envstep.json``.  No speed
bar is asserted: the behaviour of the routing layer is pinned by
``tests/test_substrate_vectorized.py`` against networkx Dijkstra and the
per-object oracles.
"""

from __future__ import annotations

import heapq
import time
from operator import attrgetter
from typing import Dict, List

import numpy as np

from repro.baselines import GreedyLeastLoadedPolicy, standard_baselines
from repro.core.env import EnvConfig, VNFPlacementEnv
from repro.core.soa import SoAVecPlacementEnv
from repro.core.vecenv import VecPlacementEnv, lane_specs_from_scenarios
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import build_reference_scenario
import repro.nfv.placement as placement_module
from repro.nfv.placement import Placement
from repro.nfv.sfc import ServiceFunctionChain
from repro.substrate.network import SubstrateTopology
from repro.substrate.topology import (
    TopologyConfig,
    metro_edge_cloud_topology,
    scaled_topology,
)
from repro.utils.rng import derive_seed
from repro.workloads.generator import RequestGenerator, WorkloadConfig
from repro.workloads.scenarios import reference_scenario

EPISODES = 4
REQUESTS_PER_EPISODE = 60
SEED = 0
#: The placement trace: the reference scenario at a load that fills nodes.
PLACEMENT_ARRIVAL_RATE = 1.2
PLACEMENT_HORIZON = 600.0
PLACEMENT_REPEATS = 5
PLACEMENT_OPS = ("build", "is_feasible", "commit", "release")
PLAN_REPEATS = 5
REQUEST_REPEATS = 5
REQUEST_OPS = ("sample_request", "demand_rows", "request_view")
#: One-lane loop: alternated rounds per core and steps per round.
K1_ROUNDS = 6
K1_STEPS = 3000
K1_CORES = {"reference": VecPlacementEnv, "soa": SoAVecPlacementEnv}


def _make_env() -> VNFPlacementEnv:
    network = metro_edge_cloud_topology(TopologyConfig(seed=SEED))
    generator = RequestGenerator(network, config=WorkloadConfig(seed=SEED))
    return VNFPlacementEnv(
        network,
        generator,
        config=EnvConfig(requests_per_episode=REQUESTS_PER_EPISODE),
    )


def _drive_episodes(env: VNFPlacementEnv, episodes: int) -> Dict[str, float]:
    """Run masked-random episodes; returns steps/s over the decision loop.

    Each step performs exactly what a training loop performs per decision:
    one ``valid_action_mask()``, one ``step()`` and one state encoding (the
    encoding happens inside ``step`` when it observes the next state).
    Request sampling (``env.reset``) and the random-action draw happen
    outside the timed section so the numbers isolate the environment cost.
    """
    rng = np.random.default_rng(SEED)
    steps = 0
    accepted = 0
    elapsed = 0.0
    for _ in range(episodes):
        env.reset()
        draws = iter(rng.random(size=64 * REQUESTS_PER_EPISODE).tolist())
        done = False
        start = time.perf_counter()
        while not done:
            mask = env.valid_action_mask()
            choices = np.flatnonzero(mask)
            action = int(choices[int(next(draws) * len(choices))])
            _, _, done, info = env.step(action)
            steps += 1
            if info.get("outcome") == "accepted":
                accepted += 1
        elapsed += time.perf_counter() - start
    return {
        "steps": steps,
        "accepted_requests": accepted,
        "elapsed_s": elapsed,
        "steps_per_s": steps / elapsed,
    }


def measure_env_step(episodes: int = EPISODES) -> Dict[str, float]:
    """steps/s of the env.step() decision loop on the default topology."""
    env = _make_env()
    _drive_episodes(env, 1)  # warm caches / JIT-ish effects out of the timing
    return _drive_episodes(env, episodes)


def _k1_round(venv, steps: int, seed: int) -> Dict[str, float]:
    """µs per masked-random step (mask + lean step) of a one-lane set.

    The action draw and the restarts between episodes (``reset_lane``, the
    cost of sampling an episode's requests) fall outside the timed spans.
    """
    rng = np.random.default_rng(seed)
    draws = rng.random(size=steps).tolist()
    clock = time.perf_counter
    elapsed = 0.0
    total_reward = 0.0
    venv.reset()
    for draw in draws:
        start = clock()
        masks = venv.valid_action_masks()
        picked = clock()
        choices = np.flatnonzero(masks[0])
        actions = [int(choices[int(draw * len(choices))])]
        stepping = clock()
        _, rewards, dones, _ = venv.step(actions, info=False)
        elapsed += (picked - start) + (clock() - stepping)
        total_reward += float(rewards[0])
        if dones[0]:
            venv.reset_lane(0)
    return {"us_per_step": elapsed / steps * 1e6, "total_reward": total_reward}


def measure_env_step_k1(
    rounds: int = K1_ROUNDS, steps: int = K1_STEPS
) -> Dict[str, object]:
    """µs per step of the one-lane loop on each core, in alternated rounds.

    Both cores build the same lane spec (the paper preset's reference
    scenario on its own workload seed, no auto-reset, as K=1 training
    builds it) and take the same action draws, so each round's two sides
    step identical trajectories; their reward sums are asserted equal.
    """
    config = ExperimentConfig.paper()
    scenario = build_reference_scenario(config)
    specs = lane_specs_from_scenarios(
        [scenario],
        seed=SEED,
        env_config=config.manager_config().env,
        derive_lane_seeds=False,
    )
    samples: Dict[str, List[float]] = {core: [] for core in K1_CORES}
    ratios: List[float] = []
    order = list(K1_CORES)
    for index in range(rounds + 1):  # round 0 warms both cores, untimed
        seed = derive_seed(SEED, "env_step_k1", index)
        rows = {}
        for core in order:
            venv = K1_CORES[core].from_specs(specs, auto_reset=False)
            rows[core] = _k1_round(venv, steps, seed)
        assert rows["reference"]["total_reward"] == rows["soa"]["total_reward"]
        order.reverse()
        if index == 0:
            continue
        for core, row in rows.items():
            samples[core].append(row["us_per_step"])
        ratios.append(rows["soa"]["us_per_step"] / rows["reference"]["us_per_step"])
    return {
        "scenario": scenario.name,
        "requests_per_episode": config.requests_per_episode,
        "rounds": rounds,
        "steps_per_round": steps,
        "us_per_step": {core: float(np.median(rows)) for core, rows in samples.items()},
        "us_per_step_range": {
            core: [min(rows), max(rows)] for core, rows in samples.items()
        },
        "soa_over_reference": float(np.median(ratios)),
    }


def measure_latency_lookups(
    sizes: List[int] = [16, 32, 64, 128], lookups: int = 20_000
) -> List[Dict[str, float]]:
    """Latency-lookup throughput and matrix build time vs topology size."""
    rows: List[Dict[str, float]] = []
    for size in sizes:
        network = scaled_topology(size, seed=SEED)
        network.topology  # the network's own build, outside both timers
        ids = network.node_ids
        rng = np.random.default_rng(SEED)
        pairs = [
            (int(a), int(b))
            for a, b in zip(
                rng.choice(ids, size=lookups), rng.choice(ids, size=lookups)
            )
        ]
        start = time.perf_counter()
        SubstrateTopology(network.nodes(), network.links())  # one fresh routing build
        build_s = time.perf_counter() - start

        start = time.perf_counter()
        for a, b in pairs:
            network.latency_between(a, b)
        dense_rate = lookups / (time.perf_counter() - start)

        rows.append(
            {
                "num_nodes": len(ids),
                "matrix_build_s": build_s,
                "dense_lookups_per_s": dense_rate,
            }
        )
    return rows


def _replay_placements(scenario, requests, policy) -> Dict[str, List[float]]:
    """One pass of the trace on a new network: (calls, seconds) per op.

    The scenario's networks share one topology, so every pass after the
    first routes from a warm route table.

    Per arrival: release the departed placements, plan with ``policy``,
    build, check, check again (the re-validation at commit time) and commit.
    The plan is timed too, as ``"plan"``.
    """
    network = scenario.build_network()
    totals = {op: [0, 0.0] for op in ("plan",) + PLACEMENT_OPS}
    live: List[tuple] = []
    clock = time.perf_counter

    def timed(op: str, call, *args):
        start = clock()
        result = call(*args)
        entry = totals[op]
        entry[0] += 1
        entry[1] += clock() - start
        return result

    for request in requests:
        while live and live[0][0] <= request.arrival_time:
            timed("release", heapq.heappop(live)[2].release, network)
        assignment = timed("plan", policy.plan_assignment, request, network)
        if assignment is None:
            continue
        placement = timed("build", Placement.build, request, assignment, network)
        if not (
            timed("is_feasible", placement.is_feasible, network)
            and timed("is_feasible", placement.is_feasible, network)
        ):
            continue
        timed("commit", placement.commit, network)
        heapq.heappush(live, (request.departure_time, request.request_id, placement))
    return totals


def measure_placement_ops(repeats: int = PLACEMENT_REPEATS) -> Dict[str, object]:
    """µs per call of each placement operation (best mean of ``repeats`` passes)."""
    scenario = reference_scenario(
        arrival_rate=PLACEMENT_ARRIVAL_RATE, horizon=PLACEMENT_HORIZON, seed=SEED
    )
    requests = scenario.generate_requests()
    policy = GreedyLeastLoadedPolicy()
    best = {op: float("inf") for op in PLACEMENT_OPS}
    calls: Dict[str, int] = {}
    for _ in range(repeats):
        totals = _replay_placements(scenario, requests, policy)
        for op in PLACEMENT_OPS:
            calls[op], seconds = totals[op]
            best[op] = min(best[op], seconds / max(calls[op], 1) * 1e6)
    return {
        "trace": {
            "scenario": scenario.name,
            "arrival_rate": PLACEMENT_ARRIVAL_RATE,
            "horizon": PLACEMENT_HORIZON,
            "requests": len(requests),
            "policy": policy.name,
            "repeats": repeats,
        },
        "calls": calls,
        "us_per_call": best,
    }


def _chain_fits_per_plan(scenario, requests, policy) -> float:
    """``chain_fits`` calls per ``plan_assignment`` over one untimed pass.

    Only the checks a plan makes count, not the replay's own checks of the
    plans it commits.
    """
    fits = placement_module.chain_fits
    plan = policy.plan_assignment
    counts = {"plans": 0, "chain_fits": 0}
    planning = [False]

    def counted_fits(*args):
        counts["chain_fits"] += planning[0]
        return fits(*args)

    def counted_plan(request, network):
        counts["plans"] += 1
        planning[0] = True
        try:
            return plan(request, network)
        finally:
            planning[0] = False

    placement_module.chain_fits = counted_fits
    policy.plan_assignment = counted_plan
    try:
        _replay_placements(scenario, requests, policy)
    finally:
        placement_module.chain_fits = fits
        del policy.plan_assignment
    return counts["chain_fits"] / max(counts["plans"], 1)


def measure_plan_ops(
    repeats: int = PLAN_REPEATS, horizon: float = PLACEMENT_HORIZON
) -> Dict[str, object]:
    """µs per ``plan_assignment`` call of each standard baseline (best mean of
    ``repeats``), and the ``chain_fits`` calls per plan."""
    scenario = reference_scenario(
        arrival_rate=PLACEMENT_ARRIVAL_RATE, horizon=horizon, seed=SEED
    )
    requests = scenario.generate_requests()
    best: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    fits_per_plan: Dict[str, float] = {}
    for policy in standard_baselines(seed=SEED):
        best[policy.name] = float("inf")
        for _ in range(repeats):
            count, seconds = _replay_placements(scenario, requests, policy)["plan"]
            calls[policy.name] = count
            best[policy.name] = min(best[policy.name], seconds / max(count, 1) * 1e6)
        fits_per_plan[policy.name] = _chain_fits_per_plan(scenario, requests, policy)
    return {
        "trace": {
            "scenario": scenario.name,
            "arrival_rate": PLACEMENT_ARRIVAL_RATE,
            "horizon": horizon,
            "requests": len(requests),
            "repeats": repeats,
        },
        "calls": calls,
        "us_per_call": best,
        "chain_fits_per_plan": fits_per_plan,
    }


def _request_pass(generator, times, env) -> Dict[str, List[float]]:
    """One pass over the arrival times: (calls, seconds) per request op.

    ``generator`` draws each request; the SoA core then describes it (its
    first ``demand_rows`` read happens there, as on a lane), and an unread
    twin of its chain times the ``demand_rows`` build alone.
    """
    totals = {op: [0, 0.0] for op in REQUEST_OPS}
    clock = time.perf_counter
    read_rows = attrgetter("demand_rows")

    def timed(op: str, call, arg):
        start = clock()
        result = call(arg)
        entry = totals[op]
        entry[0] += 1
        entry[1] += clock() - start
        return result

    for arrival in times:
        request = timed("sample_request", generator.sample_request, arrival)
        timed("request_view", env._request_view, request)
        chain = request.chain
        twin = ServiceFunctionChain(
            chain.vnf_types, chain.bandwidth_mbps, chain.service_class
        )
        timed("demand_rows", read_rows, twin)
    return totals


def measure_request_ops(
    repeats: int = REQUEST_REPEATS, horizon: float = PLACEMENT_HORIZON
) -> Dict[str, object]:
    """µs per call of drawing and describing a request (best mean of ``repeats``)."""
    scenario = reference_scenario(
        arrival_rate=PLACEMENT_ARRIVAL_RATE, horizon=horizon, seed=SEED
    )
    network = scenario.build_network()
    times = list(scenario.build_arrival_process().arrival_times(horizon))
    env = SoAVecPlacementEnv.from_scenario(scenario, num_lanes=1, seed=SEED)
    best = {op: float("inf") for op in REQUEST_OPS}
    for repeat in range(repeats):
        # A new workload seed per pass: no pass redraws an earlier pass's
        # bandwidths, just as a lane never sees one twice.
        generator = scenario.with_workload_seed(
            derive_seed(SEED, "request_ops", repeat)
        ).build_generator(network)
        for op, (count, seconds) in _request_pass(generator, times, env).items():
            best[op] = min(best[op], seconds / max(count, 1) * 1e6)
    return {
        "trace": {
            "scenario": scenario.name,
            "arrival_rate": PLACEMENT_ARRIVAL_RATE,
            "horizon": horizon,
            "requests": len(times),
            "repeats": repeats,
        },
        "us_per_call": best,
    }


def run_envstep_benchmark(episodes: int = EPISODES) -> Dict[str, object]:
    """Run every microbenchmark and persist the JSON."""
    results: Dict[str, object] = {
        "config": {
            "topology": "metro_edge_cloud_topology(default)",
            "episodes": episodes,
            "requests_per_episode": REQUESTS_PER_EPISODE,
            "seed": SEED,
        },
        "env_step": measure_env_step(episodes),
        "env_step_k1": measure_env_step_k1(),
        "latency_lookups": measure_latency_lookups(),
        "placement_ops": measure_placement_ops(),
        "plan_ops": measure_plan_ops(),
        "request_ops": measure_request_ops(),
    }
    from benchmarks.common import RESULTS_DIR
    from repro.utils.serialization import save_json

    save_json(results, RESULTS_DIR / "envstep.json")
    return results


def bench_envstep(benchmark) -> None:
    """pytest-benchmark entry point matching the figure benchmarks."""
    results = benchmark.pedantic(
        run_envstep_benchmark, rounds=1, iterations=1, warmup_rounds=0
    )
    assert results["env_step"]["steps"] > 0


def main() -> None:
    results = run_envstep_benchmark()
    env_step = results["env_step"]
    print("env.step() full agent loop (default topology)")
    print(
        f"  {env_step['steps']} steps, {env_step['accepted_requests']} accepted: "
        f"{env_step['steps_per_s']:10.0f} steps/s"
    )
    k1 = results["env_step_k1"]
    print(f"one-lane vec loop ({k1['scenario']}, median of {k1['rounds']} rounds)")
    for core, us in k1["us_per_step"].items():
        print(f"  {core:9s} {us:8.2f} us/step")
    print(f"  soa/reference {k1['soa_over_reference']:.2f}")
    print("latency lookups (per second)")
    for row in results["latency_lookups"]:
        print(
            f"  n={row['num_nodes']:4d}  dense {row['dense_lookups_per_s']:12.0f}"
            f"  (matrix build {row['matrix_build_s'] * 1e3:.1f} ms)"
        )
    placement = results["placement_ops"]
    print(f"placement ops ({placement['trace']['requests']} reference requests)")
    for op, us in placement["us_per_call"].items():
        print(f"  {op:12s} {us:8.2f} us/call  ({placement['calls'][op]} calls)")
    plan_ops = results["plan_ops"]
    print(f"plan ops ({plan_ops['trace']['requests']} reference requests)")
    for name, us in plan_ops["us_per_call"].items():
        print(
            f"  {name:20s} {us:8.2f} us/plan  ({plan_ops['calls'][name]} calls, "
            f"{plan_ops['chain_fits_per_plan'][name]:.2f} chain_fits/plan)"
        )
    request_ops = results["request_ops"]
    print(f"request ops ({request_ops['trace']['requests']} reference arrivals)")
    for op, us in request_ops["us_per_call"].items():
        print(f"  {op:14s} {us:8.2f} us/call")


if __name__ == "__main__":
    main()
