"""The four end-to-end workloads of the benchmark.

Each workload is built once per process from a workload seed (the set-up the
benchmark times) and then runs in rounds.  Every round repeats the same
inputs, so every round must produce the same digest.  Workloads call only
public ``repro.*`` APIs; the program receives generated scenarios and traces.

What the workload seed varies, and what it keeps at the paper preset's seed:

* varied: the content of every request (service chain, ingress, bandwidth,
  SLA, holding time), the vec lanes' request and failure streams, the random
  baseline, and the trained agent's initialisation and exploration;
* kept: the reference substrate, the arrival times of the simulated and
  served traces, the serving chaos schedule, and the untrained DQN's weights
  (one "untrained paper-preset DQN").

What is kept would otherwise dominate the spread between seeds: seed-varied
arrival counts moved the sweep's ``requests_per_s`` by ~15% (fixed per-round
costs weigh differently), and seed-varied chaos or DQN weights moved
``accept_ratio`` by 6% (serving) and 14% (eval) between seeds.

Sizes are function arguments so tests can run each workload in well under a
second; the defaults are the benchmark's (see ``README.md``).
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.baselines import (
    GreedyLeastLoadedPolicy,
    GreedyNearestPolicy,
    standard_baselines,
)
from repro.core.manager import VNFManager
from repro.core.timeout import BudgetedPolicy
from repro.core.training import VecTrainer
from repro.experiments import runner
from repro.experiments.config import ExperimentConfig
from repro.nfv.placement import Placement
from repro.nfv.sfc import SFCRequest, reset_request_counter
from repro.serving import (
    AdmissionConfig,
    FallbackChain,
    OnlinePlacementService,
    ServingConfig,
    ServingReport,
)
from repro.serving import service as serving_service
from repro.sim.arrivals import MMPPProcess
from repro.sim.failures import (
    DomainFailureConfig,
    DomainFailureInjector,
    FailureConfig,
    fault_domains_from_network,
)
from repro.sim.simulation import NFVSimulation
from repro.utils.rng import derive_seed
from repro.utils.serialization import to_jsonable
from repro.workloads.generator import RequestGenerator
from repro.workloads.scenarios import Scenario, reference_scenario, scenario_grid

from .measure import ROOT, Patches, Tracer, quantile, timed

PAPER = ExperimentConfig.paper()


@dataclass
class RoundResult:
    """What one round of a workload did and whether it was correct."""

    requests: int
    wall_s: float
    accept_ratio: float
    digest: str
    decide_ns: List[int]
    #: Requests whose handling broke a checked invariant.
    failed: int = 0
    #: Failed correctness checks, as messages.
    problems: List[str] = field(default_factory=list)
    #: Workload-specific counts, printed and fed to the per-layer metrics.
    counts: Dict[str, float] = field(default_factory=dict)


def digest(payload: object) -> str:
    """SHA-256 of a JSON rendering of deterministic outputs."""
    text = json.dumps(to_jsonable(payload), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def reference_traffic(
    seed: int, horizon: float = PAPER.evaluation_horizon
) -> Scenario:
    """The reference scenario with request contents drawn from ``seed``."""
    return reference_scenario(
        arrival_rate=PAPER.reference_arrival_rate,
        num_edge_nodes=PAPER.num_edge_nodes,
        horizon=horizon,
        seed=PAPER.seed,
    ).with_workload_seed(derive_seed(seed, "workload"))


def _measure(tracer: Optional[Tracer], call: Callable):
    """Run the round's timed call; traced, it becomes the root span."""
    if tracer is not None:
        call = tracer.wrap(ROOT, call)
    start = time.perf_counter()
    result = call()
    return result, time.perf_counter() - start


def _request_at(position: int) -> Callable[[tuple], int]:
    return lambda args: args[position].request_id


# --------------------------------------------------------------------------- #
# Outside-in instrumentation
# --------------------------------------------------------------------------- #
def instrument_program(tracer: Tracer) -> None:
    """Class- and module-level wrappers every workload shares."""
    for method in ("is_feasible", "commit", "release", "satisfies_sla"):
        tracer.patch(
            Placement, method, f"nfv.placement.{method}",
            lambda args: args[0].request.request_id,
        )
    tracer.patch(RequestGenerator, "sample_request", "workloads.sample_request")
    tracer.patch(Scenario, "generate_requests", "workloads.generate_requests")
    tracer.patch(NFVSimulation, "run", "sim.simulation.run")
    tracer.patch(VecTrainer, "run_episodes", "core.training.run_episodes")
    for cls in dict.fromkeys(type(policy) for policy in standard_baselines(seed=0)):
        tracer.patch(cls, "place", f"baselines.{cls.name}.place", _request_at(1))
        tracer.patch(
            cls, "select_actions", f"baselines.{cls.name}.select_actions",
            tracer.next_step,
        )
    tracer.patch(
        runner, "evaluate_agent_across_scenarios", "experiments.runner.evaluate_lanes"
    )
    tracer.patch(
        runner, "parallel_policy_comparison", "experiments.parallel.policy_comparison"
    )
    build_env = runner.make_vec_env

    def make_vec_env(*args, **kwargs):
        venv = build_env(*args, **kwargs)
        instrument_venv(tracer, venv)
        return venv

    tracer.set(runner, "make_vec_env", make_vec_env)
    for name in (
        "refresh_node_fence",
        "refresh_link_fence",
        "release_node_fence",
        "release_link_fence",
    ):
        tracer.patch(serving_service, name, "sim.failures.fence")
    tracer.patch(
        serving_service,
        "placement_traverses_link",
        "sim.failures.placement_traverses_link",
    )


def instrument_venv(tracer: Tracer, venv) -> None:
    """Wrap a vectorized env's lane methods (SoA or reference core)."""
    prefix = "core.soa" if venv.backend == "soa" else "core.vecenv"
    for method in ("step", "valid_action_masks", "reset_lane", "last_episode_stats"):
        tracer.patch(venv, method, f"{prefix}.{method}")


def _forward_name(_args: tuple, kwargs: dict) -> str:
    return "nn.forward_train" if kwargs.get("training") else "nn.forward"


def instrument_manager(tracer: Tracer, manager: VNFManager) -> None:
    """Wrap a manager's agent, its networks and replay, and its trainer env."""
    agent = manager.agent
    tracer.patch(agent, "select_actions", "agents.select_actions", tracer.next_step)
    tracer.patch(agent, "select_action", "agents.select_action")
    tracer.patch(agent, "observe_batch", "agents.observe_batch")
    tracer.patch(agent, "update", "agents.update")
    tracer.patch(agent.replay, "sample", "agents.replay.sample")
    tracer.patch(agent.online_network, "predict", "nn.online_predict")
    tracer.patch(agent.online_network, "forward", _forward_name)
    tracer.patch(agent.online_network, "apply_gradient_step", "nn.apply_gradient_step")
    tracer.patch(agent.target_network, "predict", "nn.target_predict")
    instrument_venv(tracer, manager.trainer.venv)


def _untrained_manager(scenario: Scenario, config: ExperimentConfig) -> VNFManager:
    """The manager ``runner.train_manager`` would build at the paper seed."""
    return VNFManager(
        scenario,
        config=config.manager_config(),
        seed=derive_seed(PAPER.seed, "manager", scenario.name),
    )


# --------------------------------------------------------------------------- #
# train_fig
# --------------------------------------------------------------------------- #
class TrainFig:
    """Figs. 1-6's training path: ``runner.train_manager``, K=1, from scratch.

    Closed loop: each step of the trainer waits for the previous one.  The
    decision latency is one ``select_actions`` call of the agent.
    """

    name = "train_fig"

    def __init__(self, seed: int, episodes: int = 20) -> None:
        self.episodes = episodes
        self.config = replace(PAPER, seed=seed, training_episodes=episodes)
        self.scenario = reference_traffic(seed)

    def run(self, tracer: Optional[Tracer] = None) -> RoundResult:
        decide_ns: List[int] = []
        patches = tracer or Patches()
        build = runner.VNFManager

        def build_manager(*args, **kwargs) -> VNFManager:
            manager = build(*args, **kwargs)
            agent = manager.agent
            patches.set(agent, "select_actions", timed(agent.select_actions, decide_ns))
            if tracer is not None:
                instrument_manager(tracer, manager)
            return manager

        with patches:
            patches.set(runner, "VNFManager", build_manager)
            if tracer is not None:
                instrument_program(tracer)
            reset_request_counter()
            manager, wall = _measure(
                tracer, lambda: runner.train_manager(self.scenario, self.config)
            )
        history = manager.trainer.history
        per_episode = self.config.requests_per_episode
        requests = per_episode * len(history.episode_rewards)
        bad = sum(1 for loss in history.episode_losses if not math.isfinite(loss))
        missing = abs(self.episodes - len(history.episode_rewards))
        problems = []
        if bad:
            problems.append(f"{bad} episodes with a non-finite loss")
        if missing:
            problems.append(
                f"{len(history.episode_rewards)} episodes trained, {self.episodes} asked"
            )
        recent = history.episode_acceptance[-10:]
        return RoundResult(
            requests=requests,
            wall_s=wall,
            accept_ratio=sum(recent) / len(recent),
            digest=digest(history.as_dict()),
            decide_ns=decide_ns,
            failed=(bad + missing) * per_episode,
            problems=problems,
            counts={"lanes": 1, "lane_requests": requests},
        )


# --------------------------------------------------------------------------- #
# sweep_fig
# --------------------------------------------------------------------------- #
#: Count of a sweep round: seconds spent in ``runner.parallel_policy_comparison``.
COMPARISON_S = "experiments.parallel.policy_comparison_s"


class SweepFig:
    """Fig. 2's evaluation phase at the paper preset, with an untrained DQN.

    Per arrival rate, ``runner.evaluate_drl_and_baselines`` simulates the DRL
    policy in-process and the standard baselines through the
    ``experiments.parallel`` pool; then one ``runner.vec_sweep_env_eval``
    runs the baseline panel over one lane per rate.  The decision latency is
    one per-VNF ``select_action`` call of the DQN inside the DRL policy (a
    whole ``place`` call's tail follows the request's chain length, which
    varies with the seed).  Traced rounds pass ``max_workers=1`` so every
    span lands in this process; ``run(serial=True)`` does the same untraced,
    which gives the pool's speedup and the tracer's overhead a serial
    reference.
    """

    name = "sweep_fig"
    #: Untraced rounds compare policies through the ``experiments.parallel`` pool.
    pooled = True

    def __init__(
        self,
        seed: int,
        horizon: float = 200.0,
        lane_episodes: int = 1,
        requests_per_episode: int = PAPER.requests_per_episode,
    ) -> None:
        self.config = replace(
            PAPER,
            seed=seed,
            evaluation_horizon=horizon,
            requests_per_episode=requests_per_episode,
        )
        self.lane_episodes = lane_episodes
        self.scenario = reference_traffic(seed, horizon)
        self.lanes = scenario_grid(self.scenario, arrival_rates=self.config.arrival_rates)
        self.manager = _untrained_manager(self.scenario, self.config)

    def _sweep(self, max_workers: Optional[int]):
        config = self.config
        series: Dict[str, List[dict]] = {}
        for rate in config.arrival_rates:
            results = runner.evaluate_drl_and_baselines(
                self.scenario.with_arrival_rate(rate),
                self.manager,
                config,
                max_workers=max_workers,
            )
            for name, result in results.items():
                series.setdefault(name, []).append(result.summary.as_dict())
        env_eval = runner.vec_sweep_env_eval(
            self.manager,
            self.lanes,
            config,
            episodes_per_scenario=self.lane_episodes,
            baselines=standard_baselines(
                seed=derive_seed(config.seed, "env_eval_baselines")
            ),
        )
        return series, env_eval

    def run(self, tracer: Optional[Tracer] = None, serial: bool = False) -> RoundResult:
        decide_ns: List[int] = []
        compare_ns: List[int] = []
        patches = tracer or Patches()
        manager = self.manager
        agent = manager.agent
        build_policy = manager.build_policy

        def build_traced_policy(*args, **kwargs):
            policy = build_policy(*args, **kwargs)
            tracer.patch(policy, "place", "core.policy.drl_place", _request_at(0))
            return policy

        with patches:
            patches.set(agent, "select_action", timed(agent.select_action, decide_ns))
            if tracer is None:
                patches.set(
                    runner,
                    "parallel_policy_comparison",
                    timed(runner.parallel_policy_comparison, compare_ns),
                )
            else:
                patches.set(manager, "build_policy", build_traced_policy)
                instrument_program(tracer)
                instrument_manager(tracer, manager)
            reset_request_counter()
            workers = 1 if serial or tracer is not None else None
            (series, env_eval), wall = _measure(tracer, lambda: self._sweep(workers))
        return self._result(series, env_eval, wall, decide_ns, compare_ns)

    def _result(self, series, env_eval, wall, decide_ns, compare_ns) -> RoundResult:
        rates = len(self.config.arrival_rates)
        problems: List[str] = []
        failed = 0
        simulated = 0
        acceptance: List[float] = []
        for name, points in series.items():
            if len(points) != rates:
                problems.append(f"series {name} has {len(points)} points, {rates} rates")
            for point in points:
                simulated += point["total_requests"]
                acceptance.append(point["acceptance_ratio"])
                gap = (
                    point["total_requests"]
                    - point["accepted_requests"]
                    - point["rejected_requests"]
                )
                if gap:
                    failed += abs(gap)
                    problems.append(f"{name}: accepted + rejected != total by {gap}")
        curves = [env_eval["acceptance_ratio"]] + [
            entry["acceptance_ratio"] for entry in env_eval["baselines"].values()
        ]
        for curve in curves:
            if len(curve) != rates:
                problems.append(f"a lane curve has {len(curve)} points, {rates} rates")
        lane_requests = (
            len(curves) * len(self.lanes) * self.lane_episodes
            * self.config.requests_per_episode
        )
        return RoundResult(
            requests=simulated + lane_requests,
            wall_s=wall,
            accept_ratio=sum(acceptance) / len(acceptance),
            digest=digest({"series": series, "env_eval": env_eval}),
            decide_ns=decide_ns,
            failed=failed,
            problems=problems,
            counts={
                "lanes": len(self.lanes),
                "lane_requests": lane_requests,
                "simulated_requests": simulated,
                # Wall time of the policy comparisons (untraced rounds only).
                COMPARISON_S: sum(compare_ns) / 1e9,
            },
        )


# --------------------------------------------------------------------------- #
# eval_faults
# --------------------------------------------------------------------------- #
class EvalFaults:
    """Fault-injected greedy evaluation of an untrained DQN on the SoA core.

    One ``runner.vec_sweep_env_eval`` over a 16-point arrival-rate grid
    (0.3-1.2) with node failures (MTTF 100, MTTR 25).  The decision latency
    is one batched ``select_actions`` call over all lanes.
    """

    name = "eval_faults"

    def __init__(self, seed: int, episodes: int = 25, lanes: int = 16) -> None:
        self.episodes = episodes
        self.config = replace(PAPER, seed=seed)
        scenario = reference_traffic(seed)
        rates = [0.3 + 0.9 * index / (lanes - 1) for index in range(lanes)]
        self.scenarios = scenario_grid(scenario, arrival_rates=rates)
        self.failures = FailureConfig(
            mean_time_to_failure=100.0, mean_time_to_repair=25.0
        )
        self.manager = _untrained_manager(scenario, self.config)

    def run(self, tracer: Optional[Tracer] = None) -> RoundResult:
        decide_ns: List[int] = []
        lane_results: list = []
        patches = tracer or Patches()
        agent = self.manager.agent
        evaluate = runner.evaluate_agent_across_scenarios

        def evaluate_recorded(*args, **kwargs):
            results = evaluate(*args, **kwargs)
            lane_results.extend(results)
            return results

        with patches:
            patches.set(agent, "select_actions", timed(agent.select_actions, decide_ns))
            patches.set(runner, "evaluate_agent_across_scenarios", evaluate_recorded)
            if tracer is not None:
                instrument_program(tracer)
                instrument_manager(tracer, self.manager)
            reset_request_counter()
            payload, wall = _measure(
                tracer,
                lambda: runner.vec_sweep_env_eval(
                    self.manager,
                    self.scenarios,
                    self.config,
                    episodes_per_scenario=self.episodes,
                    failure_config=self.failures,
                ),
            )
        per_episode = self.config.requests_per_episode
        lane_episodes = len(self.scenarios) * self.episodes
        done = sum(min(result.episodes, self.episodes) for result in lane_results)
        missing = lane_episodes - done
        disrupted = payload["mean_disrupted"]
        problems = []
        if missing:
            problems.append(f"{missing} of {lane_episodes} lane episodes missing")
        if not sum(disrupted) > 0:
            problems.append("no lane saw a disruption")
        lane_requests = lane_episodes * per_episode
        accept = payload["acceptance_ratio"]
        return RoundResult(
            requests=lane_requests,
            wall_s=wall,
            accept_ratio=sum(accept) / len(accept),
            digest=digest(payload),
            decide_ns=decide_ns,
            failed=missing * per_episode,
            problems=problems,
            counts={
                "lanes": len(self.scenarios),
                "lane_requests": lane_requests,
                "lane_episodes": lane_episodes,
                "disrupted_per_episode": sum(disrupted) / len(disrupted),
            },
        )


# --------------------------------------------------------------------------- #
# serve_overload
# --------------------------------------------------------------------------- #
#: Tier budgets of the fallback chain (seconds of charged decision time).
PRIMARY_BUDGET_S = 0.05
FALLBACK_BUDGET_S = 0.02
QUEUE_HIGH, QUEUE_LOW = 24, 6


def primary_latency(request: SFCRequest) -> float:
    """12 ms typical, 80 ms (over budget) on every 4th request."""
    return 0.08 if request.request_id % 4 == 0 else 0.012


def fallback_latency(request: SFCRequest) -> float:
    return 0.004


class TimedFallbackChain(FallbackChain):
    """A fallback chain that times every ``decide`` call in wall-clock.

    The tiers' latency models still drive virtual time, so outcomes stay
    deterministic; the wall-clock samples are what a decision really costs.
    With ``engine`` set, first decisions also record their virtual queue
    wait (``engine.now - arrival_time``).
    """

    engine = None

    def reset_counters(self) -> None:
        super().reset_counters()
        self.decide_ns: List[int] = []
        self.queue_wait: List[float] = []
        self._decided: set = set()

    def decide(self, request: SFCRequest, network):
        if self.engine is not None and request.request_id not in self._decided:
            self._decided.add(request.request_id)
            self.queue_wait.append(self.engine.now - request.arrival_time)
        start = time.perf_counter_ns()
        decision = super().decide(request, network)
        self.decide_ns.append(time.perf_counter_ns() - start)
        return decision


def build_chain() -> TimedFallbackChain:
    """greedy_least_loaded under 50 ms, then greedy_nearest under 20 ms."""
    return TimedFallbackChain(
        [
            BudgetedPolicy(
                GreedyLeastLoadedPolicy(),
                budget_s=PRIMARY_BUDGET_S,
                latency_model=primary_latency,
            ),
            BudgetedPolicy(
                GreedyNearestPolicy(),
                budget_s=FALLBACK_BUDGET_S,
                latency_model=fallback_latency,
            ),
        ]
    )


def build_service(
    scenario: Scenario, chain: FallbackChain, horizon: float
) -> OnlinePlacementService:
    """The service over the reference topology, with domain chaos and retries.

    ``decision_time_scale=10`` maps the ~24 ms mean charged decision to ~0.24
    virtual seconds, a decision capacity of ~4 req/s that the MMPP high
    phase (16 req/s) overloads 4x.
    """
    network = scenario.build_network()
    chaos = DomainFailureInjector(
        fault_domains_from_network(network),
        DomainFailureConfig(
            mean_time_to_failure=250.0,
            mean_time_to_repair=60.0,
            seed=derive_seed(PAPER.seed, "chaos"),
        ),
    )
    config = ServingConfig(
        horizon=horizon,
        decision_time_scale=10.0,
        monitoring_interval=10.0,
        retry_base_delay=2.0,
        retry_backoff=2.0,
        retry_max_attempts=4,
        admission=AdmissionConfig(
            tokens_per_second=6.0,
            bucket_capacity=12.0,
            queue_high_watermark=QUEUE_HIGH,
            queue_low_watermark=QUEUE_LOW,
        ),
    )
    return OnlinePlacementService(network, chain, config, chaos=chaos)


def check_serving(report: ServingReport, decisions: int) -> Tuple[List[str], int]:
    """The serving loop's conservation and degradation contract.

    Returns the failed checks and the number of requests they leave
    unaccounted for.
    """
    problems: List[str] = []
    failed = 0
    admission = report.admission or {}
    outcomes = report.shed + report.accepted + report.rejected + report.commit_failed
    if outcomes != report.arrivals:
        failed += abs(report.arrivals - outcomes)
        problems.append(f"{report.arrivals} arrivals but {outcomes} outcomes")
    admitted = admission.get("admitted", 0)
    if decisions != admitted:
        failed += abs(decisions - admitted)
        problems.append(f"{decisions} decisions for {admitted} admitted requests")
    resolved = report.replaced + report.lost + report.expired
    if resolved != report.disrupted or not report.disrupted:
        failed += abs(report.disrupted - resolved)
        problems.append(f"{report.disrupted} disruptions, {resolved} resolved")
    if report.max_queue_depth > QUEUE_HIGH:
        problems.append(f"queue depth {report.max_queue_depth} over {QUEUE_HIGH}")
    if not (admission.get("shed_mode_entries") and admission.get("shed_mode_exits")):
        problems.append("shedding was not both entered and exited")
    if report.decision_latency.max > PRIMARY_BUDGET_S + FALLBACK_BUDGET_S + 1e-9:
        problems.append(f"charged latency {report.decision_latency.max} over the budgets")
    if report.tier_wins.get("1:greedy_nearest", 0) < 1:
        problems.append("the fallback tier never won a request")
    return problems, failed


class ServeOverload:
    """The online serving loop under MMPP overload with domain chaos.

    Arrivals follow a 2 <-> 16 req/s MMPP schedule in trace time (open loop in
    trace time); the trace is replayed as fast as possible.  The decision
    latency is one wall-clock ``FallbackChain.decide`` call, retries included.
    """

    name = "serve_overload"

    def __init__(self, seed: int, horizon: float = 2000.0) -> None:
        self.horizon = horizon
        self.scenario = reference_traffic(seed)
        self.chain = build_chain()
        self.service = build_service(self.scenario, self.chain, horizon)
        self.chain.engine = self.service.engine

    def trace(self) -> Iterator[SFCRequest]:
        """A fresh stream of the round's (identical) MMPP trace."""
        process = MMPPProcess(
            low_rate=2.0,
            high_rate=16.0,
            mean_low_duration=120.0,
            mean_high_duration=60.0,
            seed=derive_seed(PAPER.seed, "arrivals"),
        )
        return self.scenario.build_generator().iter_trace(
            arrival_process=process, horizon=self.horizon
        )

    def run(self, tracer: Optional[Tracer] = None) -> RoundResult:
        service, chain = self.service, self.chain
        patches = tracer or Patches()
        with patches:
            requests = self.trace()
            if tracer is not None:
                instrument_program(tracer)
                tracer.patch(service, "run", "serving.run")
                tracer.patch(service.admission, "admit", "serving.admission.admit")
                tracer.patch(chain, "decide", "serving.chain.decide", _request_at(0))
                for index, tier in enumerate(chain.tiers):
                    tracer.patch(tier, "decide", f"core.timeout.tier{index}.decide")
                requests = tracer.iterate("workloads.iter_trace", requests)
            reset_request_counter()
            report, wall = _measure(tracer, lambda: service.run(requests))
        decisions = len(chain.decide_ns) - report.retry_attempts
        problems, failed = check_serving(report, decisions)
        waits = sorted(chain.queue_wait)
        wait_p99 = quantile(waits, 0.99) if waits else 0.0
        return RoundResult(
            requests=report.arrivals,
            wall_s=wall,
            accept_ratio=report.accepted / report.arrivals,
            digest=digest(report.as_dict()),
            decide_ns=list(chain.decide_ns),
            failed=failed,
            problems=problems,
            counts={
                "serving.decisions": decisions,
                "serving.retry_attempts": report.retry_attempts,
                "serving.tier_timeouts": sum(report.tier_timeouts.values()),
                "serving.shed_ratio": report.shed_ratio,
                "serving.commit_failed": report.commit_failed,
                "serving.accepted_per_admitted": report.acceptance_ratio,
                "serving.queue_wait_p99_vs": wait_p99,
                "sim.engine.events": report.processed_events,
            },
        )


WORKLOADS = {
    workload.name: workload
    for workload in (TrainFig, SweepFig, EvalFaults, ServeOverload)
}
