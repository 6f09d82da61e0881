"""Equivalence and behavior tests for the batched PlacementPolicy protocol."""

import numpy as np
import pytest

from differential import masked_random_actions
from repro.baselines import (
    BestFitPolicy,
    BruteForceOptimalPolicy,
    CloudOnlyPolicy,
    EdgeOnlyPolicy,
    FirstFitPolicy,
    GreedyCheapestPolicy,
    GreedyLeastLoadedPolicy,
    GreedyNearestPolicy,
    RandomPlacementPolicy,
    ViterbiPlacementPolicy,
    standard_baselines,
)
from repro.core.env import EnvConfig
from repro.core.soa import SoAVecPlacementEnv
from repro.core.vecenv import (
    VecPlacementEnv,
    lane_specs_from_scenarios,
    lane_workload_seed,
    make_lane_env,
)
from repro.experiments import runner
from repro.experiments.runner import (
    evaluate_baseline_across_scenarios,
)
from repro.sim.failures import FailureConfig
from repro.sim.simulation import PlacementPolicy
from repro.workloads.scenarios import reference_scenario, scenario_grid

SEED = 2
ENV_CONFIG = EnvConfig(requests_per_episode=10, latency_mask_check=False)
FAULTS = FailureConfig(mean_time_to_failure=4.0, mean_time_to_repair=2.0, seed=0)

#: Heuristics with vectorized select_actions kernels.
KERNEL_FACTORIES = [
    GreedyNearestPolicy,
    GreedyLeastLoadedPolicy,
    GreedyCheapestPolicy,
    FirstFitPolicy,
    BestFitPolicy,
    CloudOnlyPolicy,
    EdgeOnlyPolicy,
]

#: Heuristics riding the per-request plan-cache reference path.
PLAN_FACTORIES = [
    lambda: RandomPlacementPolicy(seed=7),
    lambda: ViterbiPlacementPolicy(cost_weight=0.2, load_weight=0.2),
    lambda: BruteForceOptimalPolicy(max_assignments=100_000, fallback_to_reject=True),
]


def sweep_grid():
    base = reference_scenario(
        arrival_rate=0.9, num_edge_nodes=8, horizon=150.0, seed=3
    )
    return scenario_grid(base, arrival_rates=(0.4, 0.8, 1.2))


class TestBatchedMatchesReference:
    """Vectorized select_actions on SoA lanes must be decision-for-decision
    identical to the per-request plan_assignment reference on reference
    lanes."""

    @pytest.mark.parametrize(
        "factory", KERNEL_FACTORIES, ids=lambda f: f().name
    )
    def test_kernel_equals_reference_bitwise(self, factory):
        grid = sweep_grid()
        venv_batched = SoAVecPlacementEnv.from_scenarios(
            grid, seed=SEED, env_config=ENV_CONFIG
        )
        venv_reference = VecPlacementEnv.from_scenarios(
            grid, seed=SEED, env_config=ENV_CONFIG
        )
        batched = factory().bind_lanes(venv_batched)
        reference = factory().bind_lanes(venv_reference)
        venv_batched.reset(observe=False)
        venv_reference.reset(observe=False)
        for step in range(120):
            batched_actions = batched.select_actions(
                masks=venv_batched.valid_action_masks()
            )
            reference_actions = PlacementPolicy.select_actions(reference)
            np.testing.assert_array_equal(
                batched_actions, reference_actions,
                err_msg=f"{batched.name} diverged at step {step}",
            )
            venv_batched.step(batched_actions, observe=False)
            venv_reference.step(reference_actions, observe=False)

    @pytest.mark.parametrize(
        "factory", PLAN_FACTORIES, ids=lambda f: f().name
    )
    def test_plan_policies_vec_equals_per_lane_serial(self, factory):
        grid = sweep_grid()
        venv = VecPlacementEnv.from_scenarios(grid, seed=SEED, env_config=ENV_CONFIG)
        policy = factory().bind_lanes(venv)
        venv.reset(observe=False)
        trajectory = []
        for _ in range(50):
            actions = policy.select_actions(masks=venv.valid_action_masks())
            trajectory.append(actions.copy())
            venv.step(actions, observe=False)
        for lane, cell in enumerate(grid):
            env = make_lane_env(
                cell, lane_workload_seed(SEED, lane, cell.name), ENV_CONFIG
            )
            serial = factory().bind_lanes([env])
            env.reset(observe=False)
            for step in range(50):
                action = serial.select_actions(
                    masks=np.stack([env.valid_action_mask()])
                )
                assert action[0] == trajectory[step][lane], (
                    f"{serial.name} lane {lane} step {step}"
                )
                _, _, done, _ = env.step(int(action[0]), observe=False)
                if done:
                    env.reset(observe=False)


class TestHeuristicLanesAcrossCores:
    """Heuristic lanes give the same numbers on the SoA and reference cores."""

    @pytest.mark.parametrize("failures", [None, FAULTS], ids=["clean", "faulted"])
    @pytest.mark.parametrize(
        "factory", KERNEL_FACTORIES + PLAN_FACTORIES, ids=lambda f: f().name
    )
    def test_baseline_evaluation_is_core_independent(
        self, monkeypatch, factory, failures
    ):
        build = runner.make_vec_env
        built = []

        def spy(*args, backend, force=None, **kwargs):
            venv = build(*args, backend=force or backend, **kwargs)
            built.append(venv.backend)
            return venv

        def evaluate():
            return [
                result.as_dict()
                for result in evaluate_baseline_across_scenarios(
                    factory(), sweep_grid(), episodes_per_scenario=2, seed=1,
                    env_config=ENV_CONFIG, failure_config=failures,
                )
            ]

        monkeypatch.setattr(runner, "make_vec_env", spy)
        default = evaluate()
        monkeypatch.setattr(
            runner, "make_vec_env", lambda *a, **k: spy(*a, force="reference", **k)
        )
        assert evaluate() == default
        assert built == ["soa", "reference"]

    def test_soa_lane_network_holds_the_reference_ledger(self):
        specs = lane_specs_from_scenarios(
            sweep_grid(), seed=SEED, env_config=ENV_CONFIG, failure_config=FAULTS
        )
        soa = SoAVecPlacementEnv.from_specs(specs)
        reference = VecPlacementEnv.from_specs(specs)
        rng = np.random.default_rng(0)
        soa.reset(observe=False)
        reference.reset(observe=False)
        fenced = used = False
        for step in range(150):
            for lane, env in zip(soa.envs, reference.envs):
                copy, ledger = lane.network.ledger, env.network.ledger
                for name in ("node_used", "link_used"):
                    np.testing.assert_array_equal(
                        getattr(copy, name), getattr(ledger, name),
                        err_msg=f"step {step}: {name}",
                    )
                request = lane.current_request
                assert request.request_id == env.current_request.request_id
                assert lane.vnf_index == env.vnf_index
                demands = request.chain.demand_rows
                np.testing.assert_array_equal(
                    copy.can_host_all(demands), ledger.can_host_all(demands)
                )
                used |= bool(ledger.link_used.any())
            fenced |= any(soa.lane_failed_nodes())
            actions = masked_random_actions(reference.valid_action_masks(), rng)
            soa.step(actions, observe=False)
            reference.step(actions, observe=False)
        assert fenced and used


class TestPlanAssignmentParity:
    def test_plan_matches_place(self, small_network, catalog):
        from tests.conftest import build_request

        request = build_request(catalog, source=0, sla_ms=100.0)
        for policy in standard_baselines(seed=0):
            assignment = policy.plan_assignment(request, small_network)
            placement = policy.place(request, small_network)
            if placement is None:
                assert assignment is None or placement is None
            else:
                assert tuple(assignment) == placement.node_assignment

    def test_random_policy_is_request_deterministic(self, small_network, catalog):
        from tests.conftest import build_request

        request = build_request(catalog, source=0, sla_ms=100.0)
        policy = RandomPlacementPolicy(seed=11)
        first = policy.plan_assignment(request, small_network)
        second = policy.plan_assignment(request, small_network)
        assert first == second
        fresh = RandomPlacementPolicy(seed=11)
        assert fresh.plan_assignment(request, small_network) == first


class TestProtocolPlumbing:
    def test_unbound_policy_raises(self):
        policy = FirstFitPolicy()
        with pytest.raises(RuntimeError, match="not bound"):
            policy.select_actions()

    def test_bind_empty_lanes_rejected(self):
        with pytest.raises(ValueError):
            FirstFitPolicy().bind_lanes([])

    def test_reset_clears_plan_cache(self):
        grid = sweep_grid()
        venv = VecPlacementEnv.from_scenarios(grid, seed=SEED, env_config=ENV_CONFIG)
        policy = ViterbiPlacementPolicy().bind_lanes(venv)
        venv.reset(observe=False)
        policy.select_actions(masks=venv.valid_action_masks())
        assert any(rid is not None for rid in policy._lane_request_ids)
        policy.reset()
        assert all(rid is None for rid in policy._lane_request_ids)
        assert all(plan is None for plan in policy._lane_plans)

    def test_finished_lane_selects_reject(self):
        scenario = reference_scenario(
            arrival_rate=0.6, num_edge_nodes=6, horizon=60.0, seed=1
        )
        env = make_lane_env(scenario, 0, EnvConfig(requests_per_episode=2))
        policy = FirstFitPolicy().bind_lanes([env])
        env.reset(observe=False)
        for _ in range(30):
            action = int(policy.select_actions()[0])
            _, _, done, _ = env.step(action, observe=False)
            if done:
                break
        assert done
        # The episode is over: the only selectable action is reject.
        assert int(policy.select_actions()[0]) == env.actions.reject_action


class TestRunnerBaselineEvaluation:
    def test_evaluate_baseline_across_scenarios(self):
        grid = sweep_grid()[:2]
        results = evaluate_baseline_across_scenarios(
            GreedyNearestPolicy(),
            grid,
            episodes_per_scenario=2,
            seed=1,
            env_config=ENV_CONFIG,
        )
        assert len(results) == 2
        for result in results:
            assert result.episodes == 2
            assert 0.0 <= result.mean_acceptance <= 1.0
            assert result.mean_disrupted == 0.0

    def test_evaluate_baseline_with_failures_reports_disruptions(self):
        grid = sweep_grid()[:2]
        results = evaluate_baseline_across_scenarios(
            FirstFitPolicy(),
            grid,
            episodes_per_scenario=2,
            seed=1,
            env_config=ENV_CONFIG,
            failure_config=FailureConfig(
                mean_time_to_failure=4.0, mean_time_to_repair=2.0, seed=0
            ),
        )
        assert len(results) == 2
        assert all(result.mean_disrupted >= 0.0 for result in results)
