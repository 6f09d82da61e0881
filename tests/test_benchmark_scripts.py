"""The benchmark scripts' entry points: committed results stay untouched,
the vec-env phase breakdown is measured without perturbing the env, the
request-layer and planner costs are measured per call, and the one-lane
loop is timed on both env cores."""

import sys
from collections import Counter

import numpy as np
import pytest

import benchmarks.bench_envstep as bench_envstep
import benchmarks.bench_serving as bench_serving
import benchmarks.bench_vecenv as bench_vecenv
import benchmarks.common as common
from benchmarks.e2e.measure import Tracer
from repro.baselines import standard_baselines
from repro.core.env import EnvConfig
from repro.core.soa import SoAVecPlacementEnv
from repro.core.vecenv import OUTCOME_CODE


def test_serving_smoke_asserts_and_prints_but_writes_nothing(
    tmp_path, monkeypatch, capsys
):
    committed = common.RESULTS_DIR / "serving.json"
    before = committed.read_bytes()
    monkeypatch.setattr(common, "RESULTS_DIR", tmp_path)
    monkeypatch.setattr(sys, "argv", ["bench_serving.py", "--smoke"])
    bench_serving.main()
    assert "serving smoke:" in capsys.readouterr().out
    assert list(tmp_path.iterdir()) == []
    assert committed.read_bytes() == before


@pytest.mark.parametrize("protocol", ["full", "lean"])
def test_traced_kernel_phases_leave_trajectory_bitwise_equal(protocol):
    """A Tracer around the four phase methods changes no state or output."""
    step_kwargs = common.STEP_PROTOCOLS[protocol]
    specs = bench_vecenv._lane_specs(
        bench_vecenv._scenario(), 4, EnvConfig(requests_per_episode=5)
    )
    plain = SoAVecPlacementEnv.from_specs(specs)
    traced = SoAVecPlacementEnv.from_specs(specs)
    rng_plain, rng_traced = np.random.default_rng(7), np.random.default_rng(7)
    steps, episode_ends, accepting_steps, completing = 40, 0, 0, 0
    reject = plain.num_actions - 1
    with Tracer() as tracer:
        bench_vecenv.trace_kernel_phases(tracer, traced)
        np.testing.assert_array_equal(plain.reset(), traced.reset())
        for _ in range(steps):
            masks = plain.valid_action_masks()
            np.testing.assert_array_equal(masks, traced.valid_action_masks())
            actions = common.masked_random_actions(masks, rng_plain)
            np.testing.assert_array_equal(
                actions, common.masked_random_actions(masks, rng_traced)
            )
            # Lane-steps that place the last VNF of a chain.
            completing += sum(
                lane.vnf_index == lane.current.num_vnfs - 1 and action != reject
                for lane, action in zip(plain._lanes, actions.tolist())
            )
            expected = plain.step(actions, **step_kwargs)
            # States, rewards, dones and infos, request ids included (None
            # under the lean protocol).
            np.testing.assert_equal(traced.step(actions, **step_kwargs), expected)
            np.testing.assert_array_equal(
                traced.last_request_ids(), plain.last_request_ids()
            )
            np.testing.assert_array_equal(
                traced.last_outcome_codes(), plain.last_outcome_codes()
            )
            np.testing.assert_array_equal(
                traced.last_request_done(), plain.last_request_done()
            )
            episode_ends += int(expected[2].sum())
            accepting_steps += bool(
                (plain.last_outcome_codes() == OUTCOME_CODE["accepted"]).any()
            )
    assert episode_ends > 0
    calls = Counter(span[0] for span in tracer.spans)
    assert set(calls) == set(bench_vecenv.KERNEL_PHASES.values())
    assert calls["mask"] == calls["step"] == steps
    assert calls["observe"] == steps + 1  # reset() observes too
    # One commit span per lane-step that placed a chain's last VNF.
    assert 0 < accepting_steps <= calls["commit"] == completing
    # Leaving the tracer restores the class methods on the instance.
    assert not set(bench_vecenv.KERNEL_PHASES) & set(vars(traced))
    for stats_plain, stats_traced in zip(plain.lane_stats(), traced.lane_stats()):
        assert stats_traced.as_dict() == stats_plain.as_dict()


def test_measure_pairwise_times_two_sides_in_interleaved_windows(monkeypatch):
    stepped = []
    for name, cls in list(bench_vecenv._BACKENDS.items()):

        class Logged(cls):
            def step(self, actions, _name=name, **kwargs):
                stepped.append(_name)
                return super().step(actions, **kwargs)

        monkeypatch.setitem(bench_vecenv._BACKENDS, name, Logged)
    row = bench_vecenv.measure_pairwise(
        (("reference", 2), ("soa", 3)), (4, 5), pairs=3, protocol="lean"
    )
    warmup = bench_vecenv.STEADY_WARMUP_BATCH_STEPS
    window_pair = ["reference"] * 4 + ["soa"] * 5
    assert stepped == ["reference"] * warmup + ["soa"] * warmup + window_pair * 3
    assert row["sides"] == [["reference", 2], ["soa", 3]]
    assert (row["pairs"], row["protocol"]) == (3, "lean")
    assert row["window_batch_steps"] == [4, 5]
    first, second = row["pair_env_steps_per_s"]
    assert len(first) == len(second) == 3
    assert all(rate > 0.0 for rate in first + second)
    assert row["pair_ratios"] == [b / a for a, b in zip(first, second)]
    assert row["median_ratio"] == sorted(row["pair_ratios"])[1]
    assert row["best_ratio"] == max(row["pair_ratios"])
    assert row["median_env_steps_per_s"] == [sorted(first)[1], sorted(second)[1]]
    # The cost-model fit reads a row's sides: t(K) = K / rate per pair.
    fit = bench_vecenv.decompose_scaling_row(row)
    t2, t3 = 2 / first[0] * 1e6, 3 / second[0] * 1e6
    assert fit["p_us_pairs"][0] == pytest.approx(t3 - t2)
    assert fit["f_us_pairs"][0] == pytest.approx(t2 - 2 * (t3 - t2))


def test_measure_kernel_timings_reports_nested_phases():
    timings = bench_vecenv.measure_kernel_timings(num_lanes=4, batch_steps=20)
    for phase in bench_vecenv.KERNEL_PHASES.values():
        assert timings[f"{phase}_us"] > 0.0
    # Observe and commit run inside step; mask runs beside it.
    assert timings["observe_us"] + timings["commit_us"] <= timings["step_us"]
    assert timings["per_lane_us"] == timings["step_us"] / 4
    assert "info_us" not in timings
    assert (timings["lanes"], timings["batch_steps"], timings["protocol"]) == (
        4, 20, "lean"
    )


def test_measure_plan_ops_times_every_standard_baseline():
    ops = bench_envstep.measure_plan_ops(repeats=1, horizon=30.0)
    names = {policy.name for policy in standard_baselines(seed=0)}
    assert set(ops["us_per_call"]) == set(ops["calls"]) == names
    assert all(us > 0.0 for us in ops["us_per_call"].values())
    requests = ops["trace"]["requests"]
    assert requests > 0 and set(ops["calls"].values()) == {requests}
    assert (ops["trace"]["repeats"], ops["trace"]["horizon"]) == (1, 30.0)
    # Random checks each of its up to five draws once; the other planners
    # leave the check to place() and the commit.
    fits = ops["chain_fits_per_plan"]
    assert set(fits) == names
    assert 1.0 <= fits["random"] <= 5.0
    assert all(fits[name] == 0.0 for name in names - {"random"})


def test_measure_request_ops_reports_every_op():
    ops = bench_envstep.measure_request_ops(repeats=2, horizon=30.0)
    assert set(ops["us_per_call"]) == set(bench_envstep.REQUEST_OPS) == {
        "sample_request", "demand_rows", "request_view",
    }
    assert all(us > 0.0 for us in ops["us_per_call"].values())
    trace = ops["trace"]
    assert trace["requests"] > 0
    assert (trace["repeats"], trace["horizon"]) == (2, 30.0)


def test_measure_env_step_k1_times_both_cores_on_one_lane():
    k1 = bench_envstep.measure_env_step_k1(rounds=2, steps=120)
    assert set(k1["us_per_step"]) == set(k1["us_per_step_range"]) == {
        "reference", "soa",
    }
    assert all(us > 0.0 for us in k1["us_per_step"].values())
    for core, (low, high) in k1["us_per_step_range"].items():
        assert low <= k1["us_per_step"][core] <= high
    assert k1["soa_over_reference"] > 0.0
    assert (k1["rounds"], k1["steps_per_round"]) == (2, 120)
