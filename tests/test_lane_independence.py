"""Lane independence of the in-process vectorized environments.

A lane's trajectory depends only on its own :class:`LaneSpec` (scenario,
workload seed, fault schedule) and the actions it receives, never on which
other lanes share its environment.  The grouping tests split one lane set
into groups, build one environment per group from the same specs, drive
every lane with its own seeded action stream and assert each lane's record
(reset state, masks, decision-context rows on the SoA core, states, rewards,
dones, infos, outcome codes, episode statistics, fenced nodes) is bitwise
identical to the same lane inside the whole environment, on both lane cores,
request ids included: each lane's generator numbers its own requests.  One
info field is relabeled: ``lane`` is the index inside the hosting
environment.

The consumers of the property follow: training and agent evaluation give
the same numbers on either core, the factory builds the lanes its specs
describe, and heuristic policies rebind between lane sets cleanly.
"""

from dataclasses import replace as dataclass_replace

import numpy as np
import pytest

from differential import CONTEXT_FIELDS, campaign_from_seed
from repro.agents.dqn import DQNAgent, DQNConfig
from repro.baselines import standard_baselines
from repro.core.env import EnvConfig
from repro.core.soa import SoAVecPlacementEnv
from repro.core.training import TrainingConfig, VecTrainer
from repro.core.vecenv import VecPlacementEnv, lane_specs_from_scenarios, make_vec_env
from repro.experiments import runner
from repro.sim.failures import FailureConfig
from repro.workloads.scenarios import reference_scenario, scenario_grid

SEED = 7
ENV_CONFIG = EnvConfig(requests_per_episode=8)
FAULTS = FailureConfig(mean_time_to_failure=15.0, mean_time_to_repair=6.0)
DQN_CONFIG = DQNConfig(hidden_layers=(16,), batch_size=8, min_replay_size=8)
CORES = {"reference": VecPlacementEnv, "soa": SoAVecPlacementEnv}

#: Uneven groups of a four-lane set: a singleton, a pair, a singleton.
UNEVEN_GROUPS = ((0, 1), (1, 3), (3, 4))


def small_scenario(seed=2):
    return reference_scenario(
        arrival_rate=0.6, num_edge_nodes=6, horizon=80.0, seed=seed
    )


def sweep_specs(failure_config=None):
    grid = scenario_grid(small_scenario(), arrival_rates=[0.4, 0.8, 1.2, 1.6])
    return lane_specs_from_scenarios(
        grid, seed=SEED, env_config=ENV_CONFIG, failure_config=failure_config
    )


def campaign_specs(campaign_seed, num_lanes=4):
    """The specs ``from_scenario`` builds for a resized differential campaign."""
    campaign = dataclass_replace(campaign_from_seed(campaign_seed), num_lanes=num_lanes)
    specs = lane_specs_from_scenarios(
        [campaign.scenario()] * num_lanes,
        seed=campaign.seed,
        env_config=campaign.env_config(),
        failure_config=campaign.failure_config,
    )
    return specs, campaign.steps


def drive_lanes(env, steps, lane_offset=0, reset_lane_at=None, observe=True, info=True):
    """Drive every lane of ``env`` with its own seeded action stream.

    Lane ``i`` of ``env`` is lane ``lane_offset + i`` of the whole set and
    draws actions from a generator seeded by that global index, so it gets
    the same actions whichever environment hosts it.  ``reset_lane_at`` maps
    a step to the global lanes reset before it; without auto-reset, finished
    lanes are restarted with ``reset_lane``.  Returns per-lane entry lists.
    """
    lanes = range(lane_offset, lane_offset + env.num_lanes)
    rngs = [np.random.default_rng(lane) for lane in lanes]
    records = [[{"reset": state.copy()}] for state in env.reset(observe=observe)]
    for step in range(steps):
        for lane in (reset_lane_at or {}).get(step, ()):
            if lane in lanes:
                reset = env.reset_lane(lane - lane_offset).copy()
                records[lane - lane_offset].append({"reset_lane": reset})
        masks = env.valid_action_masks().copy()
        # Only the SoA core builds a decision context.
        rows = {
            f"context.{f}": np.array(getattr(env.lane_decision_context(), f))
            for f in CONTEXT_FIELDS
        } if hasattr(env, "lane_decision_context") else {}
        actions = np.array(
            [int(rng.choice(np.flatnonzero(mask))) for mask, rng in zip(masks, rngs)]
        )
        states, rewards, dones, infos = env.step(actions, observe=observe, info=info)
        columns = {
            "state": states, "reward": rewards, "done": dones, "masks": masks,
            "outcome": env.last_outcome_codes(),
            "request_done": env.last_request_done(),
            "request_id": env.last_request_ids(),
            **rows,
        }
        stats, failed = env.lane_stats(), env.lane_failed_nodes()
        entries = []
        for i in range(env.num_lanes):
            entry = {key: np.copy(value[i]) for key, value in columns.items()}
            entry["stats"], entry["failed_nodes"] = stats[i].as_dict(), list(failed[i])
            if info:
                payload = dict(infos[i])
                assert payload.pop("lane") == i
                assert payload.pop("request_id") == entry["request_id"]
                terminal = payload.pop("terminal_state", None)
                if terminal is not None:
                    entry["terminal_state"] = np.array(terminal)
                entry["info"] = payload
            if dones[i]:
                entry["finished"] = dict(env.last_episode_stats(i))
            entries.append(entry)
        for i, entry in enumerate(entries):
            if dones[i] and not env.auto_reset:
                entry["manual_reset"] = env.reset_lane(i).copy()
            records[i].append(entry)
    return records


def run_groups(core, specs, groups, steps, auto_reset=True, **drive_kwargs):
    """Per-lane records of ``specs`` split into one environment per group."""
    records = []
    for start, stop in groups:
        with CORES[core].from_specs(specs[start:stop], auto_reset=auto_reset) as env:
            records.extend(drive_lanes(env, steps, lane_offset=start, **drive_kwargs))
    return records


def assert_lanes_equal(whole, grouped):
    assert len(whole) == len(grouped)
    for lane, (expected, actual) in enumerate(zip(whole, grouped)):
        assert len(expected) == len(actual), f"lane {lane}: record lengths differ"
        for index, (a, b) in enumerate(zip(expected, actual)):
            where = f"lane {lane} entry {index}"
            assert a.keys() == b.keys(), f"{where}: recorded fields differ"
            for key in a:
                same = (np.array_equal(a[key], b[key])
                        if isinstance(a[key], np.ndarray) else a[key] == b[key])
                assert same, f"{where}: {key} diverged\n  a={a[key]!r}\n  b={b[key]!r}"


def assert_grouping_invariant(core, specs, groups, steps, **kwargs):
    whole = run_groups(core, specs, [(0, len(specs))], steps, **kwargs)
    assert_lanes_equal(whole, run_groups(core, specs, groups, steps, **kwargs))
    return whole


@pytest.mark.parametrize("core", sorted(CORES))
class TestLaneGrouping:
    @pytest.mark.parametrize("campaign_seed", (0, 1, 2, 3, 4, 5))
    def test_groups_match_whole_env(self, core, campaign_seed):
        # Even campaign seeds inject node failures.
        specs, steps = campaign_specs(campaign_seed)
        assert_grouping_invariant(core, specs, UNEVEN_GROUPS, steps)

    @pytest.mark.parametrize("campaign_seed", (2, 5))
    def test_lean_protocol_groups_match_whole_env(self, core, campaign_seed):
        specs, steps = campaign_specs(campaign_seed)
        assert_grouping_invariant(
            core, specs, UNEVEN_GROUPS, steps, observe=False, info=False
        )

    @pytest.mark.parametrize("num_lanes", [1, 2, 4])
    def test_every_lane_alone_matches_whole_env(self, core, num_lanes):
        specs, steps = campaign_specs(17, num_lanes)
        singletons = [(lane, lane + 1) for lane in range(num_lanes)]
        assert_grouping_invariant(core, specs, singletons, steps)

    def test_scenario_diverse_faulted_lanes(self, core):
        whole = assert_grouping_invariant(
            core, sweep_specs(FAULTS), ((0, 2), (2, 4)), steps=120
        )
        # Not vacuous: lanes finish episodes and faults fence nodes.
        assert any("finished" in entry for lane in whole for entry in lane)
        assert any(entry.get("failed_nodes") for lane in whole for entry in lane)

    def test_mid_episode_reset_touches_only_that_lane(self, core):
        specs, steps = campaign_specs(4)
        assert_grouping_invariant(
            core, specs, UNEVEN_GROUPS, steps, reset_lane_at={5: (1,), 12: (0, 3)}
        )

    def test_manual_resets_without_auto_reset(self, core):
        whole = assert_grouping_invariant(
            core, sweep_specs(), UNEVEN_GROUPS, steps=60, auto_reset=False
        )
        assert any("manual_reset" in entry for lane in whole for entry in lane)

    def test_observe_false_zeroes_states_on_the_same_trajectory(self, core):
        def run(observe):
            records = run_groups(core, sweep_specs(), [(0, 4)], 40, observe=observe)
            states = [entry.pop(key) for lane in records for entry in lane
                      for key in ("reset", "state", "terminal_state") if key in entry]
            return records, states

        full, full_states = run(observe=True)
        lean, lean_states = run(observe=False)
        assert_lanes_equal(full, lean)
        assert [s.shape for s in lean_states] == [s.shape for s in full_states]
        assert not any(state.any() for state in lean_states)
        assert any(state.any() for state in full_states)


class TestBatchedConsumers:
    @pytest.mark.parametrize("failures", [None, FAULTS], ids=["clean", "faulted"])
    def test_vec_trainer_history_is_core_independent(self, failures):
        specs = lane_specs_from_scenarios(
            [small_scenario()] * 4, seed=SEED, env_config=ENV_CONFIG,
            failure_config=failures,
        )

        def train(core):
            with CORES[core].from_specs(specs) as venv:
                agent = DQNAgent(venv.state_dim, venv.num_actions, DQN_CONFIG, seed=0)
                config = TrainingConfig(
                    num_episodes=6, evaluation_interval=3, evaluation_episodes=1
                )
                return VecTrainer(venv, agent, config).train().as_dict()

        reference = train("reference")
        assert train("soa") == reference
        assert any(loss > 0 for loss in reference["episode_losses"])

    @pytest.mark.parametrize("failures", [None, FAULTS], ids=["clean", "faulted"])
    def test_agent_evaluation_is_core_independent(self, monkeypatch, failures):
        grid = scenario_grid(small_scenario(), arrival_rates=[0.5, 1.0, 1.5])
        probe = make_vec_env(grid[:1], env_config=ENV_CONFIG)
        agent = DQNAgent(probe.state_dim, probe.num_actions, DQN_CONFIG, seed=1)
        built = []

        def build(*args, backend, force=None, **kwargs):
            venv = make_vec_env(*args, backend=force or backend, **kwargs)
            built.append(venv.backend)
            return venv

        kwargs = dict(seed=SEED, env_config=ENV_CONFIG, failure_config=failures)
        monkeypatch.setattr(runner, "make_vec_env", build)
        default = runner.evaluate_agent_across_scenarios(agent, grid, **kwargs)
        monkeypatch.setattr(
            runner, "make_vec_env", lambda *a, **k: build(*a, force="reference", **k)
        )
        reference = runner.evaluate_agent_across_scenarios(agent, grid, **kwargs)
        assert built == ["soa", "reference"]
        assert [r.as_dict() for r in default] == [r.as_dict() for r in reference]

    @pytest.mark.parametrize("core", sorted(CORES))
    @pytest.mark.parametrize(
        "policy_index",
        range(len(standard_baselines())),
        ids=[policy.name for policy in standard_baselines()],
    )
    def test_policy_rebinds_cleanly_between_lane_sets(self, policy_index, core):
        # After acting on one lane set a policy must act on the next exactly
        # like a fresh instance: no plan, request id or decision context
        # survives the rebind.  Each lane's generator numbers its requests
        # from 0, so after one step on the earlier set every lane's cached
        # plan sits under the id its counterpart's first request reuses.
        def act(policy, specs, steps):
            venv = CORES[core].from_specs(specs)
            policy.bind_lanes(venv)
            venv.reset(observe=False)
            taken = []
            for _ in range(steps):
                taken.append(policy.select_actions(None, venv.valid_action_masks()))
                venv.step(taken[-1], observe=False, info=False)
            return np.stack(taken)

        used, fresh = (standard_baselines(seed=3)[policy_index] for _ in range(2))
        act(used, sweep_specs()[:2], steps=1)
        target = sweep_specs()[2:]
        assert np.array_equal(act(used, target, 30), act(fresh, target, 30))


class TestFactory:
    @pytest.mark.parametrize("derive_lane_seeds", [True, False])
    @pytest.mark.parametrize("core", sorted(CORES))
    def test_factory_builds_the_lanes_its_specs_describe(self, core, derive_lane_seeds):
        grid = scenario_grid(small_scenario(), arrival_rates=[0.4, 1.2])
        options = dict(seed=SEED, env_config=ENV_CONFIG, failure_config=FAULTS,
                       derive_lane_seeds=derive_lane_seeds)
        with make_vec_env(grid, auto_reset=False, backend=core, **options) as venv:
            assert isinstance(venv, CORES[core])
            assert venv.auto_reset is False
            assert venv.lane_names == [scenario.name for scenario in grid]
            built = drive_lanes(venv, steps=60)
        specs = lane_specs_from_scenarios(grid, **options)
        assert_lanes_equal(
            run_groups(core, specs, [(0, 2)], steps=60, auto_reset=False), built
        )


def lane_ledgers(env):
    """Every lane's node and link usage, stacked over lanes."""
    if isinstance(env, SoAVecPlacementEnv):
        return env._node_used.copy(), env._link_used.copy()
    ledgers = [lane.network.ledger for lane in env.envs]
    return (np.stack([ledger.node_used for ledger in ledgers]),
            np.stack([ledger.link_used for ledger in ledgers]))


class TestRefusedStep:
    @pytest.mark.parametrize("core", sorted(CORES))
    def test_out_of_range_last_action_moves_no_lane(self, core):
        refused, twin = (CORES[core].from_specs(sweep_specs()) for _ in range(2))
        rng = np.random.default_rng(SEED)
        refused.reset()
        twin.reset()
        for _ in range(12):  # commit some chains first, so the ledgers hold usage
            masks = twin.valid_action_masks().copy()
            actions = [int(rng.choice(np.flatnonzero(mask))) for mask in masks]
            refused.step(actions)
            twin.step(actions)
        assert lane_ledgers(twin)[0].any()
        reject = refused.num_actions - 1
        with pytest.raises(ValueError, match="action 13 outside the action space"):
            refused.step([reject, reject, reject, 13])
        assert [s.as_dict() for s in refused.lane_stats()] == [
            s.as_dict() for s in twin.lane_stats()
        ]
        for after, untouched in zip(lane_ledgers(refused), lane_ledgers(twin)):
            np.testing.assert_array_equal(after, untouched)
        masks = twin.valid_action_masks().copy()
        np.testing.assert_array_equal(refused.valid_action_masks(), masks)
        actions = [int(rng.choice(np.flatnonzero(mask))) for mask in masks]
        np.testing.assert_equal(refused.step(actions), twin.step(actions))
