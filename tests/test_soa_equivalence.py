"""Differential equivalence suite: SoA core vs per-lane reference backend.

Uses the shared harness in ``tests/differential.py`` to drive both backends
through randomized seeded campaigns (scenario shape, workload intensity,
fault injection) and assert **bitwise** equality on every observable:
states, masks, rewards, dones, infos, running episode statistics and
fenced-node sets.  Also covers chains the commit's kernel check refuses
on a link (a tight-link campaign), the K boundaries (K=1, 2, 4 and
256), mid-episode ``reset_lane``, the stale-fence-row regression and
ledger conservation after every step, and finished lanes without
auto-reset.
"""

import inspect
from dataclasses import replace as dataclass_replace

import numpy as np
import pytest

from differential import (
    Campaign,
    assert_lean_matches_full,
    assert_trajectories_equal,
    campaign_from_seed,
    drive,
    masked_random_actions,
    tight_link_factory,
)
from repro.core.env import EnvConfig
from repro.core.soa import SoAVecPlacementEnv
from repro.core.vecenv import VecPlacementEnv, lane_specs_from_scenarios, make_vec_env
from repro.sim.failures import FailureConfig
from repro.substrate.ledger import CAPACITY_TOL, chain_fits
from repro.workloads.scenarios import reference_scenario

#: The ISSUE acceptance bar: at least 50 randomized seeded campaigns, with
#: fault-injection lanes included (even seeds inject failures).
CAMPAIGN_SEEDS = tuple(range(50))


def reference_factory(campaign: Campaign):
    return lambda: VecPlacementEnv.from_scenario(
        campaign.scenario(),
        campaign.num_lanes,
        seed=campaign.seed,
        env_config=campaign.env_config(),
        failure_config=campaign.failure_config,
    )


def soa_factory(campaign: Campaign):
    return lambda: SoAVecPlacementEnv.from_scenario(
        campaign.scenario(),
        campaign.num_lanes,
        seed=campaign.seed,
        env_config=campaign.env_config(),
        failure_config=campaign.failure_config,
    )


@pytest.fixture
def link_refusals(monkeypatch):
    """Chains the SoA commit's kernel check refused on a link, in call order."""
    refused = []

    def spy(node_used, link_used, chain):
        fits = chain_fits(node_used, link_used, chain)
        capacity = chain.topology.link_capacity
        if not fits and any(
            load > capacity[slot] - link_used[slot] + CAPACITY_TOL
            for slot, load in chain.slot_loads
        ):
            refused.append(chain)
        return fits

    monkeypatch.setattr("repro.core.soa.chain_fits", spy)
    return refused


class TestRandomizedCampaigns:
    """The headline deliverable: seeded scenario/workload/fault campaigns."""

    @pytest.mark.parametrize("campaign_seed", CAMPAIGN_SEEDS)
    def test_soa_matches_reference_bitwise(self, campaign_seed):
        campaign = campaign_from_seed(campaign_seed)
        action_seed = campaign_seed + 1000
        reference = drive(
            reference_factory(campaign), campaign.steps, action_seed=action_seed
        )
        soa = drive(soa_factory(campaign), campaign.steps, action_seed=action_seed)
        assert_trajectories_equal(reference, soa)

    def test_campaign_mix_is_diverse(self):
        campaigns = [campaign_from_seed(seed) for seed in CAMPAIGN_SEEDS]
        assert sum(campaign.faulted for campaign in campaigns) == 25
        assert {campaign.num_lanes for campaign in campaigns} == {1, 2, 3, 4}
        assert len(campaigns) >= 50

    def test_campaigns_actually_fence_nodes(self):
        """At least one campaign drives a lane into a fenced-node state."""
        fenced = 0
        for seed in CAMPAIGN_SEEDS:
            campaign = campaign_from_seed(seed)
            if not campaign.faulted:
                continue
            record = drive(
                soa_factory(campaign), campaign.steps, action_seed=seed + 1000
            )
            fenced += any(
                any(entry.get("failed_nodes", [[]]))
                for entry in record["steps"]
                if "failed_nodes" in entry
            )
            if fenced:
                return
        pytest.fail("no fault campaign ever fenced a node; widen the ranges")


class TestLeanStepProtocol:
    """Lean-step drives (``info=False`` / ``observe=False``) vs the full path.

    The lean protocol must be a pure *reporting* change: skipping info dicts
    (and observation encoding) must leave the underlying trajectory —
    rewards, dones, outcome codes, request ids, terminal episode stats,
    running stats, fenced nodes — bitwise identical to a full-protocol run
    with the same seeds.  Covered across both backends and fault-injected
    campaigns (even seeds inject failures).
    """

    #: Mix of faulted (even) and clean (odd) campaigns, 1-4 lanes.
    LEAN_SEEDS = tuple(range(12))

    @pytest.mark.parametrize("campaign_seed", LEAN_SEEDS)
    @pytest.mark.parametrize("backend", ["reference", "soa"])
    def test_lean_info_matches_full(self, campaign_seed, backend):
        campaign = campaign_from_seed(campaign_seed)
        factory = (
            reference_factory if backend == "reference" else soa_factory
        )(campaign)
        action_seed = campaign_seed + 1000
        full = drive(factory, campaign.steps, action_seed=action_seed)
        lean = drive(
            factory, campaign.steps, action_seed=action_seed, info=False
        )
        assert_lean_matches_full(lean, full)

    @pytest.mark.parametrize("campaign_seed", (0, 1, 2, 3))
    @pytest.mark.parametrize("backend", ["reference", "soa"])
    def test_lean_observe_and_info_matches_full(self, campaign_seed, backend):
        """The leanest step — no observations, no infos — still matches."""
        campaign = campaign_from_seed(campaign_seed)
        factory = (
            reference_factory if backend == "reference" else soa_factory
        )(campaign)
        action_seed = campaign_seed + 1000
        full = drive(factory, campaign.steps, action_seed=action_seed)
        lean = drive(
            factory,
            campaign.steps,
            action_seed=action_seed,
            observe=False,
            info=False,
        )
        assert_lean_matches_full(lean, full)

    @pytest.mark.parametrize("campaign_seed", (0, 1, 4, 5, 8, 9))
    def test_lean_soa_matches_lean_reference(self, campaign_seed):
        """Cross-backend differential stays bitwise-equal on lean drives."""
        campaign = campaign_from_seed(campaign_seed)
        action_seed = campaign_seed + 1000
        reference = drive(
            reference_factory(campaign),
            campaign.steps,
            action_seed=action_seed,
            info=False,
        )
        soa = drive(
            soa_factory(campaign),
            campaign.steps,
            action_seed=action_seed,
            info=False,
        )
        assert_trajectories_equal(reference, soa)


class TestTightLinkCommits:
    """Chains the kernel's link check refuses match the reference."""

    STEPS = 300
    #: Node faults fence rows that committed chains must then route around.
    FAULTS = FailureConfig(mean_time_to_failure=40.0, mean_time_to_repair=15.0, seed=3)

    @pytest.mark.parametrize("lean", [False, True], ids=["full", "lean"])
    def test_tight_links_match_reference(self, lean, link_refusals):
        protocol = {"observe": not lean, "info": not lean}
        reference = drive(
            tight_link_factory(VecPlacementEnv), self.STEPS, **protocol
        )
        soa = drive(tight_link_factory(SoAVecPlacementEnv), self.STEPS, **protocol)
        assert link_refusals, "no chain failed the kernel's link check"
        assert_trajectories_equal(reference, soa)

    @pytest.mark.parametrize("lean", [False, True], ids=["full", "lean"])
    def test_tight_links_with_faults_match_reference(self, lean, link_refusals):
        protocol = {"observe": not lean, "info": not lean}
        reference = drive(
            tight_link_factory(VecPlacementEnv, self.FAULTS), self.STEPS, **protocol
        )
        soa = drive(
            tight_link_factory(SoAVecPlacementEnv, self.FAULTS), self.STEPS, **protocol
        )
        assert link_refusals, "no chain failed the kernel's link check"
        assert any(
            any(failed) for entry in soa["steps"] for failed in entry["failed_nodes"]
        ), "no node was ever fenced"
        assert_trajectories_equal(reference, soa)


class TestKBoundaries:
    """K=1, 2, 4 and 256, across backends."""

    BOUNDARY = Campaign(
        seed=17,
        num_lanes=4,
        steps=25,
        num_edge_nodes=6,
        arrival_rate=0.9,
        horizon=120.0,
        requests_per_episode=8,
        failure_config=FailureConfig(
            mean_time_to_failure=30.0, mean_time_to_repair=10.0, seed=5
        ),
    )

    @pytest.mark.parametrize("num_lanes", [1, 2, 4])
    def test_sync_soa_matches_reference(self, num_lanes):
        campaign = dataclass_replace(self.BOUNDARY, num_lanes=num_lanes)
        reference = drive(reference_factory(campaign), campaign.steps)
        soa = drive(soa_factory(campaign), campaign.steps)
        assert_trajectories_equal(reference, soa)

    def test_k256_sync_soa_matches_reference(self):
        campaign = Campaign(
            seed=29,
            num_lanes=256,
            steps=6,
            num_edge_nodes=4,
            arrival_rate=0.8,
            horizon=100.0,
            requests_per_episode=4,
            failure_config=None,
        )
        reference = drive(
            reference_factory(campaign), campaign.steps, record_context=False
        )
        soa = drive(soa_factory(campaign), campaign.steps, record_context=False)
        assert_trajectories_equal(reference, soa)


class TestMidEpisodeLaneReset:
    """reset_lane in the middle of other lanes' episodes, both backends."""

    CAMPAIGN = Campaign(
        seed=11,
        num_lanes=3,
        steps=30,
        num_edge_nodes=6,
        arrival_rate=1.0,
        horizon=140.0,
        requests_per_episode=10,
        failure_config=FailureConfig(
            mean_time_to_failure=35.0, mean_time_to_repair=12.0, seed=3
        ),
    )
    RESETS = {7: 1, 15: 0, 23: 2}

    def test_sync_soa_matches_reference(self):
        campaign = self.CAMPAIGN
        reference = drive(
            reference_factory(campaign), campaign.steps, reset_lane_at=self.RESETS
        )
        soa = drive(soa_factory(campaign), campaign.steps, reset_lane_at=self.RESETS)
        assert_trajectories_equal(reference, soa)


class TestFenceRowHygiene:
    """Regression: fence rows must not leak across episode boundaries.

    A lane whose episode terminates while nodes are fault-fenced must come
    back (auto-reset or ``reset_lane``) with its ``(K, N)`` fence-mask row
    cleared, otherwise the batched mask kernel keeps excluding nodes that
    the fresh episode never fenced.
    """

    @staticmethod
    def _build():
        scenario = reference_scenario(
            arrival_rate=1.0, num_edge_nodes=6, horizon=80.0, seed=13
        )
        return SoAVecPlacementEnv.from_scenario(
            scenario,
            4,
            seed=13,
            env_config=EnvConfig(requests_per_episode=5),
            failure_config=FailureConfig(
                mean_time_to_failure=12.0, mean_time_to_repair=30.0, seed=2
            ),
        )

    @staticmethod
    def _assert_fence_invariant(env):
        for lane, lane_state in enumerate(env._lanes):
            fence_rows = set(np.flatnonzero(env._fence_rows[lane]).tolist())
            assert fence_rows == lane_state.failed_rows, (
                f"lane {lane}: fence-mask rows {sorted(fence_rows)} != "
                f"failed rows {sorted(lane_state.failed_rows)}"
            )

    def test_auto_reset_clears_fence_rows(self):
        env = self._build()
        rng = np.random.default_rng(7)
        env.reset()
        fault_fenced_terminals = 0
        for _ in range(160):
            fenced_before = env._fence_rows.copy()
            masks = env.valid_action_masks()
            _, _, dones, _ = env.step(masked_random_actions(masks, rng))
            self._assert_fence_invariant(env)
            fault_fenced_terminals += int(
                np.any(dones & fenced_before.any(axis=1))
            )
        # The regression needs the triggering condition to actually occur:
        # at least one lane must have terminated while nodes were fenced.
        assert fault_fenced_terminals > 0, (
            "no episode ever terminated with fenced nodes; the regression "
            "path was not exercised — raise the failure rate"
        )

    def test_reset_lane_clears_fence_rows(self):
        env = self._build()
        rng = np.random.default_rng(7)
        env.reset()
        saw_fenced_lane = False
        for step in range(120):
            masks = env.valid_action_masks()
            env.step(masked_random_actions(masks, rng))
            fenced_lanes = np.flatnonzero(env._fence_rows.any(axis=1))
            if fenced_lanes.size:
                saw_fenced_lane = True
                env.reset_lane(int(fenced_lanes[0]))
                self._assert_fence_invariant(env)
        assert saw_fenced_lane, (
            "no lane was ever fenced; the reset_lane regression path was "
            "not exercised — raise the failure rate"
        )


class TestFinishedLanesWithoutAutoReset:
    """A finished lane reads alike on both cores until it is restarted.

    Without auto-reset (one-lane training's setting) a lane that ends its
    episode stays finished until ``reset_lane``: the step's state row and
    the masks taken before the restart, which one-lane training stores as
    its terminal transition, must match the reference bitwise.
    """

    @pytest.mark.parametrize("campaign_seed", range(6))
    def test_finished_lanes_match_the_reference(self, campaign_seed):
        campaign = campaign_from_seed(campaign_seed)
        specs = lane_specs_from_scenarios(
            [campaign.scenario()] * campaign.num_lanes,
            seed=campaign.seed,
            env_config=campaign.env_config(),
            failure_config=campaign.failure_config,
        )
        cores = [
            core.from_specs(specs, auto_reset=False)
            for core in (VecPlacementEnv, SoAVecPlacementEnv)
        ]
        np.testing.assert_array_equal(*(core.reset() for core in cores))
        rng = np.random.default_rng(campaign_seed + 11)
        restarts = 0
        for _ in range(3 * campaign.steps):
            masks = [core.valid_action_masks() for core in cores]
            np.testing.assert_array_equal(*masks)
            actions = masked_random_actions(masks[0], rng)
            stepped = [core.step(actions, info=False) for core in cores]
            for reference, soa in zip(*(result[:3] for result in stepped)):
                np.testing.assert_array_equal(reference, soa)
            states, _, dones, _ = stepped[1]
            finished = np.flatnonzero(dones)
            if not finished.size:
                continue
            masks = [core.valid_action_masks() for core in cores]
            np.testing.assert_array_equal(*masks)
            assert not states[finished].any()
            assert not masks[1][finished, :-1].any() and masks[1][finished, -1].all()
            for lane in finished.tolist():
                np.testing.assert_array_equal(
                    *(core.reset_lane(lane) for core in cores)
                )
                restarts += 1
        assert restarts, "no lane finished an episode; lengthen the drive"


class TestBackendSeam:
    """make_vec_env builds the SoA core, which checks its lane-set requirements."""

    @staticmethod
    def _grid(num_lanes=2):
        scenario = reference_scenario(
            arrival_rate=0.8, num_edge_nodes=6, horizon=100.0, seed=0
        )
        return [scenario] * num_lanes

    def test_make_vec_env_builds_the_soa_core(self):
        venv = make_vec_env(self._grid())
        assert isinstance(venv, SoAVecPlacementEnv)
        assert venv.backend == "soa"
        assert "backend" not in inspect.signature(make_vec_env).parameters

    def test_soa_rejects_mixed_configs(self):
        specs = lane_specs_from_scenarios(
            self._grid(), seed=0, env_config=EnvConfig(requests_per_episode=9)
        )
        SoAVecPlacementEnv.from_specs(specs)
        mixed = [
            specs[0],
            dataclass_replace(specs[1], env_config=EnvConfig(requests_per_episode=21)),
        ]
        with pytest.raises(ValueError, match="one shared EnvConfig"):
            SoAVecPlacementEnv.from_specs(mixed)

    def test_mixed_topologies_are_refused(self):
        a = reference_scenario(num_edge_nodes=4, seed=1)
        b = reference_scenario(num_edge_nodes=4, seed=2)
        assert make_vec_env([a, a]).backend == "soa"
        with pytest.raises(ValueError, match="one shared topology"):
            make_vec_env([a, b])


class TestLedgerConservation:
    """The SoA usage ledgers always equal what the live records reserve.

    After ``reset`` and after every step — full and lean protocol, with and
    without fault injection, through commits and link refusals — each
    lane's ``_node_used`` must equal the demands of its live committed heap
    records at their rows plus its failure fences, and its ``_link_used``
    the bandwidth of those records over every slot traversal.
    """

    #: Faulted (even) and clean (odd) campaigns across 1-4 lanes.
    SYNC_SEEDS = (0, 1, 2, 3, 6, 9)
    #: Releases clamp at zero (``max(0, u - d)``), so sums drift by rounding.
    ATOL = 1e-9

    @classmethod
    def _assert_conserved(cls, env):
        node_expected = np.zeros_like(env._node_used)
        link_expected = np.zeros_like(env._link_used)
        for lane, lane_state in enumerate(env._lanes):
            for _, _, record in lane_state.heap:
                if not record.live:
                    continue
                for row, demand in zip(record.rows, record.demands):
                    node_expected[lane, row] += demand
                for slots in record.segments:
                    for slot in slots:
                        link_expected[lane, slot] += record.bandwidth
        for lane, lane_state in enumerate(env._lanes):
            for row, fence in lane_state.fences.items():
                node_expected[lane, row] += fence
        np.testing.assert_allclose(
            env._node_used, node_expected, rtol=0.0, atol=cls.ATOL
        )
        np.testing.assert_allclose(
            env._link_used, link_expected, rtol=0.0, atol=cls.ATOL
        )

    @classmethod
    def _run(cls, env, steps, action_seed, lean):
        """Drive ``env`` checking conservation; returns the fenced-step count."""
        rng = np.random.default_rng(action_seed)
        env.reset(observe=not lean)
        cls._assert_conserved(env)
        fenced_steps = 0
        for _ in range(steps):
            masks = np.array(env.valid_action_masks(), dtype=bool, copy=True)
            actions = masked_random_actions(masks, rng)
            env.step(actions, observe=not lean, info=not lean)
            cls._assert_conserved(env)
            fenced_steps += any(lane_state.fences for lane_state in env._lanes)
        return fenced_steps

    @pytest.mark.parametrize("lean", [False, True], ids=["full", "lean"])
    @pytest.mark.parametrize("campaign_seed", SYNC_SEEDS)
    def test_ledgers_conserved_after_every_step(self, campaign_seed, lean):
        campaign = campaign_from_seed(campaign_seed)
        env = soa_factory(campaign)()
        self._run(env, campaign.steps, campaign_seed + 77, lean)

    def test_ledgers_conserved_through_link_refusals_and_faults(self, link_refusals):
        env = tight_link_factory(SoAVecPlacementEnv, TestTightLinkCommits.FAULTS)()
        fenced_steps = self._run(env, TestTightLinkCommits.STEPS, 123, lean=False)
        assert link_refusals, "no chain failed the kernel's link check"
        assert fenced_steps, "no node was ever fenced"
