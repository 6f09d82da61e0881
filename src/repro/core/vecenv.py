"""Synchronous vectorized placement environments.

:class:`VecPlacementEnv` steps K independent :class:`VNFPlacementEnv` lanes
behind one batched interface::

    lane 0:  [env] --state--+                          +--action--> [env]
    lane 1:  [env] --state--+--> (K, S) states --+     +--action--> [env]
      ...                   |                    |agent|    ...
    lane K-1:[env] --state--+    (K, A) masks ---+     +--action--> [env]

* :meth:`reset` returns a ``(K, state_dim)`` state batch;
* :meth:`step` applies one action per lane and returns batched
  ``(states, rewards, dones, infos)``, auto-resetting every lane whose
  episode finished (the pre-reset terminal observation is preserved in
  ``infos[i]["terminal_state"]``);
* :meth:`valid_action_masks` stacks the per-lane validity masks into a
  ``(K, num_actions)`` boolean array.

Lanes are plain environments stepped in order, so a K-lane vectorized run
with fixed per-lane seeds is *bitwise identical* to K serial runs.  Lanes
may be built from one scenario (replicated with derived per-lane workload
seeds) or from *different* scenarios (e.g. a
:func:`~repro.workloads.scenarios.scenario_grid` load sweep), as long as
every lane agrees on ``state_dim`` and ``num_actions``.

This per-lane core serves K=1 training (``Trainer``) and lane sets the
fused :class:`~repro.core.soa.SoAVecPlacementEnv` rejects (mixed
topologies or configurations), and is the differential oracle the SoA core
is held to bitwise.  Batched decision work — the shared decision context,
the mask kernel and the heuristic score kernels that read it — lives on the
SoA core.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from dataclasses import dataclass, replace as dataclass_replace

from repro.core.env import EnvConfig, EpisodeStats, VNFPlacementEnv
from repro.core.reward import RewardConfig
from repro.core.state import EncoderConfig
from repro.sim.failures import FailureConfig
from repro.utils.rng import RandomState, derive_seed
from repro.workloads.scenarios import Scenario

#: Step outcomes shared by every vectorized backend, encoded as one byte per
#: lane in the lean-step protocol.
#: Index 0 is "no outcome" and is never observed after a completed step.
OUTCOMES = (
    "",
    "rejected",
    "placed",
    "accepted",
    "no_route",
    "infeasible",
    "commit_failed",
)
OUTCOME_CODE = {name: code for code, name in enumerate(OUTCOMES)}


def lane_workload_seed(seed: RandomState, lane_index: int, scenario_name: str) -> int:
    """The derived workload seed of lane ``lane_index``.

    Exposed so tests (and anyone reconstructing a lane serially) can build an
    environment that reproduces a vectorized lane's request stream exactly.
    """
    return derive_seed(seed, "vec_lane", lane_index, scenario_name)


def lane_failure_seed(seed: RandomState, lane_index: int, scenario_name: str) -> int:
    """The derived failure-schedule seed of lane ``lane_index``.

    Mirrors :func:`lane_workload_seed` for fault-injected lanes, so a lane's
    failure pattern can be reproduced serially as well.
    """
    return derive_seed(seed, "vec_lane_failures", lane_index, scenario_name)


@dataclass
class LaneSpec:
    """Everything needed to (re)build one environment lane.

    This is the construction kernel of the vectorized environments: both
    :class:`VecPlacementEnv` and :class:`~repro.core.soa.SoAVecPlacementEnv`
    build their K lanes from specs, so the two cores start from identical
    lanes.
    """

    scenario: Scenario
    workload_seed: int
    name: str
    env_config: Optional[EnvConfig] = None
    reward_config: Optional[RewardConfig] = None
    encoder_config: Optional[EncoderConfig] = None
    failure_config: Optional[FailureConfig] = None

    def build(self) -> VNFPlacementEnv:
        """Build this lane: own network copy, own request stream."""
        return make_lane_env(
            self.scenario,
            self.workload_seed,
            env_config=self.env_config,
            reward_config=self.reward_config,
            encoder_config=self.encoder_config,
            failure_config=self.failure_config,
        )


def lane_specs_from_scenarios(
    scenarios: Sequence[Scenario],
    seed: RandomState = 0,
    env_config: Optional[EnvConfig] = None,
    reward_config: Optional[RewardConfig] = None,
    encoder_config: Optional[EncoderConfig] = None,
    derive_lane_seeds: bool = True,
    failure_config: Optional[FailureConfig] = None,
) -> List[LaneSpec]:
    """One :class:`LaneSpec` per scenario, with derived per-lane seeds.

    The seed-derivation rules are exactly those of
    :meth:`VecPlacementEnv.from_scenarios` (workload seeds via
    :func:`lane_workload_seed`, failure seeds via :func:`lane_failure_seed`),
    so lanes built from these specs reproduce the same request and failure
    streams on either lane core.
    """
    return [
        LaneSpec(
            scenario=scenario,
            workload_seed=(
                lane_workload_seed(seed, index, scenario.name)
                if derive_lane_seeds
                else scenario.workload_config.seed
            ),
            name=scenario.name,
            env_config=env_config,
            reward_config=reward_config,
            encoder_config=encoder_config,
            failure_config=(
                None
                if failure_config is None
                else dataclass_replace(
                    failure_config,
                    seed=lane_failure_seed(seed, index, scenario.name),
                )
            ),
        )
        for index, scenario in enumerate(scenarios)
    ]


def make_lane_env(
    scenario: Scenario,
    workload_seed: RandomState,
    env_config: Optional[EnvConfig] = None,
    reward_config: Optional[RewardConfig] = None,
    encoder_config: Optional[EncoderConfig] = None,
    failure_config: Optional[FailureConfig] = None,
) -> VNFPlacementEnv:
    """Build one environment lane: own network copy, own request stream."""
    lane_scenario = scenario.with_workload_seed(workload_seed)
    network = lane_scenario.build_network()
    generator = lane_scenario.build_generator(network)
    return VNFPlacementEnv(
        network=network,
        generator=generator,
        catalog=lane_scenario.catalog,
        reward_config=reward_config,
        encoder_config=encoder_config,
        config=env_config,
        failure_config=failure_config,
    )


def make_vec_env(
    scenarios: Sequence[Scenario],
    seed: RandomState = 0,
    env_config: Optional[EnvConfig] = None,
    reward_config: Optional[RewardConfig] = None,
    encoder_config: Optional[EncoderConfig] = None,
    auto_reset: bool = True,
    derive_lane_seeds: bool = True,
    failure_config: Optional[FailureConfig] = None,
    backend: str = "reference",
):
    """Build a vectorized environment over one lane per scenario.

    ``backend`` selects the lane core:

    * ``"reference"`` — per-lane :class:`~repro.core.env.VNFPlacementEnv`
      objects behind :class:`VecPlacementEnv`,
    * ``"soa"`` — the fused structure-of-arrays core
      (:class:`~repro.core.soa.SoAVecPlacementEnv`); raises ``ValueError``
      when the lane set violates its shared-topology requirements,
    * ``"auto"`` — ``"soa"``, falling back to ``"reference"`` when the SoA
      core rejects the lane set.

    Both cores build lanes from the same specs and are bitwise
    trajectory-equivalent (the differential suite asserts it), so swapping
    backends never changes results — only throughput.
    """
    if backend not in ("reference", "soa", "auto"):
        raise ValueError(
            f"unknown env backend {backend!r}; expected 'reference', 'soa' "
            "or 'auto'"
        )
    specs = lane_specs_from_scenarios(
        scenarios,
        seed=seed,
        env_config=env_config,
        reward_config=reward_config,
        encoder_config=encoder_config,
        derive_lane_seeds=derive_lane_seeds,
        failure_config=failure_config,
    )
    # Imported here because repro.core.soa builds on this module.
    from repro.core.soa import SoAVecPlacementEnv

    if backend != "reference":
        try:
            return SoAVecPlacementEnv.from_specs(specs, auto_reset=auto_reset)
        except ValueError:
            if backend == "soa":
                raise
    return VecPlacementEnv.from_specs(specs, auto_reset=auto_reset)


class VecPlacementEnv:
    """K independent placement environments behind one batched interface."""

    def __init__(
        self,
        envs: Sequence[VNFPlacementEnv],
        auto_reset: bool = True,
        lane_names: Optional[Sequence[str]] = None,
    ) -> None:
        if not envs:
            raise ValueError("VecPlacementEnv needs at least one lane")
        self.envs: List[VNFPlacementEnv] = list(envs)
        reference = self.envs[0]
        for index, env in enumerate(self.envs):
            if (
                env.state_dim != reference.state_dim
                or env.num_actions != reference.num_actions
            ):
                raise ValueError(
                    f"lane {index} has (state_dim, num_actions)="
                    f"({env.state_dim}, {env.num_actions}) but lane 0 has "
                    f"({reference.state_dim}, {reference.num_actions}); all "
                    "lanes must share one observation and action space"
                )
        self.auto_reset = auto_reset
        if lane_names is not None and len(lane_names) != len(self.envs):
            raise ValueError(
                f"{len(lane_names)} lane names for {len(self.envs)} lanes"
            )
        self.lane_names: List[str] = (
            list(lane_names)
            if lane_names is not None
            else [f"lane{i}" for i in range(len(self.envs))]
        )
        #: Total episodes completed across all lanes since construction.
        self.episodes_completed = 0
        # Lean-step outcome arrays (see the accessors below): the reference
        # backend records them from the per-lane info dicts it builds anyway,
        # so the lean protocol is a contract here, not an optimization.
        num_lanes = len(self.envs)
        self._last_outcomes = np.zeros(num_lanes, dtype=np.int8)
        self._last_request_done = np.zeros(num_lanes, dtype=bool)
        self._last_request_ids = np.zeros(num_lanes, dtype=np.int64)
        self._last_finished_stats: Dict[int, Dict[str, float]] = {}

    # ------------------------------------------------------------------ #
    # Construction from scenarios
    # ------------------------------------------------------------------ #
    @classmethod
    def from_scenario(
        cls,
        scenario: Scenario,
        num_lanes: int,
        seed: RandomState = 0,
        env_config: Optional[EnvConfig] = None,
        reward_config: Optional[RewardConfig] = None,
        encoder_config: Optional[EncoderConfig] = None,
        auto_reset: bool = True,
        failure_config: Optional[FailureConfig] = None,
    ) -> "VecPlacementEnv":
        """K lanes of one scenario with independent derived workload seeds."""
        if num_lanes <= 0:
            raise ValueError(f"num_lanes must be positive, got {num_lanes}")
        return cls.from_scenarios(
            [scenario] * num_lanes,
            seed=seed,
            env_config=env_config,
            reward_config=reward_config,
            encoder_config=encoder_config,
            auto_reset=auto_reset,
            failure_config=failure_config,
        )

    @classmethod
    def from_scenarios(
        cls,
        scenarios: Sequence[Scenario],
        seed: RandomState = 0,
        env_config: Optional[EnvConfig] = None,
        reward_config: Optional[RewardConfig] = None,
        encoder_config: Optional[EncoderConfig] = None,
        auto_reset: bool = True,
        derive_lane_seeds: bool = True,
        failure_config: Optional[FailureConfig] = None,
    ) -> "VecPlacementEnv":
        """One lane per scenario — a scenario-diverse vectorized environment.

        By default every lane gets a workload seed derived from ``(seed, lane
        index, scenario name)``, so two lanes of the same scenario still see
        independent request streams while remaining individually
        reproducible.  Pass ``derive_lane_seeds=False`` to keep each
        scenario's own workload seed instead (e.g. to reproduce the exact
        request streams of a :func:`~repro.workloads.scenarios.scenario_grid`
        consumed elsewhere) — the scenarios must then be distinct, or lanes
        will duplicate one another's streams.

        With a ``failure_config`` every lane injects node failures from its
        own derived schedule seed (:func:`lane_failure_seed`), making the
        batch a fault-diverse availability sweep.
        """
        specs = lane_specs_from_scenarios(
            scenarios,
            seed=seed,
            env_config=env_config,
            reward_config=reward_config,
            encoder_config=encoder_config,
            derive_lane_seeds=derive_lane_seeds,
            failure_config=failure_config,
        )
        return cls.from_specs(specs, auto_reset=auto_reset)

    @classmethod
    def from_specs(
        cls, specs: Sequence[LaneSpec], auto_reset: bool = True
    ) -> "VecPlacementEnv":
        """Build one lane per :class:`LaneSpec`."""
        return cls(
            [spec.build() for spec in specs],
            auto_reset=auto_reset,
            lane_names=[spec.name for spec in specs],
        )

    # ------------------------------------------------------------------ #
    # Dimensions
    # ------------------------------------------------------------------ #
    @property
    def num_lanes(self) -> int:
        """Number of environment lanes (K)."""
        return len(self.envs)

    @property
    def state_dim(self) -> int:
        """Width of each lane's observation vector."""
        return self.envs[0].state_dim

    @property
    def num_actions(self) -> int:
        """Number of discrete actions (shared by all lanes)."""
        return self.envs[0].num_actions

    @property
    def backend(self) -> str:
        """Backend tag of this vectorized environment."""
        return "reference"

    # ------------------------------------------------------------------ #
    # Episode lifecycle
    # ------------------------------------------------------------------ #
    def reset(self, observe: bool = True) -> np.ndarray:
        """Reset every lane; returns the ``(K, state_dim)`` state batch.

        ``observe=False`` skips per-lane state encoding (zero batch).
        """
        return np.stack([env.reset(observe=observe) for env in self.envs])

    def reset_lane(self, lane: int) -> np.ndarray:
        """Reset a single lane; returns its fresh state vector."""
        return self.envs[lane].reset()

    def valid_action_masks(self) -> np.ndarray:
        """Stacked ``(K, num_actions)`` boolean validity masks."""
        return np.stack([env.valid_action_mask() for env in self.envs])

    def lane_stats(self) -> List[EpisodeStats]:
        """The per-lane statistics of the episodes currently in progress."""
        return [env.stats for env in self.envs]

    def lane_failed_nodes(self) -> List[List[int]]:
        """Per-lane node ids currently fenced by an injected failure."""
        return [env.failed_nodes for env in self.envs]

    # ------------------------------------------------------------------ #
    # Lean-step accessors (valid after the most recent step())
    # ------------------------------------------------------------------ #
    def last_outcome_codes(self) -> np.ndarray:
        """Per-lane outcome codes of the most recent step (into OUTCOMES).

        Part of the lean-step protocol: with ``step(..., info=False)`` no
        info dicts are built, and callers that need outcomes read this
        ``(K,)`` int8 array instead.  The returned array is owned by the
        environment and overwritten by the next step.
        """
        return self._last_outcomes

    def last_request_done(self) -> np.ndarray:
        """Per-lane "request finished this step" flags of the last step."""
        return self._last_request_done

    def last_request_ids(self) -> np.ndarray:
        """Per-lane ids of the request each lane acted on last step."""
        return self._last_request_ids

    def last_episode_stats(self, lane: int) -> Dict[str, float]:
        """Finished-episode statistics of a lane whose episode ended.

        Only valid for lanes with ``dones[lane]`` true in the most recent
        step; the payload equals the ``episode_stats`` info entry of the
        full-step protocol.
        """
        try:
            return self._last_finished_stats[lane]
        except KeyError:
            raise KeyError(
                f"lane {lane} did not finish an episode in the last step"
            ) from None

    def close(self) -> None:
        """Release lane resources (a no-op for the in-process lane set).

        Part of the shared vectorized-environment surface: callers close
        whatever :func:`make_vec_env` handed them without caring which lane
        core backs it.
        """

    def __enter__(self) -> "VecPlacementEnv":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def step(
        self, actions: Sequence[int], observe: bool = True, info: bool = True
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[List[Dict[str, object]]]]:
        """Apply one action per lane.

        Returns ``(states, rewards, dones, infos)`` with shapes
        ``(K, state_dim)``, ``(K,)``, ``(K,)`` and a list of K info dicts.
        ``dones[i]`` marks the end of lane i's *episode*; with ``auto_reset``
        the lane is reset immediately and ``states[i]`` is the first state of
        its next episode, while ``infos[i]["terminal_state"]`` keeps the true
        terminal observation and ``infos[i]["episode_stats"]`` the finished
        episode's statistics.  Every info dict also carries its ``lane`` index
        and ``lane_name``.  With ``observe=False`` next-state encoding is
        skipped lane-by-lane and the state batch is all zeros — the fast path
        for batched placement policies that read the live lane substrate.

        ``info=False`` selects the **lean-step protocol**: the infos element
        of the return tuple is ``None`` and callers read the per-lane outcome
        arrays through :meth:`last_outcome_codes` / :meth:`last_request_done`
        / :meth:`last_request_ids` / :meth:`last_episode_stats` instead.  The
        lean path changes only what is *returned*, never what happens — the
        trajectory (rewards, dones, outcomes, stats) is bitwise identical to
        the full protocol (``tests/differential.py`` enforces this).
        """
        actions = np.asarray(actions, dtype=int).ravel()
        if actions.shape[0] != self.num_lanes:
            raise ValueError(
                f"got {actions.shape[0]} actions for {self.num_lanes} lanes"
            )
        # Refuse the whole step before any lane moves.
        num_actions = self.num_actions
        for env, action in zip(self.envs, actions.tolist()):
            if env._episode_done or env._current_request is None:
                raise RuntimeError("step() called on a finished episode; call reset()")
            if not 0 <= action < num_actions:
                raise ValueError(f"action {action} outside the action space")
        states = np.empty((self.num_lanes, self.state_dim), dtype=float)
        rewards = np.empty(self.num_lanes, dtype=float)
        dones = np.empty(self.num_lanes, dtype=bool)
        infos: Optional[List[Dict[str, object]]] = [] if info else None
        outcomes = self._last_outcomes
        request_done = self._last_request_done
        request_ids = self._last_request_ids
        self._last_finished_stats.clear()
        for lane, env in enumerate(self.envs):
            state, reward, done, lane_info = env.step(
                int(actions[lane]), observe=observe
            )
            outcomes[lane] = OUTCOME_CODE[lane_info["outcome"]]
            request_done[lane] = lane_info["request_done"]
            request_ids[lane] = lane_info["request_id"]
            if done:
                self.episodes_completed += 1
                self._last_finished_stats[lane] = lane_info["episode_stats"]
                if info:
                    lane_info["terminal_state"] = state
                if self.auto_reset:
                    state = env.reset(observe=observe)
            states[lane] = state
            rewards[lane] = reward
            dones[lane] = done
            if info:
                lane_info["lane"] = lane
                lane_info["lane_name"] = self.lane_names[lane]
                infos.append(lane_info)
        return states, rewards, dones, infos
