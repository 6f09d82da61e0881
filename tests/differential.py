"""Differential-equivalence harness for vectorized environment backends.

The SoA core (:class:`~repro.core.soa.SoAVecPlacementEnv`) promises **bitwise
equality** with the per-lane reference backend
(:class:`~repro.core.vecenv.VecPlacementEnv`): same states, masks, rewards,
dones, infos, :class:`~repro.core.env.EpisodeStats` and fenced-node sets for
the same seeds and actions.  This module is the contract's enforcement
machinery, shared by ``tests/test_soa_equivalence.py`` and usable by any
future backend:

* :func:`campaign_from_seed` — derive a randomized :class:`Campaign`
  (scenario shape, workload intensity, fault injection) from one integer,
* :func:`drive` — run one backend through a campaign with seeded
  masked-random actions, recording the full trajectory (optionally through
  the lean-step protocol: ``observe=False`` / ``info=False``),
* :func:`assert_trajectories_equal` — compare two recordings bitwise,
* :func:`assert_lean_matches_full` — compare a lean-step recording against a
  full-step recording of the same campaign (outcome codes, request flags and
  finished stats against the info dicts they replace),
* :func:`tight_link_factory` — a fixed campaign over thin links that sends
  chains through the SoA core's scalar replay path.

Every drive records the lean-accessor arrays (outcome codes, request-done
flags, request ids, finished-episode stats) regardless of protocol, so
backend comparisons cover them even when info dicts are also compared.

Comparisons include ``request_id``: each lane's request generator numbers
its requests from zero, so both backends name requests alike with no reset of
the module counter between drives.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.core.env import EnvConfig
from repro.core.vecenv import OUTCOME_CODE
from repro.sim.failures import FailureConfig
from repro.substrate.topology import TopologyConfig, metro_edge_cloud_topology
from repro.workloads.scenarios import Scenario, reference_scenario

@dataclass(frozen=True)
class Campaign:
    """One randomized differential scenario/workload/fault configuration."""

    seed: int
    num_lanes: int
    steps: int
    num_edge_nodes: int
    arrival_rate: float
    horizon: float
    requests_per_episode: int
    failure_config: Optional[FailureConfig]

    def scenario(self) -> Scenario:
        """The shared scenario both backends are built from."""
        return reference_scenario(
            arrival_rate=self.arrival_rate,
            num_edge_nodes=self.num_edge_nodes,
            horizon=self.horizon,
            seed=self.seed,
        )

    def env_config(self) -> EnvConfig:
        """The shared environment configuration."""
        return EnvConfig(requests_per_episode=self.requests_per_episode)

    @property
    def faulted(self) -> bool:
        """Whether the campaign injects node failures."""
        return self.failure_config is not None


def campaign_from_seed(seed: int) -> Campaign:
    """Derive a randomized campaign from one integer seed.

    Even seeds inject node failures (so roughly half of any contiguous seed
    range exercises the fence/teardown/recovery paths); all other knobs are
    drawn from ranges wide enough to hit accepts, rejects, infeasibilities,
    mid-episode departures and auto-resets within a short drive.
    """
    rng = np.random.default_rng(seed)
    failure_config = None
    if seed % 2 == 0:
        failure_config = FailureConfig(
            mean_time_to_failure=float(rng.uniform(20.0, 60.0)),
            mean_time_to_repair=float(rng.uniform(5.0, 25.0)),
            seed=int(rng.integers(0, 2**31 - 1)),
        )
    return Campaign(
        seed=seed,
        num_lanes=int(rng.integers(1, 5)),
        steps=int(rng.integers(25, 61)),
        num_edge_nodes=int(rng.choice([4, 6])),
        arrival_rate=float(rng.uniform(0.4, 1.1)),
        horizon=float(rng.uniform(60.0, 160.0)),
        requests_per_episode=int(rng.integers(6, 15)),
        failure_config=failure_config,
    )


def _tight_link_topology():
    return metro_edge_cloud_topology(
        TopologyConfig(
            num_edge_nodes=4,
            edge_link_bandwidth_mbps=400.0,
            metro_link_bandwidth_mbps=600.0,
            wan_link_bandwidth_mbps=800.0,
            seed=11,
        )
    )


def tight_link_factory(
    env_cls, failure_config: Optional[FailureConfig] = None
) -> Callable[[], object]:
    """K=4 lanes over links thin enough to fail the chain kernel's link check.

    Chains here regularly oversubscribe a link, so some fail
    :func:`~repro.substrate.ledger.chain_fits` on a link rather than a node.
    """
    scenario = replace(
        reference_scenario(
            arrival_rate=2.0, num_edge_nodes=4, horizon=200.0, seed=7
        ),
        topology_factory=_tight_link_topology,
    )
    return lambda: env_cls.from_scenario(
        scenario,
        4,
        seed=7,
        env_config=EnvConfig(requests_per_episode=40),
        failure_config=failure_config,
    )


def masked_random_actions(masks: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One uniformly-random valid action per lane (vectorized draw)."""
    counts = masks.sum(axis=1)
    draws = (rng.random(masks.shape[0]) * counts).astype(int)
    return (masks.cumsum(axis=1) > draws[:, None]).argmax(axis=1)


def _normalized_info(info: Dict[str, object]) -> Tuple[Dict[str, object], Optional[np.ndarray]]:
    """Split an info dict into comparable payload and terminal-state array."""
    payload = dict(info)
    terminal = payload.pop("terminal_state", None)
    return payload, None if terminal is None else np.asarray(terminal, dtype=float)


#: The per-lane decision fields a recorded context holds.
CONTEXT_FIELDS = (
    "active", "anchor_rows", "demands", "extras", "budgets", "holding",
    "used", "latency", "free_tol",
)


def reference_decision_context(venv) -> Dict[str, np.ndarray]:
    """The decision context gathered lane by lane from reference envs.

    The oracle of :meth:`~repro.core.soa.SoAVecPlacementEnv.lane_decision_context`:
    each field stacked over ``venv.envs`` from the lane's live request and
    ledger, with the SoA core's neutral filler for lanes without a request.
    """
    active, anchor_rows, demands, extras, budgets, holding = [], [], [], [], [], []
    for env in venv.envs:
        request = env.current_request
        active.append(request is not None)
        if request is None:
            anchor_rows.append(0)
            demands.append(np.zeros(3))
            extras.append(0.0)
            budgets.append(1.0)
            holding.append(0.0)
            continue
        vnf_index = env.vnf_index
        anchor_rows.append(env.network.ledger.node_row[env.anchor_node_id])
        demands.append(request.chain.demand_rows[vnf_index])
        extras.append(
            request.chain.vnf_at(vnf_index).processing_delay_ms
            + env.partial_latency_ms
        )
        budgets.append(request.sla.max_latency_ms)
        holding.append(request.holding_time)
    ledgers = [env.network.ledger for env in venv.envs]
    used = np.stack([ledger.node_used for ledger in ledgers])
    anchors = np.array(anchor_rows, dtype=np.int64)
    return {
        "active": np.array(active, dtype=bool),
        "anchor_rows": anchors,
        "demands": np.stack(demands),
        "extras": np.array(extras),
        "budgets": np.array(budgets),
        "holding": np.array(holding),
        "used": used,
        "latency": venv.envs[0].network.latency_matrix[anchors],
        "free_tol": np.stack([ledger.capacity_plus_tol for ledger in ledgers]) - used,
    }


def decision_context(venv) -> Dict[str, np.ndarray]:
    """Copies of ``venv``'s decision-context fields, on either core.

    The SoA core's own context, or :func:`reference_decision_context` for a
    reference lane set, which has none.
    """
    if not hasattr(venv, "lane_decision_context"):
        return reference_decision_context(venv)
    context = venv.lane_decision_context()
    return {field: np.array(getattr(context, field), copy=True) for field in CONTEXT_FIELDS}


def drive(
    factory: Callable[[], object],
    steps: int,
    action_seed: int = 123,
    record_context: bool = True,
    reset_lane_at: Optional[Dict[int, int]] = None,
    observe: bool = True,
    info: bool = True,
) -> Dict[str, object]:
    """Run one backend through ``steps`` masked-random actions.

    ``factory`` builds the environment.  The recorded trajectory holds, per
    step: masks, actions, (optionally) the decision context, post-step
    states/rewards/dones/infos, the lean-accessor arrays, per-lane running
    :class:`EpisodeStats` dictionaries and fenced-node id lists.
    ``reset_lane_at`` maps step index -> lane to call ``reset_lane`` on
    *before* that step's mask query (exercising mid-episode lane resets).

    ``observe`` / ``info`` select the lean-step protocol: masks (and hence
    the seeded action draw) are protocol-independent, so a lean drive walks
    the same trajectory as a full drive of the same campaign.  With
    ``info=False`` no ``"infos"`` entries are recorded (the step contract
    returns ``None``); the lean-accessor arrays carry the outcomes instead.
    """
    env = factory()
    try:
        rng = np.random.default_rng(action_seed)
        record: Dict[str, object] = {
            "observe": observe,
            "info": info,
            "reset": np.array(env.reset(observe=observe), dtype=float, copy=True),
            "steps": [],
        }
        for step_index in range(steps):
            if reset_lane_at and step_index in reset_lane_at:
                lane = reset_lane_at[step_index]
                record["steps"].append(
                    {
                        "reset_lane": lane,
                        "reset_lane_state": np.array(
                            env.reset_lane(lane), dtype=float, copy=True
                        ),
                    }
                )
            masks = np.array(env.valid_action_masks(), dtype=bool, copy=True)
            actions = masked_random_actions(masks, rng)
            entry: Dict[str, object] = {"masks": masks, "actions": actions.copy()}
            if record_context:
                entry["context"] = decision_context(env)
            states, rewards, dones, infos = env.step(
                actions, observe=observe, info=info
            )
            entry["states"] = np.array(states, dtype=float, copy=True)
            entry["rewards"] = np.array(rewards, dtype=float, copy=True)
            entry["dones"] = np.array(dones, dtype=bool, copy=True)
            if info:
                entry["infos"] = [_normalized_info(item) for item in infos]
            else:
                assert infos is None, "info=False must return infos=None"
            entry["outcome_codes"] = np.array(env.last_outcome_codes(), copy=True)
            entry["request_done"] = np.array(
                env.last_request_done(), dtype=bool, copy=True
            )
            entry["request_ids"] = np.array(
                env.last_request_ids(), dtype=np.int64, copy=True
            )
            entry["finished_stats"] = {
                lane: dict(env.last_episode_stats(lane))
                for lane in np.flatnonzero(entry["dones"]).tolist()
            }
            entry["stats"] = [stats.as_dict() for stats in env.lane_stats()]
            entry["failed_nodes"] = [list(failed) for failed in env.lane_failed_nodes()]
            record["steps"].append(entry)
        return record
    finally:
        env.close()


def _assert_bitwise(name: str, step: int, a: np.ndarray, b: np.ndarray) -> None:
    if not np.array_equal(np.asarray(a), np.asarray(b)):
        raise AssertionError(
            f"step {step}: {name} diverged\n  a={np.asarray(a)!r}\n  b={np.asarray(b)!r}"
        )


def assert_trajectories_equal(a: Dict[str, object], b: Dict[str, object]) -> None:
    """Assert two :func:`drive` recordings are bitwise identical.

    Everything — including float payloads — must match exactly, so any
    arithmetic reordering in a backend fails loudly rather than "close
    enough".
    """
    _assert_bitwise("reset states", -1, a["reset"], b["reset"])
    assert len(a["steps"]) == len(b["steps"]), (
        f"recordings have {len(a['steps'])} vs {len(b['steps'])} steps"
    )
    for step, (ea, eb) in enumerate(zip(a["steps"], b["steps"])):
        if "reset_lane" in ea or "reset_lane" in eb:
            assert ea.get("reset_lane") == eb.get("reset_lane"), (
                f"step {step}: lane resets diverged"
            )
            _assert_bitwise(
                "reset_lane state", step, ea["reset_lane_state"], eb["reset_lane_state"]
            )
            continue
        _assert_bitwise("masks", step, ea["masks"], eb["masks"])
        _assert_bitwise("actions", step, ea["actions"], eb["actions"])
        if "context" in ea and "context" in eb:
            for field in ea["context"]:
                _assert_bitwise(
                    f"context.{field}", step, ea["context"][field], eb["context"][field]
                )
        _assert_bitwise("states", step, ea["states"], eb["states"])
        _assert_bitwise("rewards", step, ea["rewards"], eb["rewards"])
        _assert_bitwise("dones", step, ea["dones"], eb["dones"])
        assert ("infos" in ea) == ("infos" in eb), (
            f"step {step}: one recording is lean (no infos), the other full; "
            "compare them with assert_lean_matches_full instead"
        )
        if "infos" in ea:
            assert len(ea["infos"]) == len(eb["infos"])
            for lane, ((info_a, term_a), (info_b, term_b)) in enumerate(
                zip(ea["infos"], eb["infos"])
            ):
                assert info_a == info_b, (
                    f"step {step} lane {lane}: infos diverged\n  a={info_a}\n  b={info_b}"
                )
                assert (term_a is None) == (term_b is None), (
                    f"step {step} lane {lane}: terminal_state presence diverged"
                )
                if term_a is not None:
                    _assert_bitwise("terminal_state", step, term_a, term_b)
        _assert_bitwise("outcome_codes", step, ea["outcome_codes"], eb["outcome_codes"])
        _assert_bitwise("request_done", step, ea["request_done"], eb["request_done"])
        _assert_bitwise("request_ids", step, ea["request_ids"], eb["request_ids"])
        assert ea["finished_stats"] == eb["finished_stats"], (
            f"step {step}: finished-episode stats diverged\n"
            f"  a={ea['finished_stats']}\n  b={eb['finished_stats']}"
        )
        assert ea["stats"] == eb["stats"], (
            f"step {step}: lane stats diverged\n  a={ea['stats']}\n  b={eb['stats']}"
        )
        assert ea["failed_nodes"] == eb["failed_nodes"], (
            f"step {step}: fenced-node sets diverged\n"
            f"  a={ea['failed_nodes']}\n  b={eb['failed_nodes']}"
        )


def assert_lean_matches_full(lean: Dict[str, object], full: Dict[str, object]) -> None:
    """Assert a lean-step recording matches a full-step recording bitwise.

    ``lean`` must come from ``drive(..., info=False)`` and ``full`` from a
    full-protocol drive of the *same campaign and action seed*.  Rewards,
    dones, masks, actions, running stats and fenced nodes compare directly;
    the lean outcome arrays compare against the fields of the info dicts
    they replace (outcome string, request_done, request_id, episode_stats).
    States compare only when both drives used the same ``observe`` setting
    (an ``observe=False`` drive returns zero vectors by contract).
    """
    assert lean.get("info") is False, "first recording must be a lean drive"
    assert full.get("info", True) is True, "second recording must be a full drive"
    compare_states = lean.get("observe", True) == full.get("observe", True)
    if compare_states:
        _assert_bitwise("reset states", -1, lean["reset"], full["reset"])
    assert len(lean["steps"]) == len(full["steps"]), (
        f"recordings have {len(lean['steps'])} vs {len(full['steps'])} steps"
    )
    for step, (el, ef) in enumerate(zip(lean["steps"], full["steps"])):
        if "reset_lane" in el or "reset_lane" in ef:
            assert el.get("reset_lane") == ef.get("reset_lane"), (
                f"step {step}: lane resets diverged"
            )
            if compare_states:
                _assert_bitwise(
                    "reset_lane state", step,
                    el["reset_lane_state"], ef["reset_lane_state"],
                )
            continue
        _assert_bitwise("masks", step, el["masks"], ef["masks"])
        _assert_bitwise("actions", step, el["actions"], ef["actions"])
        if compare_states:
            _assert_bitwise("states", step, el["states"], ef["states"])
        _assert_bitwise("rewards", step, el["rewards"], ef["rewards"])
        _assert_bitwise("dones", step, el["dones"], ef["dones"])
        full_infos = [payload for payload, _ in ef["infos"]]
        _assert_bitwise(
            "outcome_codes", step,
            el["outcome_codes"],
            np.array([OUTCOME_CODE[i["outcome"]] for i in full_infos], dtype=np.int8),
        )
        _assert_bitwise(
            "request_done", step,
            el["request_done"],
            np.array([i["request_done"] for i in full_infos], dtype=bool),
        )
        _assert_bitwise(
            "request_ids", step,
            el["request_ids"],
            np.array([i["request_id"] for i in full_infos], dtype=np.int64),
        )
        for lane in np.flatnonzero(np.asarray(el["dones"])).tolist():
            assert el["finished_stats"][lane] == full_infos[lane]["episode_stats"], (
                f"step {step} lane {lane}: finished-episode stats diverged\n"
                f"  lean={el['finished_stats'][lane]}\n"
                f"  full={full_infos[lane]['episode_stats']}"
            )
        assert el["stats"] == ef["stats"], (
            f"step {step}: lane stats diverged\n  a={el['stats']}\n  b={ef['stats']}"
        )
        assert el["failed_nodes"] == ef["failed_nodes"], (
            f"step {step}: fenced-node sets diverged\n"
            f"  a={el['failed_nodes']}\n  b={ef['failed_nodes']}"
        )


__all__ = [
    "Campaign",
    "assert_lean_matches_full",
    "assert_trajectories_equal",
    "campaign_from_seed",
    "drive",
    "masked_random_actions",
]
