"""The VNF-placement reinforcement-learning environment.

:class:`VNFPlacementEnv` exposes the online placement problem with the usual
``reset`` / ``step`` interface:

* an **episode** processes ``requests_per_episode`` SFC requests drawn from a
  workload generator;
* a **step** places one VNF of the current request on a substrate node (or
  rejects the request);
* when the last VNF of a request is placed the environment attempts to commit
  the full placement — success yields the acceptance reward and reserves
  resources until the request's departure time, failure yields the
  infeasibility penalty;
* between requests the environment advances simulated time and releases the
  resources of departed requests, so the agent experiences realistic load
  dynamics.

The environment follows the Gym calling convention
``step(action) -> (next_state, reward, done, info)`` with an additional
``valid_action_mask()`` accessor used for masked exploration.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.core.action import ActionSpace
from repro.core.reward import RewardCalculator, RewardConfig
from repro.core.state import EncoderConfig, StateEncoder
from repro.nfv.catalog import VNFCatalog, default_catalog
from repro.nfv.placement import Placement, PlacementError
from repro.nfv.sfc import SFCRequest
from repro.sim.failures import FailureConfig, FailureEvent, FailureInjector
from repro.sim.lifecycle import refresh_node_fence, release_node_fence
from repro.substrate.network import NoRouteError, SubstrateNetwork
from repro.utils.rng import derive_seed
from repro.utils.validation import check_positive
from repro.workloads.generator import RequestGenerator


@dataclass
class EnvConfig:
    """Environment-level configuration."""

    requests_per_episode: int = 50
    latency_mask_check: bool = True

    def __post_init__(self) -> None:
        check_positive(self.requests_per_episode, "requests_per_episode")


@dataclass
class EpisodeStats:
    """Statistics accumulated over one episode."""

    requests_seen: int = 0
    accepted: int = 0
    rejected: int = 0
    infeasible: int = 0
    total_reward: float = 0.0
    total_latency_ms: float = 0.0
    total_cost: float = 0.0
    #: Accepted placements torn down by an injected node failure.
    disrupted: int = 0

    @property
    def acceptance_ratio(self) -> float:
        """Fraction of this episode's requests that were accepted."""
        return self.accepted / self.requests_seen if self.requests_seen else 0.0

    @property
    def mean_latency_ms(self) -> float:
        """Mean end-to-end latency over accepted requests."""
        return self.total_latency_ms / self.accepted if self.accepted else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly view of the episode statistics."""
        return {
            "requests_seen": self.requests_seen,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "infeasible": self.infeasible,
            "total_reward": self.total_reward,
            "acceptance_ratio": self.acceptance_ratio,
            "mean_latency_ms": self.mean_latency_ms,
            "total_cost": self.total_cost,
            "disrupted": self.disrupted,
        }


class VNFPlacementEnv:
    """Sequential per-VNF placement environment over a stream of requests.

    With a ``failure_config`` the environment injects node failures into the
    episode: a reproducible :class:`~repro.sim.failures.FailureInjector`
    schedule is drawn per episode, failure/recovery events are applied as
    simulated time advances between requests (failed nodes are *fenced* — any
    remaining capacity is reserved under a failure handle — and active
    placements hosting a VNF there are torn down and counted as
    ``disrupted``), and failed nodes are masked out of
    :meth:`valid_action_mask` until they recover.
    """

    def __init__(
        self,
        network: SubstrateNetwork,
        generator: RequestGenerator,
        catalog: Optional[VNFCatalog] = None,
        reward_config: Optional[RewardConfig] = None,
        encoder_config: Optional[EncoderConfig] = None,
        config: Optional[EnvConfig] = None,
        failure_config: Optional[FailureConfig] = None,
    ) -> None:
        self.network = network
        self.generator = generator
        self.catalog = catalog or generator.catalog or default_catalog()
        self.config = config or EnvConfig()
        self.encoder = StateEncoder(network, self.catalog, encoder_config)
        self.actions = ActionSpace(network, node_order=self.encoder.node_order)
        self.rewards = RewardCalculator(reward_config)
        self.failure_config = failure_config

        self._requests: List[SFCRequest] = []
        self._request_index = 0
        self._current_request: Optional[SFCRequest] = None
        self._vnf_index = 0
        self._partial_assignment: List[int] = []
        self._partial_latency = 0.0
        #: Min-heap of (departure_time, tie-break counter, placement) so that
        #: releasing departed placements pops only expired entries instead of
        #: scanning every active placement each step.
        self._active: List[Tuple[float, int, Placement]] = []
        self._active_counter = 0
        self._episode_done = True
        self.stats = EpisodeStats()
        self._node_action = {
            node_id: index for index, node_id in enumerate(self.actions.node_order)
        }
        self._failure_schedule: List[FailureEvent] = []
        self._failure_cursor = 0
        self._failed_nodes: Set[int] = set()
        self._episode_counter = 0
        zero_state = np.zeros(self.encoder.state_dim, dtype=float)
        zero_state.setflags(write=False)
        self._zero_state = zero_state

    # ------------------------------------------------------------------ #
    # Gym-style dimensions
    # ------------------------------------------------------------------ #
    @property
    def state_dim(self) -> int:
        """Width of observation vectors."""
        return self.encoder.state_dim

    @property
    def num_actions(self) -> int:
        """Number of discrete actions."""
        return self.actions.num_actions

    @property
    def current_request(self) -> Optional[SFCRequest]:
        """The request currently being placed (None between episodes)."""
        return self._current_request

    @property
    def vnf_index(self) -> int:
        """Chain position of the VNF being placed next (0-based)."""
        return self._vnf_index

    @property
    def partial_assignment(self) -> List[int]:
        """Nodes already chosen for the current request, in chain order."""
        return list(self._partial_assignment)

    @property
    def partial_latency_ms(self) -> float:
        """Accumulated latency of the current request's placed prefix."""
        return self._partial_latency

    @property
    def anchor_node_id(self) -> int:
        """The node traffic currently sits at (last placed VNF or ingress).

        Raises when no request is in flight.
        """
        if self._current_request is None:
            raise RuntimeError("no request in flight; the episode is finished")
        return self.encoder.anchor_node(self._current_request, self._partial_assignment)

    @property
    def failed_nodes(self) -> List[int]:
        """Node ids currently fenced by an injected failure."""
        return sorted(self._failed_nodes)

    # ------------------------------------------------------------------ #
    # Episode lifecycle
    # ------------------------------------------------------------------ #
    def reset(self, observe: bool = True) -> np.ndarray:
        """Start a new episode with a fresh request batch and empty substrate.

        ``observe=False`` skips encoding the initial observation (fast path
        for live-substrate policies).
        """
        self.network.reset()
        self._active.clear()
        self._failed_nodes.clear()
        self._failure_cursor = 0
        self._requests = self.generator.generate_batch(self.config.requests_per_episode)
        self._failure_schedule = self._draw_failure_schedule()
        self._episode_counter += 1
        self._request_index = 0
        self.stats = EpisodeStats()
        self._episode_done = False
        self._begin_next_request()
        return self._observe() if observe else self._zero_state

    def _draw_failure_schedule(self) -> List[FailureEvent]:
        """The episode's failure/recovery events (empty without fault injection).

        Each episode draws its own schedule from a seed derived from
        ``(failure seed, episode index)``, so episodes see independent but
        individually reproducible failure patterns.
        """
        if self.failure_config is None or not self._requests:
            return []
        horizon = self._requests[-1].arrival_time
        if horizon <= 0:
            return []
        episode_config = replace(
            self.failure_config,
            seed=derive_seed(
                self.failure_config.seed, "env_failures", self._episode_counter
            ),
        )
        return FailureInjector(episode_config).schedule(self.network, horizon)

    def _begin_next_request(self) -> None:
        """Advance to the next request, applying departures and failures first."""
        if self._request_index >= len(self._requests):
            self._current_request = None
            self._episode_done = True
            return
        request = self._requests[self._request_index]
        self._request_index += 1
        self._advance_time(request.arrival_time)
        self._current_request = request
        self._vnf_index = 0
        self._partial_assignment = []
        self._partial_latency = 0.0
        self.stats.requests_seen += 1

    def _advance_time(self, now: float) -> None:
        """Apply departures and scheduled failure events up to ``now``.

        Departures and failure/recovery events interleave chronologically:
        a placement departing before a node fails frees its capacity before
        the fence is sized, exactly as in the discrete-event simulator.
        """
        schedule = self._failure_schedule
        while (
            self._failure_cursor < len(schedule)
            and schedule[self._failure_cursor].time <= now
        ):
            event = schedule[self._failure_cursor]
            self._failure_cursor += 1
            self._release_departed(event.time)
            if event.is_failure:
                self._fail_node(event.node_id)
            else:
                self._recover_node(event.node_id)
        self._release_departed(now)

    def _fail_node(self, node_id: int) -> None:
        """Fence ``node_id`` and tear down every active placement on it."""
        if node_id in self._failed_nodes:
            return
        self._failed_nodes.add(node_id)
        for _, _, placement in self._active:
            if placement.is_committed and node_id in placement.node_assignment:
                placement.release(self.network)
                self.stats.disrupted += 1
        refresh_node_fence(self.network, node_id)

    def _recover_node(self, node_id: int) -> None:
        """Lift the fence of a recovered node."""
        if node_id not in self._failed_nodes:
            return
        self._failed_nodes.discard(node_id)
        release_node_fence(self.network, node_id)

    def _release_departed(self, now: float) -> None:
        while self._active and self._active[0][0] <= now:
            _, _, placement = heapq.heappop(self._active)
            if placement.is_committed:
                placement.release(self.network)

    def _track_placement(self, departure_time: float, placement: Placement) -> None:
        self._active_counter += 1
        heapq.heappush(self._active, (departure_time, self._active_counter, placement))

    # ------------------------------------------------------------------ #
    # Observations and masks
    # ------------------------------------------------------------------ #
    def _observe(self) -> np.ndarray:
        if self._current_request is None:
            return np.zeros(self.state_dim, dtype=float)
        return self.encoder.encode(
            self._current_request,
            self._vnf_index,
            self._partial_assignment,
            self._partial_latency,
        )

    def valid_action_mask(self) -> np.ndarray:
        """Boolean mask of currently valid actions (reject always valid).

        Nodes fenced by an injected failure are masked out explicitly: the
        fence already consumes their capacity, but folding failure state into
        the mask keeps them unplaceable even if capacity accounting and
        failure state ever disagree.
        """
        if self._current_request is None:
            mask = np.zeros(self.num_actions, dtype=bool)
            mask[self.actions.reject_action] = True
            return mask
        mask = self.actions.valid_mask(
            self._current_request,
            self._vnf_index,
            self._partial_assignment,
            self._partial_latency,
            latency_check=self.config.latency_mask_check,
        )
        for node_id in self._failed_nodes:
            mask[self._node_action[node_id]] = False
        return mask

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def step(
        self, action: int, observe: bool = True
    ) -> Tuple[np.ndarray, float, bool, Dict[str, object]]:
        """Apply one placement decision.

        Returns ``(next_state, reward, done, info)`` where ``done`` marks the
        end of the *episode* (all requests processed); ``info["request_done"]``
        marks the end of the current request's decision sequence.  With
        ``observe=False`` the (relatively expensive) next-state encoding is
        skipped and a read-only zero vector is returned instead — the fast
        path for policies that decide from the live substrate rather than
        the encoded observation.
        """
        if self._episode_done or self._current_request is None:
            raise RuntimeError("step() called on a finished episode; call reset()")
        if not 0 <= action < self.num_actions:
            raise ValueError(f"action {action} outside the action space")

        request = self._current_request
        info: Dict[str, object] = {"request_id": request.request_id, "request_done": False}

        if self.actions.is_reject(action):
            reward = self.rewards.rejection_penalty(request)
            self.stats.rejected += 1
            info["outcome"] = "rejected"
            info["request_done"] = True
            self._begin_next_request()
        else:
            node_id = self.actions.node_for_action(action)
            reward, request_done, outcome = self._place_vnf(request, node_id)
            info["outcome"] = outcome
            info["request_done"] = request_done
            if request_done:
                self._begin_next_request()

        self.stats.total_reward += reward
        done = self._episode_done
        next_state = self._observe() if observe else self._zero_state
        info["episode_stats"] = self.stats.as_dict() if done else None
        return next_state, reward, done, info

    def _place_vnf(
        self, request: SFCRequest, node_id: int
    ) -> Tuple[float, bool, str]:
        """Place the current VNF on ``node_id``; commit when the chain completes."""
        anchor = self.encoder.anchor_node(request, self._partial_assignment)
        try:
            added_latency = (
                self.network.latency_between(anchor, node_id)
                + request.chain.vnf_at(self._vnf_index).processing_delay_ms
            )
        except NoRouteError:
            self.stats.infeasible += 1
            return self.rewards.infeasibility_penalty(request), True, "no_route"

        reward = self.rewards.step_reward(
            request, self.network, node_id, added_latency, self._vnf_index
        )
        self._partial_assignment.append(node_id)
        self._partial_latency += added_latency
        self._vnf_index += 1

        if self._vnf_index < request.num_vnfs:
            return reward, False, "placed"

        # Chain complete: attempt to commit the full placement.
        try:
            placement = Placement.build(request, self._partial_assignment, self.network)
        except NoRouteError:
            self.stats.infeasible += 1
            return (
                reward + self.rewards.infeasibility_penalty(request),
                True,
                "no_route",
            )
        if not placement.is_feasible(self.network):
            self.stats.infeasible += 1
            return (
                reward + self.rewards.infeasibility_penalty(request),
                True,
                "infeasible",
            )
        try:
            placement.commit(self.network)
        except PlacementError:
            self.stats.infeasible += 1
            return (
                reward + self.rewards.infeasibility_penalty(request),
                True,
                "commit_failed",
            )
        self._track_placement(request.departure_time, placement)
        self.stats.accepted += 1
        self.stats.total_latency_ms += placement.end_to_end_latency_ms()
        self.stats.total_cost += placement.total_cost(self.network)
        terminal = self.rewards.acceptance_reward(request, placement, self.network)
        return reward + terminal, True, "accepted"
