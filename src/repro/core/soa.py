"""Structure-of-arrays vectorized placement environment.

:class:`SoAVecPlacementEnv` is the batched counterpart of
:class:`~repro.core.vecenv.VecPlacementEnv`: instead of stepping K live
:class:`~repro.core.env.VNFPlacementEnv` objects (each carrying its own
substrate network, ledger and placement objects), it keeps **one** set of
cross-lane arrays

* ``node_used``  — ``(K, N, 3)`` node ledger (cpu/memory/storage),
* ``link_used``  — ``(K, E)`` link ledger,

over one shared read-only :class:`~repro.substrate.network.SubstrateTopology`
(capacities, unit costs, the all-pairs latency matrix and the route table
are identical across lanes by construction and therefore stored once), plus
one departure heap per lane holding that lane's committed chains as plain
records.  The step/mask/observe pipeline is fused: one decision-context
gather per step feeds the batched mask kernel, the batched step-reward
precompute and the batched state encoder.

This is the only env core production code builds
(:func:`~repro.core.vecenv.make_vec_env`): K=1 training, multi-lane
training and every lane evaluation run on it.  The per-lane object core
(:class:`~repro.core.vecenv.VecPlacementEnv`) survives as the differential
oracle: this class is **bitwise-equivalent** to it — every arithmetic
expression below mirrors the reference operation order (see
``tests/differential.py`` for the harness that enforces this).  The only
intentional difference is memory layout: lanes share one topology, its
constants and its route table, instead of duplicating them K times.

Heuristic policies bind to this core too.  Node-scoring kernels read the
shared :class:`LaneDecisionContext`; plan-replay policies read each lane
through :attr:`SoAVecPlacementEnv.envs`, whose :class:`SoALane` views expose
the request being decided and a copy of the lane's substrate usage.

A lane that places the last VNF of its chain commits that chain the way
:class:`~repro.nfv.placement.Placement` does, through the substrate ledger's
chain kernel on the lane's rows: one route-table entry per segment,
:class:`CompiledChain` + :func:`chain_fits`, the latency and availability
test, :func:`reserve_chain`, then :func:`chain_cost` and the reward
calculator's acceptance reward, the reference env's own pricing.

The class carries no timers.  Per-phase times are measured from outside by
wrapping ``valid_action_masks`` (mask), ``_observe_batch`` (observe),
``_commit_chain`` (commit, one span per completed chain) and ``step`` on an
instance with the end-to-end harness's ``Tracer`` (see
``benchmarks/bench_vecenv.py``).
"""

from __future__ import annotations

import heapq
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.env import EnvConfig, EpisodeStats
from repro.core.reward import RewardCalculator, RewardConfig
from repro.core.state import NODE_FEATURES, REQUEST_SCALARS, EncoderConfig
from repro.core.vecenv import (
    OUTCOME_CODE,
    OUTCOMES,
    LaneSpec,
    lane_specs_from_scenarios,
)
from repro.nfv.sfc import SFCRequest
from repro.nfv.sla import DEFAULT_NODE_AVAILABILITY
from repro.sim.failures import FailureConfig, FailureEvent, FailureInjector
from repro.substrate.ledger import (
    CompiledChain,
    chain_cost,
    chain_fits,
    free_chain,
    reserve_chain,
)
from repro.substrate.link import InsufficientBandwidthError
from repro.substrate.network import UNREACHABLE, SubstrateNetwork, SubstrateTopology
from repro.substrate.node import InsufficientCapacityError
from repro.utils.rng import RandomState, derive_seed
from repro.workloads.scenarios import Scenario

from dataclasses import replace as dataclass_replace


class LaneDecisionContext:
    """Batched arrays describing every lane's pending placement decision.

    Built once per decision step by
    :meth:`SoAVecPlacementEnv.lane_decision_context` and shared by the mask
    kernel, the step-reward precompute, the state encoder and bound
    node-scoring policies, so the per-lane gather happens once per step
    however many consumers read it.  ``capacity``, ``capacity_safe`` and
    ``cost_per_unit`` are ``(K, N, 3)`` read-only broadcasts of the shared
    topology's matrices.  All arrays are read-only by convention; rows of
    inactive lanes (no request in flight) hold neutral filler values and
    must be masked with :attr:`active`.
    """

    __slots__ = (
        "active",
        "anchor_rows",
        "demands",
        "extras",
        "budgets",
        "holding",
        "used",
        "free_tol",
        "latency",
        "capacity",
        "capacity_safe",
        "cost_per_unit",
    )

    def __init__(
        self,
        active: np.ndarray,
        anchor_rows: np.ndarray,
        demands: np.ndarray,
        extras: np.ndarray,
        budgets: np.ndarray,
        holding: np.ndarray,
        used: np.ndarray,
        free_tol: np.ndarray,
        latency: np.ndarray,
        capacity: np.ndarray,
        capacity_safe: np.ndarray,
        cost_per_unit: np.ndarray,
    ) -> None:
        self.active = active
        self.anchor_rows = anchor_rows
        self.demands = demands
        self.extras = extras
        self.budgets = budgets
        self.holding = holding
        self.used = used
        self.free_tol = free_tol
        self.latency = latency
        self.capacity = capacity
        self.capacity_safe = capacity_safe
        self.cost_per_unit = cost_per_unit


class _ChainRecord:
    """One committed chain of one lane, held in that lane's departure heap.

    The heap entries are ``(departure_time, counter, record)``, the reference
    backend's ``(departure_time, counter, Placement)`` keys, so heap order
    (and the raw-heap order failure teardown walks) is the reference's.  Per
    VNF in chain order the record keeps ``rows`` and ``demands`` (float
    lists); per routed segment its link ``segments`` slots; the chain's
    ``bandwidth``; the distinct ``row_set`` teardown tests; and ``live``,
    cleared once a release has freed the chain, so a departure after a
    failure teardown frees nothing twice.
    """

    __slots__ = ("rows", "demands", "segments", "bandwidth", "row_set", "live")

    def __init__(
        self,
        rows: List[int],
        demands: List[List[float]],
        segments: List[Sequence[int]],
        bandwidth: float,
    ) -> None:
        self.rows = tuple(rows)
        self.demands = demands
        self.segments = segments
        self.bandwidth = bandwidth
        self.row_set = frozenset(rows)
        self.live = True


class _RequestView:
    """Precomputed per-request constants consumed by the SoA step kernel."""

    __slots__ = (
        "request_id",
        "source_row",
        "dest_row",
        "sla",
        "min_avail",
        "bw",
        "holding",
        "arrival",
        "departure",
        "num_vnfs",
        "total_proc",
        "vnfs",
        "ctx_row",
        "demand_arrays",
        "demand_lists",
        "licenses",
        "revenue",
    )

    def __init__(
        self,
        request_id: int,
        source_row: int,
        dest_row: Optional[int],
        sla: float,
        min_avail: float,
        bw: float,
        holding: float,
        arrival: float,
        departure: float,
        num_vnfs: int,
        total_proc: float,
        vnfs: List[tuple],
        revenue: float,
    ) -> None:
        self.request_id = request_id
        self.source_row = source_row
        self.dest_row = dest_row
        self.sla = sla
        self.min_avail = min_avail
        self.bw = bw
        self.holding = holding
        self.arrival = arrival
        self.departure = departure
        self.num_vnfs = num_vnfs
        self.total_proc = total_proc
        self.revenue = revenue
        #: One tuple per VNF of the chain:
        #: (demand array, demand float list, processing delay, one-hot index,
        #:  license cost).
        self.vnfs = vnfs
        #: Decision-context row at the head of the chain (vnf_index 0, no
        #: partial placements); field order matches
        #: :meth:`SoAVecPlacementEnv.lane_decision_context`.
        head = vnfs[0]
        proc = head[2]
        self.ctx_row = (
            True,
            head[1],
            proc + 0.0,
            sla,
            holding,
            source_row,
            proc,
            head[3],
            num_vnfs,
            bw,
            0.0,
            0,
            num_vnfs,
        )
        #: Per-instance constants of the chain commit, in chain order: the
        #: demand arrays and float lists (aliasing the ``vnfs`` tuples) and
        #: the license costs.
        self.demand_arrays = [vnf[0] for vnf in vnfs]
        self.demand_lists = [vnf[1] for vnf in vnfs]
        self.licenses = [vnf[4] for vnf in vnfs]


class _LaneState:
    """Mutable per-lane bookkeeping (everything that is not an array)."""

    __slots__ = (
        "generator",
        "failure_config",
        "requests",
        "views",
        "request_index",
        "current",
        "vnf_index",
        "partial_rows",
        "partial_latency",
        "episode_done",
        "stats",
        "schedule",
        "failure_cursor",
        "failed_rows",
        "fences",
        "episode_counter",
        "heap",
        "counter",
    )

    def __init__(self, generator, failure_config: Optional[FailureConfig]) -> None:
        self.generator = generator
        self.failure_config = failure_config
        self.requests: List[SFCRequest] = []
        self.views: List[_RequestView] = []
        self.request_index = 0
        self.current: Optional[_RequestView] = None
        self.vnf_index = 0
        self.partial_rows: List[int] = []
        self.partial_latency = 0.0
        self.episode_done = True
        self.stats = EpisodeStats()
        self.schedule: List[FailureEvent] = []
        self.failure_cursor = 0
        self.failed_rows: set = set()
        self.fences: Dict[int, np.ndarray] = {}
        self.episode_counter = 0
        self.heap: List[Tuple[float, int, _ChainRecord]] = []
        self.counter = 0


class SoALane:
    """One SoA lane, read the way plan-replay policies read a lane env.

    Exposes what the default
    :meth:`~repro.sim.simulation.PlacementPolicy.select_actions` reads from a
    :class:`~repro.core.env.VNFPlacementEnv`: the request being decided, the
    chain position, the action count (an action is a ledger row in both
    cores, reject is the last) and the lane's substrate.
    """

    __slots__ = ("_env", "_lane")

    def __init__(self, env: "SoAVecPlacementEnv", lane: int) -> None:
        self._env = env
        self._lane = lane

    @property
    def num_actions(self) -> int:
        """Number of discrete actions (one per node plus reject)."""
        return self._env.num_actions

    @property
    def current_request(self) -> Optional[SFCRequest]:
        """The request this lane is deciding (None once its episode ended)."""
        st = self._env._lanes[self._lane]
        return None if st.current is None else st.requests[st.request_index - 1]

    @property
    def vnf_index(self) -> int:
        """Chain position of the VNF being placed next (0-based)."""
        return self._env._lanes[self._lane].vnf_index

    @property
    def network(self) -> SubstrateNetwork:
        """A new network over the shared topology holding this lane's usage.

        Nothing commits while a request is planned, so a copy made when the
        plan is made is exact; a fresh ledger has no memo that can go stale.
        """
        env = self._env
        network = SubstrateNetwork.over(env._topology)
        ledger = network.ledger
        ledger.node_used[:] = env._node_used[self._lane]
        ledger.link_used[:] = env._link_used[self._lane]
        return network


#: The step-reward block's context when no lane's latency is inf.
_NO_GUARD = nullcontext()

_UNROUTED_CODE, _INFEASIBLE_CODE, _ACCEPTED_CODE, _COMMIT_FAILED_CODE = (
    OUTCOME_CODE[name]
    for name in ("no_route", "infeasible", "accepted", "commit_failed")
)


def _resolved_configs(
    spec: LaneSpec,
) -> Tuple[EnvConfig, RewardConfig, EncoderConfig]:
    return (
        spec.env_config or EnvConfig(),
        spec.reward_config or RewardConfig(),
        spec.encoder_config or EncoderConfig(),
    )


def _network_signature(network: SubstrateNetwork) -> tuple:
    """Structural fingerprint used to validate cross-lane topology equality."""
    nodes = tuple(
        (
            node.node_id,
            node.tier.value,
            node.capacity.as_tuple(),
            node.cost_per_unit.as_tuple(),
            node.activation_cost,
        )
        for node in network.nodes()
    )
    links = tuple(
        (link.endpoints, link.bandwidth_capacity, link.latency_ms, link.cost_per_mbps)
        for link in network.links()
    )
    return (nodes, links)


class SoAVecPlacementEnv:
    """K placement lanes over one set of structure-of-arrays ledgers.

    Construction requires every lane to share one topology (and
    one resolved env/reward/encoder configuration and catalog); a
    ``ValueError`` is raised otherwise.
    """

    def __init__(
        self,
        specs: Sequence[LaneSpec],
        auto_reset: bool = True,
        lane_names: Optional[Sequence[str]] = None,
    ) -> None:
        specs = list(specs)
        if not specs:
            raise ValueError("SoAVecPlacementEnv needs at least one lane")
        self.auto_reset = auto_reset
        if lane_names is not None and len(lane_names) != len(specs):
            raise ValueError(f"{len(lane_names)} lane names for {len(specs)} lanes")
        self.lane_names: List[str] = (
            list(lane_names)
            if lane_names is not None
            else [spec.name for spec in specs]
        )

        # ---- cross-lane compatibility validation ----------------------- #
        ref_env_cfg, ref_reward_cfg, ref_encoder_cfg = _resolved_configs(specs[0])
        ref_catalog = specs[0].scenario.catalog
        ref_names = list(ref_catalog.names)
        for index, spec in enumerate(specs[1:], start=1):
            env_cfg, reward_cfg, encoder_cfg = _resolved_configs(spec)
            if env_cfg != ref_env_cfg:
                raise ValueError(
                    f"lane {index} env config {env_cfg} differs from lane 0 "
                    f"{ref_env_cfg}; the SoA core requires one shared EnvConfig"
                )
            if reward_cfg != ref_reward_cfg:
                raise ValueError(
                    f"lane {index} reward config differs from lane 0; the SoA "
                    "core requires one shared RewardConfig"
                )
            if encoder_cfg != ref_encoder_cfg:
                raise ValueError(
                    f"lane {index} encoder config differs from lane 0; the SoA "
                    "core requires one shared EncoderConfig"
                )
            if list(spec.scenario.catalog.names) != ref_names:
                raise ValueError(
                    f"lane {index} catalog {list(spec.scenario.catalog.names)} "
                    f"differs from lane 0 {ref_names}; the SoA core requires "
                    "one shared VNF catalog"
                )

        network = specs[0].scenario.build_network()
        ref_signature = _network_signature(network)
        ref_matrix = network.latency_matrix
        seen_factories = {id(specs[0].scenario.topology_factory)}
        for index, spec in enumerate(specs[1:], start=1):
            factory = spec.scenario.topology_factory
            if id(factory) in seen_factories:
                continue
            seen_factories.add(id(factory))
            other = spec.scenario.build_network()
            if _network_signature(other) != ref_signature or not np.array_equal(
                other.latency_matrix, ref_matrix
            ):
                raise ValueError(
                    f"lane {index} topology differs structurally from lane 0; "
                    "the SoA core requires one shared topology across lanes"
                )

        # ---- shared topology + constants -------------------------------- #
        self._network = network
        topology = network.topology
        self._topology = topology
        self._num_nodes = topology.num_nodes
        self._latency = topology.latency
        self._capacity = topology.node_capacity
        self._capacity_safe = topology.node_capacity_safe
        self._cost_per_unit = topology.node_cost_per_unit
        self._node_row = topology.node_row
        self._row_ids = topology.node_ids
        cloud = topology.cloud_tier_mask
        self._row_avail = [
            DEFAULT_NODE_AVAILABILITY["cloud"] if bool(cloud[row]) else DEFAULT_NODE_AVAILABILITY["edge"]
            for row in range(self._num_nodes)
        ]

        # ---- resolved configuration ------------------------------------ #
        self.config = ref_env_cfg
        self._latency_mask_check = ref_env_cfg.latency_mask_check
        self._requests_per_episode = ref_env_cfg.requests_per_episode
        self._rewards = RewardCalculator(ref_reward_cfg)
        self._catalog = ref_catalog
        self._catalog_size = len(ref_catalog)
        self._reject_penalty = ref_reward_cfg.reject_penalty
        self._infeasible_penalty = ref_reward_cfg.infeasible_penalty
        self._step_latency_weight = ref_reward_cfg.step_latency_weight
        self._step_cost_weight = ref_reward_cfg.step_cost_weight
        # Reference: load_balance_weight * 0.1 * utilization (left-assoc).
        self._balance_weight01 = ref_reward_cfg.load_balance_weight * 0.1
        self._cost_normalizer = ref_reward_cfg.cost_normalizer

        # ---- SoA state arrays ------------------------------------------ #
        num_lanes = len(specs)
        self._node_used = np.zeros((num_lanes, self._num_nodes, 3))
        self._link_used = np.zeros((num_lanes, topology.num_links))
        #: (K, N) fence mask folded into the batched action-mask kernel; a
        #: lane's row is cleared on reset so stale fences never leak into the
        #: next episode's masks (regression-tested).
        self._fence_rows = np.zeros((num_lanes, self._num_nodes), dtype=bool)

        self._lanes: List[_LaneState] = []
        for spec in specs:
            lane_scenario = spec.scenario.with_workload_seed(spec.workload_seed)
            generator = lane_scenario.build_generator(self._network)
            self._lanes.append(_LaneState(generator, spec.failure_config))

        #: Per-VNFType constants keyed by type *name*; the value tuple holds
        #: the type object itself so hits can be identity-validated (see
        #: :meth:`_vnf_info` for why ``id()`` keys are unsafe).
        self._type_info: Dict[str, tuple] = {}

        self.episodes_completed = 0
        self._decision_version = 0
        self._context: Optional[LaneDecisionContext] = None
        self._context_version = -1
        #: (K, N) "demands fit free capacity" matrix, shared between the mask
        #: and observation kernels of one decision step.
        self._canhost: Optional[np.ndarray] = None
        self._canhost_version = -1
        self._obs_extras: Optional[tuple] = None
        self._procs: Optional[Sequence[float]] = None
        #: Whether every lane has a request in flight, set with each context.
        self._all_active = False
        #: Context row for lanes with no active request; field order must
        #: match the active-lane tuples in :meth:`lane_decision_context`.
        self._inactive_row = (
            False, (0.0, 0.0, 0.0), 0.0, 1.0, 0.0, 0, 0.0, 0, 0, 0.0, 0.0, 0, 1,
        )
        #: Per-lane decision-context rows, maintained incrementally at the
        #: two mutation sites (request advance, mid-chain placement) so the
        #: batched context never re-walks lane object graphs.
        self._ctx_rows: List[tuple] = [self._inactive_row] * num_lanes
        self._arange_k = np.arange(num_lanes)
        #: The constant divisors of the request-scalar features (remaining
        #: VNFs, bandwidth, holding time), one lane-wide tuple each; the
        #: per-lane SLA and chain length join them at each observation.
        self._scalar_divisors = tuple(
            (value,) * num_lanes
            for value in (
                ref_encoder_cfg.max_chain_length,
                ref_encoder_cfg.bandwidth_normalizer_mbps,
                ref_encoder_cfg.holding_time_normalizer,
            )
        )
        #: (K, N, 3) read-only broadcasts of the topology's constant matrices,
        #: the constant fields of every decision context.
        lane_shape = (num_lanes,) + self._capacity.shape
        self._lane_constants = tuple(
            np.broadcast_to(matrix, lane_shape)
            for matrix in (self._capacity, self._capacity_safe, self._cost_per_unit)
        )
        zero_state = np.zeros(self.state_dim, dtype=float)
        zero_state.setflags(write=False)
        self._zero_state = zero_state
        #: Lean-step outcome recording — always maintained, whether or not
        #: the caller requests info dicts, so ``step(..., info=False)`` loses
        #: no information (see ``last_outcome_codes`` and friends).
        self._out_codes: List[int] = [0] * num_lanes
        self._req_done: List[bool] = [False] * num_lanes
        self._req_ids: List[int] = [0] * num_lanes
        self._finished_stats: Dict[int, Dict[str, float]] = {}

    # ------------------------------------------------------------------ #
    # Construction from scenarios (mirrors VecPlacementEnv)
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
    ) -> "SoAVecPlacementEnv":
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
    ) -> "SoAVecPlacementEnv":
        """One lane per scenario, with the standard per-lane seed derivation."""
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
        cls,
        specs: Sequence[LaneSpec],
        auto_reset: bool = True,
    ) -> "SoAVecPlacementEnv":
        """Build one lane per :class:`LaneSpec`."""
        return cls(
            specs,
            auto_reset=auto_reset,
            lane_names=[spec.name for spec in specs],
        )

    # ------------------------------------------------------------------ #
    # Dimensions
    # ------------------------------------------------------------------ #
    @property
    def num_lanes(self) -> int:
        """Number of environment lanes (K)."""
        return len(self._lanes)

    @property
    def state_dim(self) -> int:
        """Width of each lane's observation vector."""
        return NODE_FEATURES * self._num_nodes + self._catalog_size + REQUEST_SCALARS

    @property
    def num_actions(self) -> int:
        """Number of discrete actions (one per node plus reject)."""
        return self._num_nodes + 1

    @property
    def backend(self) -> str:
        """Backend tag of this vectorized environment."""
        return "soa"

    @property
    def topology(self) -> SubstrateTopology:
        """The read-only topology every lane shares."""
        return self._topology

    @property
    def envs(self) -> List[SoALane]:
        """One :class:`SoALane` view per lane, for plan-replay policies."""
        return [SoALane(self, lane) for lane in range(self.num_lanes)]

    # ------------------------------------------------------------------ #
    # Request views and routed paths
    # ------------------------------------------------------------------ #
    def _vnf_info(self, vnf_type) -> tuple:
        # Keyed by the (stable) type name rather than ``id(vnf_type)``: ids
        # are recycled after GC, so an id key could hand a brand-new type a
        # stale cached row.  The cached tuple keeps the type object, and a
        # hit is only honored when it is the *same object* — a same-named but
        # different type rebuilds the entry instead of reusing stale fields.
        info = self._type_info.get(vnf_type.name)
        if info is None or info[3] is not vnf_type:
            info = (
                vnf_type.processing_delay_ms,
                self._catalog.index_of(vnf_type.name),
                vnf_type.license_cost,
                vnf_type,
            )
            self._type_info[vnf_type.name] = info
        return info

    def _request_view(self, request: SFCRequest) -> _RequestView:
        chain = request.chain
        rows = chain.demand_rows
        vnfs: List[tuple] = []
        for vnf_type, darr, demand in zip(chain.vnf_types, rows, rows.tolist()):
            proc, onehot, license_cost, _ = self._vnf_info(vnf_type)
            vnfs.append((darr, demand, proc, onehot, license_cost))
        dest = request.destination_node_id
        return _RequestView(
            request_id=request.request_id,
            source_row=self._node_row[request.source_node_id],
            dest_row=None if dest is None else self._node_row[dest],
            sla=request.sla.max_latency_ms,
            min_avail=request.sla.min_availability,
            bw=chain.bandwidth_mbps,
            holding=request.holding_time,
            arrival=request.arrival_time,
            departure=request.departure_time,
            num_vnfs=request.num_vnfs,
            total_proc=chain.total_processing_delay_ms(),
            vnfs=vnfs,
            revenue=request.revenue(),
        )

    # ------------------------------------------------------------------ #
    # Episode lifecycle
    # ------------------------------------------------------------------ #
    def reset(self, observe: bool = True) -> np.ndarray:
        """Reset every lane; returns the ``(K, state_dim)`` state batch."""
        self._decision_version += 1
        for lane, st in enumerate(self._lanes):
            self._reset_lane_state(lane, st)
        if not observe:
            return np.zeros((self.num_lanes, self.state_dim), dtype=float)
        return self._observe_batch()

    def reset_lane(self, lane: int) -> np.ndarray:
        """Reset a single lane; returns its fresh state vector."""
        self._decision_version += 1
        self._reset_lane_state(lane, self._lanes[lane])
        return self._observe_batch()[lane]

    def _reset_lane_state(self, lane: int, st: _LaneState) -> None:
        """Start a new episode on one lane (mirrors VNFPlacementEnv.reset)."""
        self._node_used[lane].fill(0.0)
        self._link_used[lane].fill(0.0)
        st.heap.clear()
        st.failed_rows.clear()
        st.fences.clear()
        self._fence_rows[lane] = False
        st.failure_cursor = 0
        st.requests = st.generator.generate_batch(self._requests_per_episode)
        # Request views are precomputed at the episode boundary (they depend
        # only on immutable request/catalog data), keeping per-request view
        # construction out of the steady-state step path.
        view = self._request_view
        st.views = [view(request) for request in st.requests]
        st.schedule = self._draw_failure_schedule(st)
        st.episode_counter += 1
        st.request_index = 0
        st.stats = EpisodeStats()
        st.episode_done = False
        self._begin_next_request(lane, st)

    def _draw_failure_schedule(self, st: _LaneState) -> List[FailureEvent]:
        """Per-episode failure schedule (mirrors the reference derivation)."""
        if st.failure_config is None or not st.requests:
            return []
        horizon = st.requests[-1].arrival_time
        if horizon <= 0:
            return []
        episode_config = dataclass_replace(
            st.failure_config,
            seed=derive_seed(
                st.failure_config.seed, "env_failures", st.episode_counter
            ),
        )
        return FailureInjector(episode_config).schedule(self._network, horizon)

    def _begin_next_request(self, lane: int, st: _LaneState) -> None:
        index = st.request_index
        views = st.views
        if index >= len(views):
            st.current = None
            st.episode_done = True
            self._ctx_rows[lane] = self._inactive_row
            return
        st.request_index = index + 1
        view = views[index]
        if st.schedule:
            self._advance_time(lane, st, view.arrival)
        else:
            self._release_departed(lane, st, view.arrival)
        st.current = view
        st.vnf_index = 0
        st.partial_rows = []
        st.partial_latency = 0.0
        st.stats.requests_seen += 1
        self._ctx_rows[lane] = view.ctx_row

    # ------------------------------------------------------------------ #
    # Departures and failures
    # ------------------------------------------------------------------ #
    def _advance_time(self, lane: int, st: _LaneState, now: float) -> None:
        schedule = st.schedule
        while st.failure_cursor < len(schedule) and schedule[st.failure_cursor].time <= now:
            event = schedule[st.failure_cursor]
            st.failure_cursor += 1
            self._release_departed(lane, st, event.time)
            row = self._node_row[event.node_id]
            if event.is_failure:
                self._fail_node(lane, st, row)
            else:
                self._recover_node(lane, st, row)
        self._release_departed(lane, st, now)

    def _release_departed(self, lane: int, st: _LaneState, now: float) -> None:
        heap = st.heap
        while heap and heap[0][0] <= now:
            record = heapq.heappop(heap)[2]
            if record.live:
                self._release_record(lane, record)

    def _release_record(self, lane: int, record: _ChainRecord) -> None:
        """Free a live record's reservations (segments first, then nodes)."""
        free_chain(
            self._node_used[lane],
            self._link_used[lane],
            record.rows,
            record.demands,
            record.segments,
            record.bandwidth,
        )
        record.live = False

    def _fail_node(self, lane: int, st: _LaneState, row: int) -> None:
        """Fence one row and tear down every active placement hosting on it."""
        if row in st.failed_rows:
            return
        st.failed_rows.add(row)
        self._fence_rows[lane, row] = True
        for _, _, record in st.heap:
            if record.live and row in record.row_set:
                self._release_record(lane, record)
                st.stats.disrupted += 1
        used_row = self._node_used[lane, row]
        remaining = np.maximum(self._capacity[row] - used_row, 0.0)
        r = remaining.tolist()
        # ResourceVector.is_zero: (cpu + memory) + storage <= 1e-12.
        if not ((r[0] + r[1]) + r[2] <= 1e-12):
            used_row += remaining
            st.fences[row] = remaining

    def _recover_node(self, lane: int, st: _LaneState, row: int) -> None:
        if row not in st.failed_rows:
            return
        st.failed_rows.discard(row)
        self._fence_rows[lane, row] = False
        fence = st.fences.pop(row, None)
        if fence is not None:
            used_row = self._node_used[lane, row]
            np.maximum(used_row - fence, 0.0, out=used_row)

    # ------------------------------------------------------------------ #
    # Decision context and masks
    # ------------------------------------------------------------------ #
    def lane_decision_context(self) -> LaneDecisionContext:
        """The batched decision context of the current step (memoized).

        Rebuilt lazily after every :meth:`step` / :meth:`reset` /
        :meth:`reset_lane`; its constants are broadcast views of the shared
        topology matrices rather than K-fold stacks.
        """
        if self._context is not None and self._context_version == self._decision_version:
            return self._context
        (
            active,
            demands,
            extras,
            budgets,
            holding,
            anchor_rows,
            procs,
            onehots,
            remaining,
            bandwidths,
            partials,
            vnf_indices,
            chain_lengths,
        ) = zip(*self._ctx_rows)
        anchor_index = np.array(anchor_rows, dtype=np.int64)
        used = self._node_used.copy()
        capacity, capacity_safe, cost_per_unit = self._lane_constants
        context = LaneDecisionContext(
            active=np.array(active, dtype=bool),
            anchor_rows=anchor_index,
            demands=np.array(demands),
            extras=np.array(extras),
            budgets=np.array(budgets),
            holding=np.array(holding),
            used=used,
            # Same expression as SubstrateLedger.can_host_all, over all lanes.
            free_tol=self._topology.capacity_plus_tol - used,
            latency=self._latency[anchor_index],
            capacity=capacity,
            capacity_safe=capacity_safe,
            cost_per_unit=cost_per_unit,
        )
        self._context = context
        self._context_version = self._decision_version
        self._procs = procs
        self._all_active = all(active)
        chain_divisor, bandwidth_divisor, holding_divisor = self._scalar_divisors
        self._obs_extras = (
            onehots,
            (remaining, bandwidths, partials, holding, vnf_indices),
            (chain_divisor, bandwidth_divisor, budgets, holding_divisor, chain_lengths),
        )
        return context

    def _canhost_matrix(self, context: LaneDecisionContext) -> np.ndarray:
        """(K, N) demand-fits-free-capacity matrix, memoized per decision.

        Both the mask and observation kernels consume it; callers must not
        mutate the returned array in place.
        """
        if self._canhost is None or self._canhost_version != self._context_version:
            self._canhost = (context.demands[:, None, :] <= context.free_tol).all(
                axis=2
            )
            self._canhost_version = self._context_version
        return self._canhost

    def valid_action_masks(self) -> np.ndarray:
        """Stacked ``(K, num_actions)`` boolean validity masks.

        One ``(K, N)`` comparison chain over the decision context, bitwise
        equal to stacking the reference lanes' ``valid_action_mask()``; the
        per-lane failed-node loop is the columnar ``(K, N)`` fence mask.
        """
        context = self.lane_decision_context()
        num_actions = self.num_actions
        num_nodes = self._num_nodes
        masks = np.zeros((self.num_lanes, num_actions), dtype=bool)
        masks[:, num_nodes] = True  # reject is always valid
        canhost = self._canhost_matrix(context)
        if self._latency_mask_check:
            valid = canhost & (
                context.latency + context.extras[:, None]
                <= context.budgets[:, None]
            )
        else:
            valid = canhost.copy()
        if not self._all_active:
            valid &= context.active[:, None]
        valid &= ~self._fence_rows
        masks[:, :num_nodes] = valid
        return masks

    # ------------------------------------------------------------------ #
    # Observations
    # ------------------------------------------------------------------ #
    def _observe_batch(self) -> np.ndarray:
        """Fused batched state encoding (bitwise equal to per-lane encode)."""
        context = self.lane_decision_context()
        onehots, scalars, divisors = self._obs_extras
        num_lanes = self.num_lanes
        num_nodes = self._num_nodes
        states = np.zeros((num_lanes, self.state_dim), dtype=float)
        node_block = states[:, : NODE_FEATURES * num_nodes].reshape(
            num_lanes, num_nodes, NODE_FEATURES
        )
        used = context.used
        utilization = used / self._capacity_safe
        # CPU and memory utilization, features 0 and 1 of every node.
        np.minimum(utilization[:, :, :2], 1.0, out=node_block[:, :, :2])
        np.minimum(
            context.latency / context.budgets[:, None], 1.0, out=node_block[:, :, 2]
        )
        node_block[:, :, 3] = self._canhost_matrix(context)
        offset = NODE_FEATURES * num_nodes
        lanes_idx = self._arange_k
        states[lanes_idx, offset + np.array(onehots, dtype=np.int64)] = 1.0
        offset += self._catalog_size
        # The five request scalars as one (5, K) division, each column the
        # reference's quotient (ints divide as float64 on both sides):
        # remaining VNFs / max chain, bandwidth / normalizer, partial latency
        # / SLA, holding / normalizer, VNF index / chain length.  The last is
        # under 1 on an active lane, so the shared min() leaves it unchanged.
        np.minimum(
            np.array(scalars, dtype=float) / np.array(divisors, dtype=float),
            1.0,
            out=states[:, offset : offset + REQUEST_SCALARS].T,
        )
        if not self._all_active:
            states[~context.active] = 0.0
        return states

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #
    def step(
        self,
        actions: Sequence[int],
        observe: bool = True,
        info: bool = True,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Optional[List[Dict[str, object]]]]:
        """Apply one action per lane (same contract as VecPlacementEnv.step).

        Every action and every lane's episode is checked before the first
        lane moves, so a refused step changes nothing.  The dense-reward
        arithmetic for placement actions is evaluated as one batched
        expression (elementwise, in the reference association order, so every
        float is bitwise equal to the per-lane scalar computation); a lane
        that places the last VNF of its chain commits it through
        :meth:`_commit_chain` when the loop reaches it.

        ``info=False`` selects the lean-step protocol: the infos element of
        the return tuple is ``None`` and callers read the per-lane outcome
        through :meth:`last_outcome_codes` / :meth:`last_request_done` /
        :meth:`last_request_ids` / :meth:`last_episode_stats` instead.  Those
        arrays are recorded unconditionally, so lean and full steps traverse
        the same state transitions bitwise.
        """
        acts = np.asarray(actions, dtype=int).ravel()
        num_lanes = self.num_lanes
        if acts.shape[0] != num_lanes:
            raise ValueError(f"got {acts.shape[0]} actions for {num_lanes} lanes")
        action_list = acts.tolist()
        num_actions = self.num_actions
        for st, action in zip(self._lanes, action_list):
            if st.episode_done or st.current is None:
                raise RuntimeError(
                    "step() called on a finished episode; call reset()"
                )
            if not 0 <= action < num_actions:
                raise ValueError(f"action {action} outside the action space")
        # Pre-step batched reward inputs: latency to the chosen node, hosting
        # dot product and bottleneck utilization, gathered from the pre-step
        # decision context (each lane only ever reads its own rows, which no
        # other lane mutates, so the shared snapshot is exact).
        context = self.lane_decision_context()
        num_nodes = self._num_nodes
        # Actions were checked non-negative above: only reject needs folding
        # onto a node row (its gathered values are never read).
        rows_sel = np.minimum(acts, num_nodes - 1)
        lanes_idx = self._arange_k
        lat_vec = context.latency[lanes_idx, rows_sel]
        # (K,1,3) @ (K,3,1) batched matmul is bitwise equal to the per-pair
        # `demand @ cost_row` the reference reward path computes.
        host_vec = np.matmul(
            context.demands[:, None, :],
            self._cost_per_unit[rows_sel][:, :, None],
        ).ravel()
        util_vec = (
            context.used[lanes_idx, rows_sel] / self._capacity_safe[rows_sel]
        ).max(axis=1)
        # Dense step reward, reference association order:
        #   -( w_lat*(added/sla) + w_cost*((host*holding)/norm) + b01*util )
        # with added = latency + processing delay.  Unroutable anchors carry
        # inf latency; those lanes take the infeasible branch below and never
        # read the (inf-valued) batched reward.  Only inf can make the
        # arithmetic invalid (a zero weight times inf), so the warning guard
        # is entered only on steps where a lane has it.
        inf = np.inf
        lat_list = lat_vec.tolist()
        added_vec = lat_vec + np.asarray(self._procs)
        with np.errstate(invalid="ignore") if inf in lat_list else _NO_GUARD:
            latency_terms = self._step_latency_weight * (added_vec / context.budgets)
            cost_terms = self._step_cost_weight * (
                (host_vec * context.holding) / self._cost_normalizer
            )
            balance_terms = self._balance_weight01 * util_vec
            place_rewards = -((latency_terms + cost_terms) + balance_terms)
        added_list = added_vec.tolist()
        place_list = place_rewards.tolist()
        self._decision_version += 1

        rewards = place_rewards  # lanes that do not place are overwritten
        dones = np.zeros(num_lanes, dtype=bool)
        reject_penalty = self._reject_penalty
        infeasible_penalty = self._infeasible_penalty
        out_codes = self._out_codes
        req_done = self._req_done
        req_ids = self._req_ids
        ctx_rows = self._ctx_rows
        for lane, st in enumerate(self._lanes):
            view = st.current
            action = action_list[lane]
            req_ids[lane] = view.request_id
            if action == num_nodes:
                rewards[lane] = -reject_penalty
                st.stats.rejected += 1
                out_codes[lane] = 1  # rejected
                req_done[lane] = True
                self._begin_next_request(lane, st)
            elif lat_list[lane] == inf:
                rewards[lane] = -infeasible_penalty
                st.stats.infeasible += 1
                out_codes[lane] = 4  # no_route
                req_done[lane] = True
                self._begin_next_request(lane, st)
            else:
                st.partial_rows.append(action)
                st.partial_latency += added_list[lane]
                st.vnf_index += 1
                if st.vnf_index < view.num_vnfs:
                    # Mid-chain placement: the batched reward is already in
                    # the rewards array; advance this lane's context row to
                    # the next VNF of the chain.
                    vnf_index = st.vnf_index
                    vnf = view.vnfs[vnf_index]
                    proc = vnf[2]
                    partial_latency = st.partial_latency
                    ctx_rows[lane] = (
                        True,
                        vnf[1],
                        proc + partial_latency,
                        view.sla,
                        view.holding,
                        action,
                        proc,
                        vnf[3],
                        view.num_vnfs - vnf_index,
                        view.bw,
                        partial_latency,
                        vnf_index,
                        view.num_vnfs,
                    )
                    out_codes[lane] = 2  # placed
                    req_done[lane] = False
                else:
                    # Chain complete: commit it on this lane's rows, which no
                    # other lane reads or writes.
                    code, terminal = self._commit_chain(lane, st, view)
                    rewards[lane] = place_list[lane] + terminal
                    out_codes[lane] = code
                    req_done[lane] = True
                    self._begin_next_request(lane, st)

        # Reward/stat accumulation and episode boundaries run as one pass
        # after the step loop; per-lane stats objects make the cross-lane
        # order unobservable.
        finished = self._finished_stats
        finished.clear()
        rewards_list = rewards.tolist()
        episodes_done = 0
        auto_reset = self.auto_reset
        for lane, st in enumerate(self._lanes):
            st.stats.total_reward += rewards_list[lane]
            if st.episode_done:
                dones[lane] = True
                finished[lane] = st.stats.as_dict()
                episodes_done += 1
                if auto_reset:
                    self._reset_lane_state(lane, st)
        self.episodes_completed += episodes_done

        if info:
            infos: Optional[List[Dict[str, object]]] = []
            lane_names = self.lane_names
            append_info = infos.append
            state_dim = self.state_dim
            zero_state = self._zero_state
            done_list = dones.tolist()
            for lane in range(num_lanes):
                payload: Dict[str, object] = {
                    "request_id": req_ids[lane],
                    "request_done": req_done[lane],
                    "outcome": OUTCOMES[out_codes[lane]],
                    "episode_stats": finished.get(lane),
                    "lane": lane,
                    "lane_name": lane_names[lane],
                }
                if done_list[lane]:
                    payload["terminal_state"] = (
                        np.zeros(state_dim, dtype=float)
                        if observe
                        else zero_state
                    )
                append_info(payload)
        else:
            infos = None
        if observe:
            states = self._observe_batch()
        else:
            states = np.zeros((num_lanes, self.state_dim), dtype=float)
        return states, rewards, dones, infos

    # ------------------------------------------------------------------ #
    # Chain commit (routing, check, reserve, pricing)
    # ------------------------------------------------------------------ #
    def _commit_chain(
        self, lane: int, st: _LaneState, view: _RequestView
    ) -> Tuple[int, float]:
        """Route, check, reserve and price one lane's completed chain.

        The reference env's order and floats: a missing route gives
        ``no_route``; a failed :func:`chain_fits`, a latency over the SLA or
        an availability under it gives ``infeasible``; a
        :func:`reserve_chain` miss (which rolls back) gives
        ``commit_failed``.  Returns the outcome code and the terminal reward
        added to the step reward; an accepted chain joins the lane's
        departure heap.
        """
        rows = st.partial_rows
        topology = self._topology
        routes = topology.routes
        num_nodes = self._num_nodes
        propagation = 0.0
        per_mbps = 0.0
        segments: List[Sequence[int]] = []
        prev = view.source_row
        dest = view.dest_row
        for row in rows if dest is None else [*rows, dest]:
            pair = prev * num_nodes + row
            path = routes[pair]
            if path is None:
                path = topology.route(pair)
            if path is UNREACHABLE:
                return self._refuse(st, _UNROUTED_CODE)
            propagation += path.latency_ms
            per_mbps += path.cost_per_mbps
            segments.append(path.slots)
            prev = row
        chain = CompiledChain(topology, rows, view.demand_arrays, segments, view.bw)
        node_used = self._node_used[lane]
        link_used = self._link_used[lane]
        e2e = propagation + view.total_proc
        if not (chain_fits(node_used, link_used, chain) and e2e <= view.sla + 1e-9):
            return self._refuse(st, _INFEASIBLE_CODE)
        availability = 1.0
        row_avail = self._row_avail
        # Distinct rows in first-occurrence order, the reference's order.
        for row, _ in chain.row_demands:
            availability *= row_avail[row]
        if not availability + 1e-12 >= view.min_avail:
            return self._refuse(st, _INFEASIBLE_CODE)
        try:
            reserve_chain(
                topology, node_used, link_used,
                rows, view.demand_lists, segments, view.bw,
            )
        except (InsufficientCapacityError, InsufficientBandwidthError):
            return self._refuse(st, _COMMIT_FAILED_CODE)
        st.counter += 1
        record = _ChainRecord(rows, view.demand_lists, segments, view.bw)
        heapq.heappush(st.heap, (view.departure, st.counter, record))
        hosting, transport = chain_cost(
            topology, rows, view.demand_lists, view.licenses,
            view.holding, view.bw, per_mbps,
        )
        total_cost = hosting + transport
        stats = st.stats
        stats.accepted += 1
        stats.total_latency_ms += e2e
        stats.total_cost += total_cost
        terminal = self._rewards.acceptance_reward(
            e2e, view.sla, total_cost, view.revenue
        )
        return _ACCEPTED_CODE, terminal

    def _refuse(self, st: _LaneState, code: int) -> Tuple[int, float]:
        """Count a refused chain as infeasible; its code and terminal reward."""
        st.stats.infeasible += 1
        return code, -self._infeasible_penalty

    # ------------------------------------------------------------------ #
    # Introspection (shared vec-env surface)
    # ------------------------------------------------------------------ #
    def lane_stats(self) -> List[EpisodeStats]:
        """The per-lane statistics of the episodes currently in progress."""
        return [st.stats for st in self._lanes]

    def lane_failed_nodes(self) -> List[List[int]]:
        """Per-lane node ids currently fenced by an injected failure."""
        row_ids = self._row_ids
        return [sorted(row_ids[row] for row in st.failed_rows) for st in self._lanes]

    # ------------------------------------------------------------------ #
    # Lean-step accessors (valid after the most recent step())
    # ------------------------------------------------------------------ #
    def last_outcome_codes(self) -> np.ndarray:
        """Per-lane outcome codes of the most recent step (into OUTCOMES).

        Part of the lean-step protocol: with ``step(..., info=False)`` no
        info dicts are built, and callers that need outcomes read this
        ``(K,)`` int8 array instead.
        """
        return np.array(self._out_codes, dtype=np.int8)

    def last_request_done(self) -> np.ndarray:
        """Per-lane "request finished this step" flags of the last step."""
        return np.array(self._req_done, dtype=bool)

    def last_request_ids(self) -> np.ndarray:
        """Per-lane ids of the request each lane acted on last step."""
        return np.array(self._req_ids, dtype=np.int64)

    def last_episode_stats(self, lane: int) -> Dict[str, float]:
        """Finished-episode statistics of a lane whose episode ended.

        Only valid for lanes with ``dones[lane]`` true in the most recent
        step; the payload equals the ``episode_stats`` info entry of the
        full-step protocol.
        """
        try:
            return self._finished_stats[lane]
        except KeyError:
            raise KeyError(
                f"lane {lane} did not finish an episode in the last step"
            ) from None

    def close(self) -> None:
        """End every lane's episode and drop its requests, views and heap.

        A policy bound to these lanes keeps the env alive until it is
        rebound; closing leaves it holding only the fixed-size arrays.  The
        env can be :meth:`reset` again afterwards.
        """
        for lane, st in enumerate(self._lanes):
            st.requests = []
            st.views = []
            st.heap = []
            st.current = None
            st.episode_done = True
            self._ctx_rows[lane] = self._inactive_row
        self._decision_version += 1

    def __enter__(self) -> "SoAVecPlacementEnv":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
