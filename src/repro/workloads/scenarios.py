"""Named workload + topology scenarios used by examples and benchmarks.

A :class:`Scenario` bundles everything one experiment run needs — a topology
factory, a VNF catalog, chain templates and a workload configuration — under
a single seed, so "the reference scenario at λ = 0.8" is one line of code in
benchmarks and examples.

The factories of :func:`reference_scenario` and :func:`scalability_scenario`
generate their topology once and return a new network with an empty ledger
over it on every call; the other scenarios and every ``replace`` copy keep
the factory, and so share that topology and its route table.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence

from repro.nfv.catalog import (
    ChainTemplate,
    VNFCatalog,
    default_catalog,
    default_chain_templates,
)
from repro.nfv.sfc import SFCRequest
from repro.sim.arrivals import ArrivalProcess, DiurnalProcess, MMPPProcess, PoissonProcess
from repro.substrate.network import SubstrateNetwork, SubstrateTopology
from repro.substrate.topology import (
    TopologyConfig,
    metro_edge_cloud_topology,
    scaled_topology,
)
from repro.utils.rng import RandomState, derive_seed, new_rng
from repro.workloads.generator import RequestGenerator, WorkloadConfig


@dataclass
class Scenario:
    """A reproducible experiment scenario."""

    name: str
    topology_factory: Callable[[], SubstrateNetwork]
    workload_config: WorkloadConfig
    catalog: VNFCatalog
    templates: Sequence[ChainTemplate]
    arrival_kind: str = "poisson"
    seed: RandomState = 0

    def build_network(self) -> SubstrateNetwork:
        """A new substrate network, with an empty ledger, for this scenario."""
        return self.topology_factory()

    def build_generator(self, network: Optional[SubstrateNetwork] = None) -> RequestGenerator:
        """A request generator bound to (a fresh copy of) the scenario network."""
        return RequestGenerator(
            network=network or self.build_network(),
            catalog=self.catalog,
            templates=self.templates,
            config=self.workload_config,
        )

    def build_arrival_process(self) -> ArrivalProcess:
        """The arrival process named by ``arrival_kind``."""
        rate = self.workload_config.arrival_rate
        seed = derive_seed(self.seed, "arrival_process")
        if self.arrival_kind == "poisson":
            return PoissonProcess(rate, seed=seed)
        if self.arrival_kind == "mmpp":
            return MMPPProcess(low_rate=0.5 * rate, high_rate=2.0 * rate, seed=seed)
        if self.arrival_kind == "diurnal":
            return DiurnalProcess(base_rate=rate, seed=seed)
        raise ValueError(f"unknown arrival kind {self.arrival_kind!r}")

    def generate_requests(self, horizon: Optional[float] = None) -> List[SFCRequest]:
        """A full request trace for this scenario."""
        generator = self.build_generator()
        return generator.generate_trace(
            arrival_process=self.build_arrival_process(), horizon=horizon
        )

    def with_arrival_rate(self, arrival_rate: float) -> "Scenario":
        """A copy of the scenario at a different offered load."""
        return replace(
            self,
            workload_config=replace(self.workload_config, arrival_rate=arrival_rate),
        )

    def with_sla_scale(self, sla_scale: float) -> "Scenario":
        """A copy of the scenario with stretched/compressed latency SLAs."""
        return replace(
            self,
            workload_config=replace(self.workload_config, sla_scale=sla_scale),
        )

    def with_workload_seed(self, seed: RandomState) -> "Scenario":
        """A copy of the scenario whose request stream uses ``seed``.

        The topology (and everything else) is unchanged, so copies built this
        way make statistically independent but structurally identical lanes
        for vectorized environments.
        """
        return replace(
            self, workload_config=replace(self.workload_config, seed=seed)
        )


def _shared_topology(
    build: Callable[[], SubstrateNetwork]
) -> Callable[[], SubstrateNetwork]:
    """A factory of networks with empty ledgers over one topology, built once."""
    topology: Optional[SubstrateTopology] = None

    def factory() -> SubstrateNetwork:
        nonlocal topology
        if topology is None:
            topology = build().topology
        return SubstrateNetwork.over(topology)

    return factory


def reference_scenario(
    arrival_rate: float = 0.8,
    num_edge_nodes: int = 16,
    horizon: float = 600.0,
    seed: RandomState = 0,
    arrival_kind: str = "poisson",
) -> Scenario:
    """The reference scenario of the benchmark harness.

    16 edge nodes over 4 metros plus one cloud, the default VNF catalog and
    chain mix, Poisson arrivals.
    """
    topology_seed = derive_seed(seed, "topology")
    workload_seed = derive_seed(seed, "workload")

    @_shared_topology
    def factory() -> SubstrateNetwork:
        return metro_edge_cloud_topology(
            TopologyConfig(num_edge_nodes=num_edge_nodes, seed=topology_seed)
        )

    return Scenario(
        name=f"reference-{num_edge_nodes}edges",
        topology_factory=factory,
        workload_config=WorkloadConfig(
            arrival_rate=arrival_rate, horizon=horizon, seed=workload_seed
        ),
        catalog=default_catalog(),
        templates=default_chain_templates(),
        arrival_kind=arrival_kind,
        seed=seed,
    )


def scalability_scenario(
    num_edge_nodes: int,
    arrival_rate_per_node: float = 0.05,
    horizon: float = 600.0,
    seed: RandomState = 0,
) -> Scenario:
    """Scenario family for the topology-size sweep (Fig. 5).

    The offered load scales with the number of edge nodes so that every
    topology size operates at a comparable per-node load.
    """
    topology_seed = derive_seed(seed, "topology", num_edge_nodes)
    workload_seed = derive_seed(seed, "workload", num_edge_nodes)

    @_shared_topology
    def factory() -> SubstrateNetwork:
        return scaled_topology(num_edge_nodes, seed=topology_seed)

    return Scenario(
        name=f"scalability-{num_edge_nodes}edges",
        topology_factory=factory,
        workload_config=WorkloadConfig(
            arrival_rate=arrival_rate_per_node * num_edge_nodes,
            horizon=horizon,
            seed=workload_seed,
        ),
        catalog=default_catalog(),
        templates=default_chain_templates(),
        seed=seed,
    )


def hotspot_scenario(
    arrival_rate: float = 0.8,
    hotspot_fraction: float = 0.6,
    num_edge_nodes: int = 16,
    horizon: float = 600.0,
    seed: RandomState = 0,
) -> Scenario:
    """A skewed-ingress scenario: most requests arrive at a few hot metros."""
    base = reference_scenario(
        arrival_rate=arrival_rate,
        num_edge_nodes=num_edge_nodes,
        horizon=horizon,
        seed=seed,
    )
    network = base.build_network()
    hotspot_nodes = tuple(network.edge_node_ids[: max(1, num_edge_nodes // 4)])
    return replace(
        base,
        name=f"hotspot-{num_edge_nodes}edges",
        workload_config=replace(
            base.workload_config,
            hotspot_fraction=hotspot_fraction,
            hotspot_nodes=hotspot_nodes,
        ),
    )


def scenario_grid(
    base: Optional[Scenario] = None,
    arrival_rates: Optional[Sequence[float]] = None,
    sla_scales: Optional[Sequence[float]] = None,
    seed: RandomState = None,
) -> List[Scenario]:
    """A cartesian grid of scenarios over load points and SLA strictness.

    Every grid cell shares the base scenario's topology but gets its own
    derived workload seed, so direct consumers (``generate_requests``,
    ``build_generator``) see independent, individually reproducible request
    streams per cell.  The cells also form the lanes of a scenario-diverse
    :class:`~repro.core.soa.SoAVecPlacementEnv` — one batched pass evaluates
    the whole load/SLA sweep instead of K serial runs.  (Note the vec-env
    builder derives its *own* per-lane seeds unless constructed with
    ``derive_lane_seeds=False``.)
    """
    base = base or reference_scenario()
    rates = list(arrival_rates) if arrival_rates else [base.workload_config.arrival_rate]
    scales = list(sla_scales) if sla_scales else [base.workload_config.sla_scale]
    grid_seed = base.seed if seed is None else seed
    cells: List[Scenario] = []
    for rate in rates:
        for scale in scales:
            cell = base.with_arrival_rate(rate).with_sla_scale(scale)
            cell = replace(
                cell,
                name=f"{base.name}@rate={rate:g},sla={scale:g}",
                seed=grid_seed,
            )
            cells.append(
                cell.with_workload_seed(derive_seed(grid_seed, "grid", rate, scale))
            )
    return cells


def sample_scenarios(
    count: int,
    base: Optional[Scenario] = None,
    arrival_rate_range: Sequence[float] = (0.3, 1.2),
    sla_scale_range: Sequence[float] = (0.75, 1.5),
    arrival_kinds: Sequence[str] = ("poisson",),
    seed: RandomState = 0,
) -> List[Scenario]:
    """Sample ``count`` random variations of a base scenario.

    Arrival rate and SLA scale are drawn uniformly from the given ranges and
    the arrival kind uniformly from ``arrival_kinds``; each sample gets a
    derived workload seed.  This is the stochastic counterpart of
    :func:`scenario_grid` for training over diverse load conditions.
    """
    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    base = base or reference_scenario()
    rng = new_rng(derive_seed(seed, "scenario_sampler"))
    samples: List[Scenario] = []
    for index in range(count):
        rate = float(rng.uniform(*arrival_rate_range))
        scale = float(rng.uniform(*sla_scale_range))
        kind = str(arrival_kinds[int(rng.integers(len(arrival_kinds)))])
        sample = base.with_arrival_rate(rate).with_sla_scale(scale)
        sample = replace(
            sample,
            name=f"{base.name}#sample{index}",
            arrival_kind=kind,
            seed=derive_seed(seed, "sampled_scenario", index),
        )
        samples.append(
            sample.with_workload_seed(derive_seed(seed, "sampled_workload", index))
        )
    return samples


def diurnal_scenario(
    base_rate: float = 0.6,
    num_edge_nodes: int = 16,
    horizon: float = 1440.0,
    seed: RandomState = 0,
) -> Scenario:
    """A day-length scenario with sinusoidal traffic (autoscaling example)."""
    base = reference_scenario(
        arrival_rate=base_rate,
        num_edge_nodes=num_edge_nodes,
        horizon=horizon,
        seed=seed,
        arrival_kind="diurnal",
    )
    return replace(base, name=f"diurnal-{num_edge_nodes}edges")
