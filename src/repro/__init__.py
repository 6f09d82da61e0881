"""repro — Deep Reinforcement Learning Based VNF Management in Geo-distributed Edge Computing.

A from-scratch Python reproduction of the ICDCS 2019 system: a geo-distributed
edge/cloud substrate simulator, an NFV service-chain model, a discrete-event
online placement simulator, pure-numpy deep RL agents (DQN family, REINFORCE,
A2C), the VNF-placement MDP, classical baselines, and a benchmark harness that
regenerates every table and figure of the reconstructed evaluation.

Quickstart
----------
>>> from repro import VNFManager, reference_scenario
>>> scenario = reference_scenario(arrival_rate=0.8, num_edge_nodes=8)
>>> manager = VNFManager(scenario)
>>> history = manager.train()          # batched DQN training
>>> result = manager.evaluate_online() # evaluate in the online simulator
>>> result.summary.acceptance_ratio    # doctest: +SKIP

Comparing policies on one trace
-------------------------------
>>> from repro import SimulationConfig, standard_baselines
>>> from repro.sim import run_policy_comparison
>>> requests = scenario.generate_requests()
>>> results = run_policy_comparison(          # a fresh substrate per policy
...     scenario.build_network, standard_baselines(seed=0), requests,
...     SimulationConfig(horizon=300.0))

Reproducing a paper figure (with on-disk caching)
-------------------------------------------------
>>> from repro.experiments import ExperimentConfig, ResultCache
>>> from repro.experiments.figures import figure_acceptance_vs_arrival
>>> config = ExperimentConfig.fast()
>>> data, hit = ResultCache().get_or_compute(
...     "fig2", config, lambda: figure_acceptance_vs_arrival(config))

See ``README.md`` for the module map, ``docs/ARCHITECTURE.md`` for the layer
diagram and episode data flow, and ``docs/BENCHMARKS.md`` for the benchmark
harness.
"""

from repro.agents import (
    A2CConfig,
    ActorCriticAgent,
    Agent,
    DQNAgent,
    DQNConfig,
    ReinforceAgent,
    ReinforceConfig,
    TabularQLearningAgent,
    make_dqn_variant,
)
from repro.baselines import (
    BestFitPolicy,
    BruteForceOptimalPolicy,
    CloudOnlyPolicy,
    EdgeOnlyPolicy,
    FirstFitPolicy,
    GreedyLeastLoadedPolicy,
    GreedyNearestPolicy,
    RandomPlacementPolicy,
    ViterbiPlacementPolicy,
    standard_baselines,
)
from repro.core import (
    DRLPlacementPolicy,
    EnvConfig,
    ManagerConfig,
    RewardConfig,
    StateEncoder,
    TrainingConfig,
    VNFManager,
    VNFPlacementEnv,
)
from repro.experiments import ExperimentConfig
from repro.nfv import (
    Placement,
    SFCRequest,
    ServiceFunctionChain,
    ServiceLevelAgreement,
    VNFCatalog,
    VNFType,
    default_catalog,
    default_chain_templates,
)
from repro.sim import (
    NFVSimulation,
    PlacementPolicy,
    PoissonProcess,
    SimulationConfig,
    SimulationResult,
)
from repro.substrate import (
    ComputeNode,
    GeoPoint,
    ResourceVector,
    SubstrateNetwork,
    TopologyConfig,
    metro_edge_cloud_topology,
)
from repro.workloads import (
    RequestGenerator,
    Scenario,
    WorkloadConfig,
    reference_scenario,
    scalability_scenario,
)

__version__ = "1.0.0"

__all__ = [
    "A2CConfig",
    "ActorCriticAgent",
    "Agent",
    "DQNAgent",
    "DQNConfig",
    "ReinforceAgent",
    "ReinforceConfig",
    "TabularQLearningAgent",
    "make_dqn_variant",
    "BestFitPolicy",
    "BruteForceOptimalPolicy",
    "CloudOnlyPolicy",
    "EdgeOnlyPolicy",
    "FirstFitPolicy",
    "GreedyLeastLoadedPolicy",
    "GreedyNearestPolicy",
    "RandomPlacementPolicy",
    "ViterbiPlacementPolicy",
    "standard_baselines",
    "DRLPlacementPolicy",
    "EnvConfig",
    "ManagerConfig",
    "RewardConfig",
    "StateEncoder",
    "TrainingConfig",
    "VNFManager",
    "VNFPlacementEnv",
    "ExperimentConfig",
    "Placement",
    "SFCRequest",
    "ServiceFunctionChain",
    "ServiceLevelAgreement",
    "VNFCatalog",
    "VNFType",
    "default_catalog",
    "default_chain_templates",
    "NFVSimulation",
    "PlacementPolicy",
    "PoissonProcess",
    "SimulationConfig",
    "SimulationResult",
    "ComputeNode",
    "GeoPoint",
    "ResourceVector",
    "SubstrateNetwork",
    "TopologyConfig",
    "metro_edge_cloud_topology",
    "RequestGenerator",
    "Scenario",
    "WorkloadConfig",
    "reference_scenario",
    "scalability_scenario",
    "__version__",
]
