"""K=1 training on the SoA core is bitwise the reference core's.

:class:`~repro.core.manager.VNFManager` trains one lane on
:class:`~repro.core.soa.SoAVecPlacementEnv`.  The other side of each test is
the same loop on the differential oracle: a
:class:`~repro.core.training.VecTrainer` over a one-lane reference
:class:`~repro.core.vecenv.VecPlacementEnv` on the scenario's own workload
seed, without auto-reset, with an agent of the same seed.  Every agent the
agent ablation and ``examples/compare_agents.py`` train is covered.
"""

import pytest

from repro.agents.actor_critic import A2CConfig, ActorCriticAgent
from repro.agents.dqn import DQNAgent, DQNConfig, make_dqn_variant
from repro.agents.qlearning import TabularQLearningAgent
from repro.core.env import EnvConfig
from repro.core.manager import ManagerConfig, VNFManager
from repro.core.training import TrainingConfig, VecTrainer
from repro.core.vecenv import VecPlacementEnv, lane_specs_from_scenarios
from repro.utils.rng import derive_seed
from repro.workloads.scenarios import reference_scenario

SEED = 0
DQN_CONFIG = DQNConfig(
    hidden_layers=(16, 16), min_replay_size=16, batch_size=16, epsilon_decay_steps=300
)
CONFIG = ManagerConfig(
    training=TrainingConfig(num_episodes=6, evaluation_interval=3, evaluation_episodes=1),
    env=EnvConfig(requests_per_episode=10),
    dqn=DQN_CONFIG,
)

#: Each factory builds an agent for (state_dim, num_actions); None is the
#: manager's own default DQN.
AGENTS = {
    "default": None,
    "dqn": lambda s, a: make_dqn_variant("dqn", s, a, DQN_CONFIG, seed=3),
    "double": lambda s, a: make_dqn_variant("double", s, a, DQN_CONFIG, seed=3),
    "dueling": lambda s, a: make_dqn_variant("dueling", s, a, DQN_CONFIG, seed=3),
    "tabular_q": lambda s, a: TabularQLearningAgent(s, a, seed=3),
    "a2c": lambda s, a: ActorCriticAgent(
        s, a, config=A2CConfig(hidden_layers=(16,)), seed=3
    ),
}


def scenario():
    return reference_scenario(arrival_rate=0.8, num_edge_nodes=6, horizon=80.0, seed=2)


def reference_trainer(factory) -> VecTrainer:
    specs = lane_specs_from_scenarios(
        [scenario()],
        seed=derive_seed(SEED, "vec_lanes"),
        env_config=CONFIG.env,
        reward_config=CONFIG.reward,
        encoder_config=CONFIG.encoder,
        derive_lane_seeds=False,
    )
    venv = VecPlacementEnv.from_specs(specs, auto_reset=False)
    if factory is None:
        agent = DQNAgent(
            venv.state_dim, venv.num_actions, config=DQN_CONFIG,
            seed=derive_seed(SEED, "agent"),
        )
    else:
        agent = factory(venv.state_dim, venv.num_actions)
    return VecTrainer(venv, agent, CONFIG.training)


@pytest.mark.parametrize("name", sorted(AGENTS))
def test_k1_manager_trains_bitwise_like_the_reference(name):
    factory = AGENTS[name]
    reference = reference_trainer(factory)
    venv = reference.venv
    agent = None if factory is None else factory(venv.state_dim, venv.num_actions)
    manager = VNFManager(scenario(), agent=agent, config=CONFIG, seed=SEED)
    assert manager.env is manager.trainer.venv
    assert manager.env.backend == "soa" and not manager.env.auto_reset

    history = manager.train().as_dict()
    assert history == reference.train().as_dict()
    assert len(history["episode_rewards"]) == CONFIG.training.num_episodes
    assert manager.evaluate_agent(2).as_dict() == reference.evaluate(2).as_dict()


@pytest.mark.parametrize("lanes", [1, 4])
def test_manager_builds_no_reference_core(no_reference_core, lanes):
    config = ManagerConfig(
        training=TrainingConfig(num_episodes=2, evaluation_interval=2, evaluation_episodes=1),
        env=CONFIG.env,
        dqn=DQN_CONFIG,
        training_lanes=lanes,
    )
    manager = VNFManager(scenario(), config=config, seed=SEED)
    manager.train()
    manager.evaluate_agent(1)
    assert manager.trainer.num_lanes == lanes
