#!/usr/bin/env python3
"""Compare learning algorithms on the VNF-placement MDP.

Trains DQN, Double DQN, Dueling DQN, tabular Q-learning and A2C on the same
scenario and prints their learning progress and final greedy performance —
the data behind the agent-ablation figure.

Run with::

    python examples/compare_agents.py [--episodes 60]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro import (
    A2CConfig,
    ActorCriticAgent,
    DQNConfig,
    EnvConfig,
    TabularQLearningAgent,
    TrainingConfig,
    make_dqn_variant,
    reference_scenario,
)
from repro.core import SoAVecPlacementEnv, VecTrainer, make_vec_env


def build_env(scenario, requests_per_episode: int = 30) -> SoAVecPlacementEnv:
    """A fresh one-lane training set on the scenario's own request stream."""
    return make_vec_env(
        [scenario],
        env_config=EnvConfig(requests_per_episode=requests_per_episode),
        auto_reset=False,
        derive_lane_seeds=False,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--episodes", type=int, default=60)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    scenario = reference_scenario(
        arrival_rate=1.0, num_edge_nodes=8, horizon=250.0, seed=args.seed
    )
    dqn_config = DQNConfig(hidden_layers=(64, 64), epsilon_decay_steps=args.episodes * 90)
    training_config = TrainingConfig(
        num_episodes=args.episodes, evaluation_interval=max(10, args.episodes // 3)
    )

    # Each entry builds an agent for the given (state_dim, num_actions).
    agent_factories = {
        "dqn": lambda s, a: make_dqn_variant("dqn", s, a, dqn_config, seed=args.seed),
        "double_dqn": lambda s, a: make_dqn_variant("double", s, a, dqn_config, seed=args.seed),
        "dueling_dqn": lambda s, a: make_dqn_variant("dueling", s, a, dqn_config, seed=args.seed),
        "tabular_q": lambda s, a: TabularQLearningAgent(s, a, seed=args.seed),
        "a2c": lambda s, a: ActorCriticAgent(
            s, a, config=A2CConfig(hidden_layers=(64, 64)), seed=args.seed
        ),
    }

    header = (
        f"{'agent':<22} {'first-10 reward':>16} {'last-10 reward':>15} "
        f"{'eval accept':>12} {'eval latency':>13}"
    )
    print(header)
    for name, factory in agent_factories.items():
        env = build_env(scenario)
        agent = factory(env.state_dim, env.num_actions)
        trainer = VecTrainer(env, agent, training_config)
        history = trainer.train()
        evaluation = trainer.evaluate(3)
        first = np.mean(history.episode_rewards[:10])
        last = np.mean(history.episode_rewards[-10:])
        print(
            f"{agent.name:<22} {first:>16.1f} {last:>15.1f} "
            f"{evaluation.mean_acceptance:>12.3f} {evaluation.mean_latency_ms:>13.2f}"
        )

    print(
        "\nExpected shape: all deep variants improve substantially over their"
        " first episodes; the tabular baseline plateaus early because the"
        " discretized state space cannot represent per-node load accurately."
    )


if __name__ == "__main__":
    main()
