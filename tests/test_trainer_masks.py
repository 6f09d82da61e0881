"""The trainer computes one action mask per step.

A learning run selects with the ``next_masks`` it computed for the replay
after the previous step, and recomputes only after a lane restart through
``reset_lane``.  Masks are a pure function of lane state, so the reused
mask must equal a fresh one at every selection.
"""

import numpy as np
import pytest

from repro.agents.dqn import DQNConfig
from repro.core.env import EnvConfig
from repro.core.manager import ManagerConfig, VNFManager
from repro.core.soa import SoAVecPlacementEnv
from repro.core.training import TrainingConfig, VecTrainer
from repro.workloads.scenarios import reference_scenario


def build_trainer(lanes: int, max_steps: int = 2000) -> VecTrainer:
    scenario = reference_scenario(arrival_rate=0.6, num_edge_nodes=6, horizon=80.0, seed=2)
    config = ManagerConfig(
        training=TrainingConfig(max_steps_per_episode=max_steps),
        env=EnvConfig(requests_per_episode=6),
        dqn=DQNConfig(
            hidden_layers=(16,), min_replay_size=16, batch_size=16,
            epsilon_decay_steps=300,
        ),
        training_lanes=lanes,
    )
    return VNFManager(scenario, config=config, seed=0).trainer


class MaskSpy:
    """Counts mask computations, steps and restarts; checks every selection."""

    def __init__(self, trainer: VecTrainer, monkeypatch) -> None:
        venv = trainer.venv
        self.compute = venv.valid_action_masks
        self.masks = self.steps = self.restarts = 0
        self.restart_steps = set()
        self.selections = 0
        step, reset_lane = venv.step, venv.reset_lane
        select = trainer.agent.select_actions

        def masks():
            self.masks += 1
            return self.compute()

        def stepped(*args, **kwargs):
            self.steps += 1
            return step(*args, **kwargs)

        def restarted(lane):
            self.restarts += 1
            self.restart_steps.add(self.steps)
            return reset_lane(lane)

        def selecting(states, masks, greedy=False):
            self.selections += 1
            assert np.array_equal(masks, self.compute())
            return select(states, masks, greedy=greedy)

        monkeypatch.setattr(venv, "valid_action_masks", masks)
        monkeypatch.setattr(venv, "step", stepped)
        monkeypatch.setattr(venv, "reset_lane", restarted)
        monkeypatch.setattr(trainer.agent, "select_actions", selecting)


def test_k1_trainer_reuses_masks_across_steps(monkeypatch):
    trainer = build_trainer(lanes=1)
    assert isinstance(trainer.venv, SoAVecPlacementEnv)
    assert trainer.venv.num_lanes == 1 and not trainer.venv.auto_reset
    spy = MaskSpy(trainer, monkeypatch)
    trainer.run_episodes(3, learn=True)
    assert spy.restarts == 2
    assert spy.selections == spy.steps
    # One mask before the first step, one per step (the replay's next_masks,
    # reused for the next selection) and one after each restart.
    assert spy.masks == 1 + spy.steps + spy.restarts


def test_soa_lanes_recompute_masks_only_after_truncation_restarts(monkeypatch):
    trainer = build_trainer(lanes=4, max_steps=7)
    assert trainer.venv.backend == "soa" and trainer.venv.auto_reset
    spy = MaskSpy(trainer, monkeypatch)
    trainer.run_episodes(10, learn=True)
    # Auto-reset restarts done lanes inside step(); only step-cap
    # truncations go through reset_lane, several lanes per step at times.
    assert spy.restarts > len(spy.restart_steps) > 1
    assert spy.selections == spy.steps
    # The last step completes the episodes asked for, so no lane restarts
    # in it: no later step would run the restarted lane.
    assert spy.steps not in spy.restart_steps
    assert spy.masks == 1 + spy.steps + len(spy.restart_steps)


@pytest.mark.parametrize("lanes", [1, 4])
def test_non_learning_runs_compute_masks_once_per_step(monkeypatch, lanes):
    trainer = build_trainer(lanes=lanes, max_steps=7)
    spy = MaskSpy(trainer, monkeypatch)
    trainer.run_episodes(3, learn=False, greedy=True)
    assert spy.masks == spy.steps == spy.selections
