"""Tests for the experiment harness (configs, runners, reporting).

Figure functions are exercised at the ``smoke`` preset so the whole file runs
in a few seconds while still covering every code path the benchmarks use.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    figure_acceptance_vs_arrival,
    figure_agent_ablation,
    figure_training_convergence,
)
from repro.experiments.reporting import format_series, format_table, print_figure, print_table
from repro.experiments.runner import (
    build_reference_scenario,
    evaluate_drl_and_baselines,
    evaluate_policies,
    results_to_rows,
    train_manager,
)
from repro.experiments import runner
from repro.experiments.tables import table_simulation_settings, table_summary_comparison
from repro.baselines import GreedyNearestPolicy, RandomPlacementPolicy, standard_baselines
from repro.sim.simulation import run_policy_comparison
from repro.substrate.network import SubstrateTopology


@pytest.fixture(scope="module")
def smoke_config():
    return ExperimentConfig.smoke()


@pytest.fixture(scope="module")
def trained_manager(smoke_config):
    scenario = build_reference_scenario(smoke_config)
    return scenario, train_manager(scenario, smoke_config)


class TestExperimentConfig:
    def test_presets_valid(self):
        for config in (ExperimentConfig.paper(), ExperimentConfig.fast(), ExperimentConfig.smoke()):
            assert config.training_episodes > 0
            assert len(config.arrival_rates) >= 2

    def test_fast_smaller_than_paper(self):
        assert ExperimentConfig.fast().training_episodes < ExperimentConfig.paper().training_episodes
        assert ExperimentConfig.fast().num_edge_nodes <= ExperimentConfig.paper().num_edge_nodes

    def test_manager_config_consistency(self, smoke_config):
        manager_config = smoke_config.manager_config()
        assert manager_config.training.num_episodes == smoke_config.training_episodes
        assert manager_config.env.requests_per_episode == smoke_config.requests_per_episode
        assert manager_config.dqn.min_replay_size >= manager_config.dqn.batch_size

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(arrival_rates=())


class TestRunners:
    def test_train_manager_produces_history(self, trained_manager, smoke_config):
        _, manager = trained_manager
        assert manager.is_trained
        assert len(manager.trainer.history.episode_rewards) == smoke_config.training_episodes

    def test_evaluate_policies_on_shared_trace(self, smoke_config):
        scenario = build_reference_scenario(smoke_config)
        results = evaluate_policies(
            scenario, [GreedyNearestPolicy(), RandomPlacementPolicy(seed=0)]
        )
        assert len(results) == 2
        assert results[0].summary.total_requests == results[1].summary.total_requests

    def test_evaluate_drl_and_baselines_keys(self, trained_manager, smoke_config):
        scenario, manager = trained_manager
        results = evaluate_drl_and_baselines(scenario, manager, smoke_config)
        assert "drl_dqn" in results
        assert "greedy_nearest" in results
        assert all(r.summary.total_requests > 0 for r in results.values())

    def test_evaluators_compare_through_module_binding(
        self, trained_manager, smoke_config, monkeypatch
    ):
        # The end-to-end benchmark harness times the comparison by patching
        # this module attribute, so both evaluators must look it up there.
        assert runner.parallel_policy_comparison is run_policy_comparison
        calls = []

        def spy(**kwargs):
            calls.append(len(kwargs["policies"]))
            return run_policy_comparison(**kwargs)

        monkeypatch.setattr(runner, "parallel_policy_comparison", spy)
        scenario, manager = trained_manager
        evaluate_policies(scenario, [GreedyNearestPolicy()])
        evaluate_drl_and_baselines(scenario, manager, smoke_config)
        assert calls == [1, len(standard_baselines())]

    def test_evaluate_drl_and_baselines_ignores_max_workers(
        self, trained_manager, smoke_config
    ):
        scenario, manager = trained_manager
        default = evaluate_drl_and_baselines(scenario, manager, smoke_config)
        pooled = evaluate_drl_and_baselines(
            scenario, manager, smoke_config, max_workers=4
        )
        assert list(pooled) == list(default)
        for name, result in default.items():
            assert pooled[name].summary == result.summary

    def test_evaluate_drl_and_baselines_builds_the_topology_once(
        self, trained_manager, smoke_config, monkeypatch
    ):
        builds = []
        build = SubstrateTopology.__init__

        def spy(self, *args, **kwargs):
            builds.append(self)
            build(self, *args, **kwargs)

        monkeypatch.setattr(SubstrateTopology, "__init__", spy)
        _, manager = trained_manager
        scenario = build_reference_scenario(smoke_config)
        results = evaluate_drl_and_baselines(scenario, manager, smoke_config)
        assert len(results) == 1 + len(standard_baselines())
        assert len(builds) == 1

    def test_results_to_rows(self, trained_manager, smoke_config):
        scenario, manager = trained_manager
        results = evaluate_drl_and_baselines(
            scenario, manager, smoke_config, include_baselines=False
        )
        rows = results_to_rows(results)
        assert len(rows) == 1
        assert set(rows[0]) >= {"policy", "acceptance_ratio", "mean_latency_ms", "total_cost"}


class TestFiguresAndTables:
    def test_training_convergence_structure(self, smoke_config):
        data = figure_training_convergence(smoke_config)
        assert data["figure"] == "fig1_training_convergence"
        assert len(data["x"]) == smoke_config.training_episodes
        assert len(data["series"]["episode_reward"]) == smoke_config.training_episodes
        assert len(data["series"]["smoothed_reward"]) == smoke_config.training_episodes

    def test_acceptance_vs_arrival_structure(self, smoke_config):
        data = figure_acceptance_vs_arrival(smoke_config)
        assert data["x"] == list(smoke_config.arrival_rates)
        assert "drl_dqn" in data["series"]
        for series in data["series"].values():
            assert len(series) == len(smoke_config.arrival_rates)
            assert all(0.0 <= v <= 1.0 for v in series)
        # The env-level sweep carries one batched-lane series per baseline.
        env_eval = data["env_eval"]
        assert len(env_eval["acceptance_ratio"]) == len(data["x"])
        baselines = env_eval["baselines"]
        assert "greedy_nearest" in baselines and "viterbi" in baselines
        for entry in baselines.values():
            assert len(entry["acceptance_ratio"]) == len(data["x"])
            assert all(0.0 <= v <= 1.0 for v in entry["acceptance_ratio"])

    def test_agent_ablation_structure(self, smoke_config, no_reference_core):
        data = figure_agent_ablation(smoke_config, variants=["dqn", "double"])
        assert data["x"] == ["dqn", "double_dqn"]
        assert len(data["series"]["mean_reward"]) == 2

    def test_table_simulation_settings(self):
        table = table_simulation_settings(ExperimentConfig.paper())
        assert table["topology"]["edge_nodes"] == 16
        assert len(table["vnf_catalog"]) == 7
        assert len(table["chain_templates"]) == 5

    def test_table_summary_comparison(self, smoke_config):
        table = table_summary_comparison(smoke_config)
        policies = [row["policy"] for row in table["rows"]]
        assert "drl_dqn" in policies
        # Rows are sorted by acceptance ratio, descending.
        ratios = [row["acceptance_ratio"] for row in table["rows"]]
        assert ratios == sorted(ratios, reverse=True)


class TestReporting:
    def test_format_table_alignment(self):
        rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
        text = format_table(rows)
        assert "a" in text and "b" in text
        assert len(text.splitlines()) == 4

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_series(self):
        data = {
            "figure": "demo",
            "x_label": "load",
            "x": [1, 2],
            "series": {"drl": [0.9, 0.8], "random": [0.5, 0.4]},
        }
        text = format_series(data)
        assert "demo" in text and "drl" in text and "0.9" in text

    def test_print_helpers_do_not_crash(self, capsys):
        print_figure({"figure": "f", "x_label": "x", "x": [1], "series": {"s": [2.0]}})
        print_table({"table": "t", "rows": [{"a": 1}]})
        print_table({"table": "t2", "info": "no rows key"})
        captured = capsys.readouterr()
        assert "f" in captured.out and "t2" in captured.out
