"""Experiment harness: figure and table reproduction.

``figure_*`` / ``table_*`` functions recompute one artifact of the
reconstructed evaluation from an :class:`ExperimentConfig` preset
(``smoke`` / ``fast`` / ``paper``).  Completed payloads can be memoized on
disk with :class:`ResultCache` (keyed by a hash of the configuration), so
re-running an unchanged experiment is free.

>>> from repro.experiments import ExperimentConfig, figure_utilization
>>> data = figure_utilization(ExperimentConfig.smoke())
>>> sorted(data["series"])
['acceptance_ratio', 'mean_edge_utilization', 'utilization_imbalance']
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import (
    figure_acceptance_vs_arrival,
    figure_acceptance_vs_edges,
    figure_agent_ablation,
    figure_cost_vs_arrival,
    figure_latency_vs_arrival,
    figure_reward_ablation,
    figure_sla_sensitivity,
    figure_training_convergence,
    figure_utilization,
)
from repro.experiments.cache import ResultCache, config_hash
from repro.experiments.reporting import (
    format_series,
    format_table,
    print_figure,
    print_table,
)
from repro.experiments.runner import (
    build_reference_scenario,
    evaluate_drl_and_baselines,
    evaluate_policies,
    results_to_rows,
    train_manager,
)
from repro.experiments.stats import (
    MetricSummary,
    compare_policies,
    replicate,
    summarize_metric,
    summarize_replications,
)
from repro.experiments.tables import table_simulation_settings, table_summary_comparison

__all__ = [
    "ExperimentConfig",
    "figure_acceptance_vs_arrival",
    "figure_acceptance_vs_edges",
    "figure_agent_ablation",
    "figure_cost_vs_arrival",
    "figure_latency_vs_arrival",
    "figure_reward_ablation",
    "figure_sla_sensitivity",
    "figure_training_convergence",
    "figure_utilization",
    "ResultCache",
    "config_hash",
    "format_series",
    "format_table",
    "print_figure",
    "print_table",
    "build_reference_scenario",
    "evaluate_drl_and_baselines",
    "evaluate_policies",
    "results_to_rows",
    "train_manager",
    "MetricSummary",
    "compare_policies",
    "replicate",
    "summarize_metric",
    "summarize_replications",
    "table_simulation_settings",
    "table_summary_comparison",
]
