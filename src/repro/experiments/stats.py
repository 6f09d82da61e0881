"""Multi-seed replication and summary statistics for experiment results.

Single-seed simulation results are noisy; the paper-style figures report the
mean over several independent replications.  This module provides

* :func:`replicate` — run an experiment function over several seeds and
  collect per-seed scalar metrics,
* :func:`summarize_replications` — mean / standard deviation / 95% confidence
  intervals per metric, and
* :func:`compare_policies` — pairwise mean differences with confidence
  intervals, the statistic behind "policy A beats policy B" claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Sequence

import numpy as np

from repro.utils.validation import check_positive


@dataclass(frozen=True)
class MetricSummary:
    """Mean, spread and confidence interval of one scalar metric."""

    mean: float
    std: float
    ci_low: float
    ci_high: float
    samples: int

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly view."""
        return {
            "mean": self.mean,
            "std": self.std,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "samples": self.samples,
        }


def replicate(
    experiment: Callable[[int], Mapping[str, float]],
    seeds: Sequence[int],
) -> List[Dict[str, float]]:
    """Run ``experiment(seed)`` for every seed and collect its metric dicts.

    The experiment callable receives a seed and returns a flat mapping of
    metric name to scalar value (e.g. the dict of a
    :class:`~repro.sim.metrics.MetricsSummary`).
    """
    if not seeds:
        raise ValueError("at least one seed is required")
    results: List[Dict[str, float]] = []
    for seed in seeds:
        outcome = experiment(int(seed))
        results.append({key: float(value) for key, value in outcome.items()
                        if isinstance(value, (int, float)) and not isinstance(value, bool)})
    return results


def summarize_metric(values: Sequence[float], confidence: float = 0.95) -> MetricSummary:
    """Mean, std and a t-based confidence interval for one metric."""
    check_positive(confidence, "confidence")
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    data = np.asarray(list(values), dtype=float)
    if data.size == 0:
        raise ValueError("cannot summarize an empty metric series")
    mean = float(data.mean())
    if data.size == 1:
        return MetricSummary(mean=mean, std=0.0, ci_low=mean, ci_high=mean, samples=1)
    # scipy is imported here, not at module level: it is most of the cost of
    # `import repro`, and only these two statistics use it.
    from scipy import stats as scipy_stats

    std = float(data.std(ddof=1))
    sem = std / np.sqrt(data.size)
    margin = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=data.size - 1) * sem)
    return MetricSummary(
        mean=mean,
        std=std,
        ci_low=mean - margin,
        ci_high=mean + margin,
        samples=int(data.size),
    )


def summarize_replications(
    replications: Sequence[Mapping[str, float]], confidence: float = 0.95
) -> Dict[str, MetricSummary]:
    """Per-metric summaries over a list of per-seed metric dictionaries."""
    if not replications:
        raise ValueError("at least one replication is required")
    metrics = sorted(set().union(*(r.keys() for r in replications)))
    summaries: Dict[str, MetricSummary] = {}
    for metric in metrics:
        values = [r[metric] for r in replications if metric in r]
        summaries[metric] = summarize_metric(values, confidence)
    return summaries


def compare_policies(
    per_policy_replications: Mapping[str, Sequence[Mapping[str, float]]],
    metric: str,
    confidence: float = 0.95,
) -> List[Dict[str, object]]:
    """Pairwise comparison of policies on one metric.

    Returns one row per ordered pair (a, b) with the mean difference
    ``mean(a) - mean(b)`` and a Welch confidence interval; a pair whose
    interval excludes zero is a statistically meaningful win/loss.
    """
    from scipy import stats as scipy_stats

    names = list(per_policy_replications.keys())
    rows: List[Dict[str, object]] = []
    for i, first in enumerate(names):
        for second in names[i + 1 :]:
            a = np.array([r[metric] for r in per_policy_replications[first]], dtype=float)
            b = np.array([r[metric] for r in per_policy_replications[second]], dtype=float)
            difference = float(a.mean() - b.mean())
            if a.size > 1 and b.size > 1:
                sem = np.sqrt(a.var(ddof=1) / a.size + b.var(ddof=1) / b.size)
                df = max(1.0, min(a.size, b.size) - 1)
                margin = float(scipy_stats.t.ppf(0.5 + confidence / 2.0, df=df) * sem)
            else:
                margin = float("inf")
            rows.append(
                {
                    "first": first,
                    "second": second,
                    "metric": metric,
                    "mean_difference": difference,
                    "ci_low": difference - margin,
                    "ci_high": difference + margin,
                    "significant": (difference - margin > 0) or (difference + margin < 0),
                }
            )
    return rows
