#!/usr/bin/env bash
# CI-friendly smoke check: tier-1 tests plus one tiny end-to-end figure run.
#
# Usage:  scripts/check.sh        (or: make check)
#
# Completes in well under a minute on a laptop.  The figure run uses the
# smoke preset (a few training episodes on a 6-node topology) and bypasses
# the result cache so the full train -> evaluate -> figure path executes.
set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
# One BLAS thread unless the caller set one, as in the Makefile: the DQN's
# matmuls are at most 128 wide, and OpenBLAS's default pool contends on
# small hosts.
export OPENBLAS_NUM_THREADS="${OPENBLAS_NUM_THREADS-1}"
export OMP_NUM_THREADS="${OMP_NUM_THREADS-1}"
export MKL_NUM_THREADS="${MKL_NUM_THREADS-1}"

echo "==> tier-1 tests"
# With pytest-cov installed (CI installs it; it is optional locally), the
# same run enforces a line-coverage floor on the vectorized core and the
# substrate layer.  85% sits safely under the ~90% the tier-1 suite
# measures.
COV_ARGS=()
if python -c "import pytest_cov" >/dev/null 2>&1; then
    echo "    (pytest-cov found: enforcing >= 85% coverage on core/ + substrate/)"
    COV_ARGS=(--cov=repro.core --cov=repro.substrate
              --cov-report=term --cov-fail-under=85)
else
    echo "    (pytest-cov not installed: coverage floor skipped)"
fi
python -m pytest -x -q ${COV_ARGS[@]+"${COV_ARGS[@]}"}

echo "==> vec-env training-loop perf smoke (K=16 lanes vs serial trainer)"
PYTHONPATH="src:.${PYTHONPATH:+:$PYTHONPATH}" python benchmarks/bench_vecenv.py --smoke

echo "==> batched policy-eval perf smoke (vectorized baselines vs per-request reference)"
PYTHONPATH="src:.${PYTHONPATH:+:$PYTHONPATH}" python benchmarks/bench_policyeval.py --smoke

echo "==> serving-loop smoke (graceful degradation under 4x MMPP overload)"
PYTHONPATH="src:.${PYTHONPATH:+:$PYTHONPATH}" python benchmarks/bench_serving.py --smoke

echo "==> reprolint (project-contract static analysis, all rules enabled)"
# One invocation both gates the tree and refreshes the committed
# machine-readable payload that the schema gate below validates.
# --format github surfaces findings as PR annotations when this script runs
# inside a workflow.
python -m repro.analysis src benchmarks tests \
    --format github \
    --output benchmarks/results/reprolint.json

echo "==> committed benchmark-result schema gate"
python scripts/check_results_schema.py

echo "==> end-to-end smoke figure (training convergence, smoke preset)"
REPRO_NO_CACHE=1 python - <<'EOF'
from repro.experiments.config import ExperimentConfig
from repro.experiments.figures import figure_training_convergence

data = figure_training_convergence(ExperimentConfig.smoke())
episodes = len(data["x"])
assert episodes > 0 and len(data["series"]["episode_reward"]) == episodes
print(f"figure {data['figure']}: {episodes} training episodes, "
      f"final acceptance {data['series']['acceptance_ratio'][-1]:.2f}")
EOF

echo "==> OK"
