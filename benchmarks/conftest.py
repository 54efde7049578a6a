"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper at the ``BENCH``
scale below (a few thousand points — large enough that the paper's
qualitative shapes emerge, small enough that the whole harness runs in
minutes) and prints the resulting rows/series so they can be compared with
the paper and recorded in EXPERIMENTS.md.

Experiment-level benchmarks are executed exactly once per session
(``benchmark.pedantic(..., rounds=1)``): they are minutes-long end-to-end
runs, not micro-benchmarks, and their interesting output is the table, not a
timing distribution.  The micro-benchmarks in ``test_micro_kernels.py`` use
the normal repeated-measurement mode.
"""

from __future__ import annotations

import pytest

from repro.experiments.config import ExperimentScale

#: Scale used by all experiment-level benchmarks.
BENCH = ExperimentScale(n_samples=4000, n_features=24, n_clusters=80,
                        n_neighbors=20, cluster_size=50, graph_tau=6,
                        max_iter=15, random_state=7)

#: Reduced scale for the most expensive sweeps (Fig. 4/6/7, Table 2).
BENCH_SWEEP = ExperimentScale(n_samples=3000, n_features=24, n_clusters=64,
                              n_neighbors=16, cluster_size=50, graph_tau=5,
                              max_iter=12, random_state=7)


@pytest.fixture(scope="session")
def bench_scale() -> ExperimentScale:
    """The standard benchmark scale."""
    return BENCH


@pytest.fixture(scope="session")
def sweep_scale() -> ExperimentScale:
    """The reduced scale used by the scalability sweeps."""
    return BENCH_SWEEP


def run_once(benchmark, function, *args, **kwargs):
    """Run an experiment exactly once under pytest-benchmark's timer."""
    return benchmark.pedantic(function, args=args, kwargs=kwargs,
                              rounds=1, iterations=1, warmup_rounds=0)

