"""Experiment scaling presets.

The paper runs on 1M–10M points with up to 1M clusters; the presets here keep
the *ratios* that matter (``n/k``, κ, ξ relative to cluster size) while
shrinking absolute sizes so the whole evaluation reruns on a laptop in
minutes.  Every ``run()`` function accepts an :class:`ExperimentScale` so the
full-size experiment is one parameter change away.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExperimentScale", "SMALL", "DEFAULT", "LARGE"]


@dataclass(frozen=True)
class ExperimentScale:
    """Scaling knobs shared by the experiment drivers.

    Attributes
    ----------
    n_samples:
        Default dataset size.
    n_features:
        Default dimensionality (stand-ins shrink the paper's dimensions
        proportionally; the algorithms are dimension-agnostic).
    n_clusters:
        Default cluster count for the quality experiments (the paper uses
        10 000 clusters on 1M points, i.e. ``n/k = 100``; the presets keep a
        comparable ratio).
    n_neighbors:
        κ used by GK-means.
    cluster_size:
        ξ used by the graph construction.
    graph_tau:
        τ rounds of graph construction.
    max_iter:
        Iteration budget for the clustering comparisons (paper: 30).
    random_state:
        Seed shared by the drivers for reproducibility.
    metric:
        Distance metric the drivers thread into the clusterers, graph
        builders and searchers that accept one (``"sqeuclidean"`` or
        ``"cosine"``).
    dtype:
        Kernel dtype as a string (``"float64"`` or ``"float32"``).
    """

    n_samples: int = 10_000
    n_features: int = 32
    n_clusters: int = 100
    n_neighbors: int = 20
    cluster_size: int = 50
    graph_tau: int = 10
    max_iter: int = 30
    random_state: int = 7
    metric: str = "sqeuclidean"
    dtype: str = "float64"

    def scaled(self, **overrides) -> "ExperimentScale":
        """Copy of this preset with the given fields replaced."""
        values = {
            "n_samples": self.n_samples,
            "n_features": self.n_features,
            "n_clusters": self.n_clusters,
            "n_neighbors": self.n_neighbors,
            "cluster_size": self.cluster_size,
            "graph_tau": self.graph_tau,
            "max_iter": self.max_iter,
            "random_state": self.random_state,
            "metric": self.metric,
            "dtype": self.dtype,
        }
        values.update(overrides)
        return ExperimentScale(**values)


#: Tiny preset used by the test suite and the pytest-benchmark targets.
SMALL = ExperimentScale(n_samples=2_000, n_features=16, n_clusters=40,
                        n_neighbors=10, cluster_size=40, graph_tau=4,
                        max_iter=8)

#: Laptop-scale default (minutes, not hours).
DEFAULT = ExperimentScale()

#: Closer to the paper's setting; expect long runtimes in pure Python.
LARGE = ExperimentScale(n_samples=100_000, n_features=64, n_clusters=1_000,
                        n_neighbors=50, cluster_size=50, graph_tau=10,
                        max_iter=30)
