"""Fig. 6 and Fig. 7 — scalability in the dataset size n and the cluster
count k.

The paper runs Mini-Batch, closure k-means, k-means, BKM and GK-means on the
VLAD10M corpus and reports

* Fig. 6(a): wall-clock time while n grows from 10K to 10M (k = 1024 fixed);
* Fig. 6(b): wall-clock time while k grows from 1024 to 8192 (n = 1M fixed);
* Fig. 7(a)/(b): the corresponding average distortions.

The reproduction keeps the geometric sweeps but shrinks the absolute sizes
(n up to a few tens of thousands, k up to a few hundred);
``scale.metric``/``scale.dtype`` are threaded into every method, so the
sweeps also run under cosine or in float32.  The headline shape
to verify: the GK-means (and closure) curves stay nearly flat in k while
k-means/BKM/Mini-Batch grow linearly, and GK-means tracks BKM's distortion.

Cost is counted two ways.  ``distance_evaluations`` (and the
``evaluation_series``) is what each method computed — for GK-means the ΔI
rows and pairs its sweeps scored after skipping settled samples, plus the
graph build.  ``alg2_evaluations`` is Alg. 2's count for the GK-means family
(the distinct candidate clusters of every visited sample, plus the graph
build) and ``None`` for the other methods.
"""

from __future__ import annotations

from ..datasets import load_dataset, subsample
from .config import DEFAULT, ExperimentScale
from .runner import run_method

__all__ = ["DEFAULT_METHODS", "run_size_sweep", "run_cluster_sweep", "run"]

#: Methods shown in Fig. 6/7.
DEFAULT_METHODS = ("Mini-Batch", "closure k-means", "k-means", "BKM",
                   "GK-means")


def _method_options(method: str, scale: ExperimentScale) -> dict:
    if method in {"GK-means", "GK-means-", "KGraph+GK-means"}:
        return {"n_neighbors": scale.n_neighbors,
                "graph_tau": max(2, scale.graph_tau // 2),
                "graph_cluster_size": scale.cluster_size}
    return {}


def _sweep(scale, axis, points, fit_inputs, methods, metadata) -> dict:
    """Fit every method at every sweep point; ``fit_inputs(point)`` gives
    that point's ``(data, n_clusters)``."""
    rows = []
    series = {name: {method: ([], []) for method in methods} for name in
              ("series", "distortion_series", "evaluation_series")}
    for point in points:
        data, n_clusters = fit_inputs(point)
        for method in methods:
            run_result = run_method(
                method, data, n_clusters, max_iter=scale.max_iter,
                random_state=scale.random_state,
                metric=scale.metric, dtype=scale.dtype,
                **_method_options(method, scale))
            rows.append({axis: point, "method": method,
                         "seconds": run_result.total_seconds,
                         "distortion": run_result.distortion,
                         "distance_evaluations":
                             run_result.distance_evaluations,
                         "alg2_evaluations": run_result.alg2_evaluations})
            for name, value in (
                    ("series", run_result.total_seconds),
                    ("distortion_series", run_result.distortion),
                    ("evaluation_series", run_result.distance_evaluations)):
                series[name][method][0].append(point)
                series[name][method][1].append(value)
    return {"table": rows, **series,
            "metadata": {**metadata, "metric": scale.metric,
                         "dtype": scale.dtype}}


def run_size_sweep(scale: ExperimentScale = DEFAULT, *, sizes=None,
                   n_clusters: int | None = None,
                   methods=DEFAULT_METHODS) -> dict:
    """Fig. 6(a) / Fig. 7(a): vary n at fixed k.

    Returns ``{"table": rows, "series": {method: (sizes, seconds)},
    "distortion_series": {method: (sizes, distortion)},
    "evaluation_series": {method: (sizes, evaluations)}}``.
    """
    if sizes is None:
        sizes = [scale.n_samples // 8, scale.n_samples // 4,
                 scale.n_samples // 2, scale.n_samples]
    if n_clusters is None:
        n_clusters = scale.n_clusters
    corpus = load_dataset("vlad10m", max(sizes), scale.n_features,
                          random_state=scale.random_state)

    def fit_inputs(size):
        data = (corpus if size == corpus.shape[0]
                else subsample(corpus, size, random_state=scale.random_state))
        return data, n_clusters
    return _sweep(scale, "n", sizes, fit_inputs, methods,
                  {"n_clusters": n_clusters, "sizes": list(sizes)})


def run_cluster_sweep(scale: ExperimentScale = DEFAULT, *, cluster_counts=None,
                      n_samples: int | None = None,
                      methods=DEFAULT_METHODS) -> dict:
    """Fig. 6(b) / Fig. 7(b): vary k at fixed n."""
    if cluster_counts is None:
        base = max(8, scale.n_clusters // 4)
        cluster_counts = [base, base * 2, base * 4, base * 8]
    if n_samples is None:
        n_samples = scale.n_samples
    data = load_dataset("vlad10m", n_samples, scale.n_features,
                        random_state=scale.random_state)
    return _sweep(scale, "k", cluster_counts, lambda k: (data, k), methods,
                  {"n_samples": n_samples,
                   "cluster_counts": list(cluster_counts)})


def run(scale: ExperimentScale = DEFAULT) -> dict:
    """Run both sweeps (Fig. 6a+7a and Fig. 6b+7b)."""
    return {"size_sweep": run_size_sweep(scale),
            "cluster_sweep": run_cluster_sweep(scale)}
