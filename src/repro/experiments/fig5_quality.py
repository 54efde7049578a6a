"""Fig. 5 — clustering distortion vs iteration and vs time.

The paper runs Mini-Batch, closure k-means, k-means, BKM, KGraph+GK-means and
GK-means on SIFT1M, Glove1M and GIST1M with k = 10 000 and plots the average
distortion as a function of (a/c/e) the iteration count and (b/d/f) wall-clock
time.  The reproduction runs the same cast on the scaled stand-ins and returns
both curves per method per dataset.  ``scale.metric``/``scale.dtype`` are
threaded into every method, so the comparison also runs under cosine or in
float32.  Fig. 5 plots no evaluation count; the counts live in the Fig. 6/7
driver (:mod:`repro.experiments.fig67_scalability`).
"""

from __future__ import annotations

from ..datasets import load_dataset
from .config import DEFAULT, ExperimentScale
from .runner import run_method

__all__ = ["DEFAULT_METHODS", "DEFAULT_DATASETS", "run"]

#: Methods shown in Fig. 5 (legend order).
DEFAULT_METHODS = ("Mini-Batch", "closure k-means", "k-means", "BKM",
                   "KGraph+GK-means", "GK-means")

#: Datasets used by Fig. 5.
DEFAULT_DATASETS = ("sift1m", "glove1m", "gist1m")


def run(scale: ExperimentScale = DEFAULT, *, datasets=DEFAULT_DATASETS,
        methods=DEFAULT_METHODS) -> dict:
    """Run the Fig. 5 experiment.

    Returns a dict keyed by dataset name; each value holds the per-method
    ``vs_iteration`` and ``vs_time`` series plus a summary ``table`` of final
    distortion and total time.
    """
    output: dict = {"metadata": {"n_clusters": scale.n_clusters,
                                 "max_iter": scale.max_iter,
                                 "metric": scale.metric,
                                 "dtype": scale.dtype,
                                 "methods": list(methods)},
                    "datasets": {}}
    for dataset_name in datasets:
        data = load_dataset(dataset_name, scale.n_samples, scale.n_features,
                            random_state=scale.random_state)
        per_method_iteration = {}
        per_method_time = {}
        rows = []
        for method in methods:
            options = {}
            if method in {"GK-means", "GK-means-", "KGraph+GK-means"}:
                options.update(n_neighbors=scale.n_neighbors,
                               graph_tau=scale.graph_tau,
                               graph_cluster_size=scale.cluster_size)
            run_result = run_method(method, data, scale.n_clusters,
                                    max_iter=scale.max_iter,
                                    random_state=scale.random_state,
                                    metric=scale.metric, dtype=scale.dtype,
                                    **options)
            per_method_iteration[method] = run_result.result.distortion_curve()
            per_method_time[method] = run_result.result.time_curve()
            rows.append({
                "method": method,
                "final_distortion": run_result.distortion,
                "iterations": run_result.result.n_iterations,
                "init_seconds": run_result.result.init_seconds,
                "total_seconds": run_result.total_seconds,
            })
        output["datasets"][dataset_name] = {
            "vs_iteration": per_method_iteration,
            "vs_time": per_method_time,
            "table": rows,
        }
    return output
