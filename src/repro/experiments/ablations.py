"""Ablation studies for the design choices discussed in §4.4 of the paper.

The paper fixes κ = 50, ξ = 50 and τ = 10 and argues (without figures) that

* quality is stable once κ ≳ 40,
* ξ trades graph quality against pair-wise comparison cost (range [40, 100]),
* larger τ gives a more precise graph at higher cost,
* the boost-assignment variant beats the lloyd-assignment variant,
* the equal-size adjustment is what keeps the construction cost bounded.

Each ``sweep_*`` function below quantifies one of those claims on the scaled
SIFT-like stand-in so the claims can be checked (and re-checked after code
changes) rather than taken on faith.
"""

from __future__ import annotations

from ..cluster import GKMeans, TwoMeansTree
from ..datasets import make_sift_like
from ..graph import brute_force_knn_graph, build_knn_graph_by_clustering, graph_recall
from ..metrics import cluster_size_histogram
from .config import DEFAULT, ExperimentScale

__all__ = [
    "sweep_kappa",
    "sweep_xi",
    "sweep_tau",
    "compare_assignment",
    "compare_equal_size",
    "run",
]


def _data(scale: ExperimentScale):
    return make_sift_like(scale.n_samples, scale.n_features,
                          random_state=scale.random_state)


def sweep_kappa(scale: ExperimentScale = DEFAULT,
                kappas=(5, 10, 20, 40)) -> dict:
    """κ sweep: distortion and iteration time of GK-means vs κ."""
    data = _data(scale)
    rows = []
    for kappa in kappas:
        model = GKMeans(scale.n_clusters, n_neighbors=kappa,
                        graph_tau=scale.graph_tau,
                        graph_cluster_size=scale.cluster_size,
                        max_iter=scale.max_iter,
                        random_state=scale.random_state).fit(data)
        rows.append({"kappa": kappa, "distortion": model.distortion_,
                     "iteration_seconds": model.result_.iteration_seconds})
    return {"table": rows, "metadata": {"n_clusters": scale.n_clusters}}


def sweep_xi(scale: ExperimentScale = DEFAULT, xis=(20, 50, 100)) -> dict:
    """ξ sweep: graph recall and construction time vs the cluster size ξ."""
    data = _data(scale)
    truth = brute_force_knn_graph(data, scale.n_neighbors)
    rows = []
    for xi in xis:
        result = build_knn_graph_by_clustering(
            data, scale.n_neighbors, tau=scale.graph_tau, cluster_size=xi,
            random_state=scale.random_state)
        rows.append({"xi": xi,
                     "recall": graph_recall(result.graph, truth,
                                            n_neighbors=1),
                     "construction_seconds": result.total_seconds})
    return {"table": rows, "metadata": {"tau": scale.graph_tau}}


def sweep_tau(scale: ExperimentScale = DEFAULT, taus=(1, 2, 4, 8)) -> dict:
    """τ sweep: graph recall and construction time vs the number of rounds."""
    data = _data(scale)
    truth = brute_force_knn_graph(data, scale.n_neighbors)
    rows = []
    for tau in taus:
        result = build_knn_graph_by_clustering(
            data, scale.n_neighbors, tau=tau, cluster_size=scale.cluster_size,
            random_state=scale.random_state)
        rows.append({"tau": tau,
                     "recall": graph_recall(result.graph, truth,
                                            n_neighbors=1),
                     "construction_seconds": result.total_seconds})
    return {"table": rows, "metadata": {"cluster_size": scale.cluster_size}}


def compare_assignment(scale: ExperimentScale = DEFAULT) -> dict:
    """GK-means (boost) vs GK-means⁻ (lloyd) on the same supporting graph."""
    data = _data(scale)
    graph = build_knn_graph_by_clustering(
        data, scale.n_neighbors, tau=scale.graph_tau,
        cluster_size=scale.cluster_size,
        random_state=scale.random_state).graph
    rows = []
    for assignment in ("boost", "lloyd"):
        model = GKMeans(scale.n_clusters, n_neighbors=scale.n_neighbors,
                        graph=graph, assignment=assignment,
                        max_iter=scale.max_iter,
                        random_state=scale.random_state).fit(data)
        rows.append({"assignment": assignment,
                     "distortion": model.distortion_,
                     "iterations": model.n_iter_,
                     "iteration_seconds": model.result_.iteration_seconds})
    return {"table": rows, "metadata": {"n_clusters": scale.n_clusters}}


def compare_equal_size(scale: ExperimentScale = DEFAULT) -> dict:
    """Two-means tree with and without the equal-size adjustment (Alg. 1 l. 9)."""
    data = _data(scale)
    rows = []
    for equal_size in (True, False):
        tree = TwoMeansTree(scale.n_clusters, equal_size=equal_size,
                            random_state=scale.random_state).fit(data)
        sizes = cluster_size_histogram(tree.labels_, scale.n_clusters)
        rows.append({"equal_size": equal_size,
                     "distortion": tree.distortion_,
                     "max_cluster": sizes["max"],
                     "min_cluster": sizes["min"],
                     "size_std": sizes["std"]})
    return {"table": rows, "metadata": {"n_clusters": scale.n_clusters}}


def run(scale: ExperimentScale = DEFAULT) -> dict:
    """Every ablation above at its default sweep, keyed by the choice it
    varies (``gkmeans experiment ablations``)."""
    return {"kappa": sweep_kappa(scale), "xi": sweep_xi(scale),
            "tau": sweep_tau(scale), "assignment": compare_assignment(scale),
            "equal_size": compare_equal_size(scale)}
