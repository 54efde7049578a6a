"""KNN graph construction with fast k-means — Alg. 3 of the paper.

The construction starts from a *random* graph and alternates, for τ rounds:

1. cluster the data into ``k0 = floor(n / ξ)`` small clusters with GK-means
   (two-means-tree initialisation followed by one graph-guided boost sweep —
   the paper fixes the GK-means iteration count to 1 inside the construction;
   the sweep is the same blocked
   :func:`~repro.cluster.gkmeans.graph_guided_boost_pass` ``GKMeans`` runs);
2. exhaustively compare every pair of samples inside each cluster and use the
   resulting distances to improve both samples' neighbour lists.

As the rounds progress the graph and the clustering improve each other — the
"intertwined evolving process" of the paper's Fig. 3.  The per-round history
(clustering distortion, and recall when a ground-truth graph is supplied) is
recorded so Fig. 2 can be regenerated directly from the returned object.

The cluster-side imports are performed lazily inside the functions because
:mod:`repro.cluster.gkmeans` needs to import this module to build its graph —
a module-level import in both directions would be circular.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..distance import DistanceEngine
from ..exceptions import ValidationError
from ..validation import (
    check_data_matrix,
    check_positive_int,
    check_random_state,
)
from .knngraph import KNNGraph
from .random_graph import random_knn_graph

__all__ = ["GraphRound", "GraphConstructionResult",
           "build_knn_graph_by_clustering"]


@dataclass(frozen=True)
class GraphRound:
    """Diagnostics of one τ round of Alg. 3."""

    tau: int
    distortion: float
    elapsed_seconds: float
    recall: float | None = None
    n_clusters: int = 0


@dataclass
class GraphConstructionResult:
    """Output of :func:`build_knn_graph_by_clustering`.

    Attributes
    ----------
    graph:
        The constructed approximate k-NN graph.
    history:
        One :class:`GraphRound` per τ round (Fig. 2's x axis).
    total_seconds:
        Wall-clock construction time.
    n_distance_evaluations:
        Total number of distance / ΔI evaluations spent (clustering sweeps
        plus within-cluster pairwise comparisons) — the hardware-independent
        cost the complexity analysis in §4.5 reasons about.
    """

    graph: KNNGraph
    history: list[GraphRound] = field(default_factory=list)
    total_seconds: float = 0.0
    n_distance_evaluations: int = 0

    def recall_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(τ, recall) arrays; recall entries may be NaN when not tracked."""
        taus = np.array([r.tau for r in self.history])
        recalls = np.array([np.nan if r.recall is None else r.recall
                            for r in self.history])
        return taus, recalls

    def distortion_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(τ, distortion) arrays for the clustering used in each round."""
        taus = np.array([r.tau for r in self.history])
        distortions = np.array([r.distortion for r in self.history])
        return taus, distortions


def _merge_cluster_block(indices: np.ndarray, distances: np.ndarray,
                         members: np.ndarray, data: np.ndarray,
                         n_neighbors: int,
                         engine: DistanceEngine | None = None,
                         norms: np.ndarray | None = None) -> None:
    """Refine the neighbour lists of ``members`` with their pairwise distances.

    Implements lines 8–14 of Alg. 3 for one cluster, vectorised: the existing
    ``(m, κ)`` neighbour rows are concatenated with the ``(m, m)`` block of
    within-cluster candidates (duplicates and self-pairs masked to ``inf``) and
    the κ smallest entries per row are kept, sorted by distance.
    """
    m = members.size
    if m < 2:
        return
    if engine is None:
        engine = DistanceEngine()
    block = engine.pairwise(data[members],
                            None if norms is None else norms[members])
    np.fill_diagonal(block, np.inf)

    current_idx = indices[members]                     # (m, κ)
    current_dist = distances[members]                  # (m, κ)
    candidate_idx = np.broadcast_to(members[None, :], (m, m))

    # Mask candidates that are already present in the row they would enter.
    duplicate = (candidate_idx[:, :, None] == current_idx[:, None, :]).any(axis=2)
    block = np.where(duplicate, np.inf, block)

    merged_idx = np.concatenate([current_idx, candidate_idx], axis=1)
    merged_dist = np.concatenate([current_dist, block], axis=1)

    keep = np.argpartition(merged_dist, n_neighbors - 1, axis=1)[:, :n_neighbors]
    kept_dist = np.take_along_axis(merged_dist, keep, axis=1)
    kept_idx = np.take_along_axis(merged_idx, keep, axis=1)
    order = np.argsort(kept_dist, axis=1, kind="stable")
    indices[members] = np.take_along_axis(kept_idx, order, axis=1)
    distances[members] = np.take_along_axis(kept_dist, order, axis=1)


def build_knn_graph_by_clustering(data: np.ndarray, n_neighbors: int, *,
                                  tau: int = 10, cluster_size: int = 50,
                                  bisection: str = "lloyd",
                                  max_block: int | None = None,
                                  truth: KNNGraph | None = None,
                                  random_state=None,
                                  metric: str = "sqeuclidean",
                                  dtype=np.float64
                                  ) -> GraphConstructionResult:
    """Build an approximate k-NN graph with the paper's Alg. 3.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset.
    n_neighbors:
        κ — width of the graph to build.
    tau:
        Number of clustering/refinement rounds (paper default 10; up to ~32
        when the graph is destined for ANN search).
    cluster_size:
        ξ — target cluster size for the within-cluster exhaustive comparison
        (paper default 50, recommended range [40, 100]).
    bisection:
        Bisection routine used by the two-means-tree initialisation of each
        round's GK-means call.
    max_block:
        Safety cap on the size of a within-cluster comparison block; clusters
        that grew beyond it (possible after the boost sweep) are subsampled.
        Defaults to ``4 * cluster_size``.
    truth:
        Optional exact graph; when given, top-1 recall is recorded each round
        (this is how Fig. 2 is produced).
    random_state:
        Seed or generator.
    metric, dtype:
        Distance engine configuration.  ``sqeuclidean`` and ``cosine`` only:
        the construction *is* clustering, so it needs the k-means geometry.
        Cosine rows are normalised once, the rounds run in the exact
        squared-Euclidean reduction, and the returned graph's distances are
        converted back to cosine (``d_cos = d_l2² / 2`` on the unit sphere).
        For inner-product graphs use NN-Descent or brute force instead.
    """
    outer = DistanceEngine(metric, dtype)
    if not outer.kmeans_geometry:
        raise ValidationError(
            "clustering-based graph construction requires the "
            "squared-Euclidean or cosine metric (its clustering step needs "
            f"the k-means geometry), got {outer.metric!r}; build "
            "inner-product graphs with NN-Descent or brute force")
    data = check_data_matrix(data, min_samples=2, dtype=outer.dtype)
    data = outer.prepare_clustering(data)
    engine = outer.clustering_engine()
    n = data.shape[0]
    n_neighbors = check_positive_int(n_neighbors, name="n_neighbors",
                                     maximum=n - 1)
    tau = check_positive_int(tau, name="tau")
    cluster_size = check_positive_int(cluster_size, name="cluster_size",
                                      minimum=2)
    rng = check_random_state(random_state)
    if max_block is None:
        max_block = 4 * cluster_size

    # Lazy imports to avoid a circular dependency with repro.cluster.gkmeans.
    from ..cluster.gkmeans import graph_guided_boost_pass
    from ..cluster.objective import ClusterState
    from ..cluster.two_means_tree import two_means_labels
    from ..distance.kernels import DistanceCounter
    from .metrics import graph_recall

    counter = DistanceCounter()
    start = time.perf_counter()
    initial = random_knn_graph(data, n_neighbors, random_state=rng,
                               engine=engine)
    indices = initial.indices.copy()
    distances = initial.distances.copy()
    norms = engine.norms(data)

    n_clusters = max(2, n // cluster_size)
    history: list[GraphRound] = []
    for round_index in range(tau):
        round_start = time.perf_counter()
        # --- clustering step: GK-means with the current graph, t = 1 -------
        labels = two_means_labels(data, n_clusters, random_state=rng,
                                  bisection=bisection,
                                  metric=engine.metric, dtype=engine.dtype)
        state = ClusterState(data, labels, n_clusters)
        graph_guided_boost_pass(state, indices, rng, counter=counter)

        # --- refinement step: exhaustive comparison inside each cluster ----
        order = np.argsort(state.labels, kind="stable")
        boundaries = np.searchsorted(state.labels[order],
                                     np.arange(n_clusters + 1))
        for cluster in range(n_clusters):
            members = order[boundaries[cluster]:boundaries[cluster + 1]]
            if members.size > max_block:
                members = rng.choice(members, size=max_block, replace=False)
            counter.add(members.size * (members.size - 1) // 2)
            _merge_cluster_block(indices, distances, members, data,
                                 n_neighbors, engine, norms)

        recall = None
        if truth is not None:
            recall = graph_recall(KNNGraph(indices, distances), truth,
                                  n_neighbors=1)
        history.append(GraphRound(
            tau=round_index + 1, distortion=state.distortion,
            elapsed_seconds=time.perf_counter() - round_start,
            recall=recall, n_clusters=n_clusters))

    if outer.metric == "cosine":
        # Rounds ran on l2-normalised rows where ||a - b||² = 2 (1 - cos);
        # halve to report genuine cosine distances alongside the indices.
        distances = distances / 2.0
    graph = KNNGraph(indices, distances, metric=outer.metric)
    return GraphConstructionResult(graph=graph, history=history,
                                   total_seconds=time.perf_counter() - start,
                                   n_distance_evaluations=counter.count)
