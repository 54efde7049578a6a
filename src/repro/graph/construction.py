"""KNN graph construction with fast k-means — Alg. 3 of the paper.

The construction starts from a *random* graph and alternates, for τ rounds:

1. cluster the data into ``k0 = floor(n / ξ)`` small clusters with GK-means
   (two-means-tree initialisation followed by one graph-guided boost sweep —
   the paper fixes the GK-means iteration count to 1 inside the construction;
   the sweep is the same blocked
   :func:`~repro.cluster.gkmeans.graph_guided_boost_pass` ``GKMeans`` runs);
2. exhaustively compare every pair of samples inside each cluster and use the
   resulting distances to improve both samples' neighbour lists — all
   clusters of one size per batched product, partition and sort
   (:func:`_merge_clusters`), each cluster answered exactly as if it had
   been refined on its own.

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


#: Rows (clusters × cluster size) refined per batch.  Large enough that a
#: batch's ~40 numpy calls are amortised over a couple of thousand rows (the
#: ``build`` benchmark's merge is 15% slower at 1024 and no faster at 8192),
#: small enough that the ``(rows, κ + size)`` merged blocks stay a few MB
#: whatever ``n`` is.
ROW_CHUNK = 2048


def _merge_clusters(indices: np.ndarray, distances: np.ndarray,
                    labels: np.ndarray, n_clusters: int, data: np.ndarray,
                    n_neighbors: int, max_block: int,
                    rng: np.random.Generator, engine: DistanceEngine,
                    norms: np.ndarray) -> int:
    """Refine the neighbour lists of every cluster with its pairwise distances.

    Implements lines 8–14 of Alg. 3 for all clusters at once.  The existing
    ``(m, κ)`` neighbour rows of a cluster are concatenated with its
    ``(m, m)`` block of within-cluster candidates (candidates already in the
    row they would enter and self-pairs masked to ``inf``) and the κ smallest
    entries per row are kept, sorted by distance.  A cluster larger than
    ``max_block`` contributes a random subsample, drawn in cluster order.
    Returns the number of pairs compared, ``Σ m(m-1)/2``.

    Clusters are batched by *exact* size, ``ROW_CHUNK`` rows at a time: one
    ``(c, m, m)`` product, one partition and one sort serve ``c`` clusters.
    A batch is never padded to a common width, because both BLAS (the
    blocking of a product depends on its shape) and ``argpartition`` (the
    order of tied distances depends on the row length) would then answer
    differently from a cluster refined on its own.  Sizes are bounded by
    ``max_block``, so the number of batches does not grow with ``n``.
    """
    # Cluster c is members[starts[c]:starts[c] + sizes[c]].
    members = np.argsort(labels, kind="stable")
    cluster_at = labels[members]
    sizes = np.bincount(labels, minlength=n_clusters)
    starts = np.cumsum(sizes) - sizes
    for cluster in np.flatnonzero(sizes > max_block):
        # Subsampled in place: the draw leads the cluster's run and the
        # shortened size leaves the rest of the run unread.
        run = members[starts[cluster]:starts[cluster] + sizes[cluster]]
        run[:max_block] = rng.choice(run, size=max_block, replace=False)
        sizes[cluster] = max_block

    # Where every compared sample sits: rows spot the candidates they
    # already hold with one O(n·κ) lookup instead of an (m, m, κ) compare.
    slot_at = np.arange(members.size) - starts[cluster_at]
    compared = slot_at < sizes[cluster_at]
    home = np.full(members.size, -1, dtype=np.int64)
    slot = np.zeros(members.size, dtype=np.int64)
    home[members[compared]] = cluster_at[compared]
    slot[members[compared]] = slot_at[compared]

    by_size = np.argsort(sizes, kind="stable")
    distinct, run_starts = np.unique(sizes[by_size], return_index=True)
    run_stops = np.append(run_starts[1:], n_clusters)
    for size, run_start, run_stop in zip(distinct.tolist(),
                                         run_starts.tolist(),
                                         run_stops.tolist()):
        if size < 2:
            continue
        slots = np.arange(size)
        per_batch = max(ROW_CHUNK // size, 1)
        for batch_start in range(run_start, run_stop, per_batch):
            batch = by_size[batch_start:min(batch_start + per_batch,
                                            run_stop)]
            ids = members[starts[batch][:, None] + slots]        # (c, m)
            points = data[ids]
            point_norms = norms[ids]
            block = engine.from_inner(
                np.matmul(points, points.transpose(0, 2, 1)),
                point_norms[:, :, None], point_norms[:, None, :])
            block[:, slots, slots] = np.inf
            block = block.reshape(-1, size)                     # (c·m, m)

            rows = ids.ravel()
            current_idx = indices[rows]                         # (c·m, κ)
            held = home[current_idx] == home[rows][:, None]
            block[np.nonzero(held)[0], slot[current_idx[held]]] = np.inf

            merged_idx = np.concatenate(
                [current_idx, np.repeat(ids, size, axis=0)], axis=1)
            merged_dist = np.concatenate([distances[rows], block], axis=1)
            keep = np.argpartition(merged_dist, n_neighbors - 1,
                                   axis=1)[:, :n_neighbors]
            # Positions in the raveled block: a flat ``take`` is several
            # times cheaper than ``take_along_axis`` on blocks this small.
            keep += np.arange(0, merged_dist.size,
                              merged_dist.shape[1])[:, None]
            order = np.argsort(merged_dist.take(keep), axis=1, kind="stable")
            keep = np.take_along_axis(keep, order, axis=1)
            indices[rows] = merged_idx.take(keep)
            distances[rows] = merged_dist.take(keep)
    return int(np.sum(sizes * (sizes - 1) // 2))


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
        counter.add(_merge_clusters(indices, distances, state.labels,
                                    n_clusters, data, n_neighbors, max_block,
                                    rng, engine, norms))

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
