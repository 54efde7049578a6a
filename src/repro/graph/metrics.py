"""Quality metrics for approximate k-NN graphs.

The paper reports the *average recall of the top-1 neighbour* ("only the
recall of top-1 nearest neighbor is measured", §5.1) and, for the 10M dataset,
estimates it on a random sample of points.  Both modes are supported here, as
is general recall@k.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import GraphError
from ..validation import check_positive_int, check_random_state
from .bruteforce import brute_force_neighbors
from .knngraph import KNNGraph

__all__ = ["graph_recall", "per_point_recall", "estimate_recall_by_sampling"]


def per_point_recall(graph: KNNGraph, truth: KNNGraph, *,
                     n_neighbors: int | None = None) -> np.ndarray:
    """Recall of each point's neighbour list against the exact ground truth.

    Parameters
    ----------
    graph:
        Approximate graph being evaluated.
    truth:
        Exact graph (e.g. from :func:`~repro.graph.bruteforce.brute_force_knn_graph`).
    n_neighbors:
        Evaluate recall at this depth (defaults to the smaller of the two
        graphs' widths).  ``n_neighbors=1`` reproduces the paper's top-1 recall.

    Returns
    -------
    numpy.ndarray
        Vector of per-point recall values in ``[0, 1]``.
    """
    if graph.n_points != truth.n_points:
        raise GraphError(
            f"graphs index different datasets ({graph.n_points} vs "
            f"{truth.n_points} points)")
    depth = min(graph.n_neighbors, truth.n_neighbors)
    if n_neighbors is not None:
        depth = check_positive_int(n_neighbors, name="n_neighbors",
                                   maximum=depth)
    recalls = np.empty(graph.n_points, dtype=np.float64)
    for point in range(graph.n_points):
        approx = graph.indices[point, :depth]
        exact = truth.indices[point, :depth]
        approx = set(int(i) for i in approx if i >= 0)
        exact_set = set(int(i) for i in exact if i >= 0)
        if not exact_set:
            recalls[point] = 1.0
            continue
        recalls[point] = len(approx & exact_set) / len(exact_set)
    return recalls


def graph_recall(graph: KNNGraph, truth: KNNGraph, *,
                 n_neighbors: int | None = None) -> float:
    """Average recall over all points (the paper's recall measure)."""
    return float(per_point_recall(graph, truth, n_neighbors=n_neighbors).mean())


def estimate_recall_by_sampling(graph: KNNGraph, data: np.ndarray, *,
                                n_probes: int = 100, n_neighbors: int = 1,
                                random_state=None,
                                metric: str | None = None) -> float:
    """Estimate recall by exact search on a random subset of points.

    This mirrors how the paper evaluates VLAD10M, where exact ground truth for
    the whole corpus is too expensive: "the recall is therefore estimated by
    only considering nearest neighbors of 100 randomly selected samples".

    The exact probes are computed under ``metric``, defaulting to the metric
    the graph itself was built with, so cosine graphs are scored against
    the right oracle.
    """
    n_probes = check_positive_int(n_probes, name="n_probes",
                                  maximum=graph.n_points)
    n_neighbors = check_positive_int(n_neighbors, name="n_neighbors",
                                     maximum=graph.n_neighbors)
    rng = check_random_state(random_state)
    probes = rng.choice(graph.n_points, size=n_probes, replace=False)

    exact_idx, _ = brute_force_neighbors(
        data[probes], data, n_neighbors + 1, exclude_self=False,
        metric=graph.metric if metric is None else metric)
    hits = 0.0
    for row, point in enumerate(probes):
        exact = [int(i) for i in exact_idx[row] if int(i) != int(point)]
        exact = exact[:n_neighbors]
        approx = set(int(i) for i in graph.indices[point, :n_neighbors] if i >= 0)
        if not exact:
            hits += 1.0
            continue
        hits += len(approx & set(exact)) / len(exact)
    return hits / n_probes
