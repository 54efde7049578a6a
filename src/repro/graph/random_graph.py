"""Random k-NN graph initialisation.

Alg. 3 of the paper starts from a *random* graph ("Initialize G0 with random
lists") and refines it by alternating clustering and within-cluster
comparison.  NN-Descent starts the same way.
"""

from __future__ import annotations

import numpy as np

from ..distance import DistanceEngine
from ..validation import check_data_matrix, check_positive_int, check_random_state
from .knngraph import KNNGraph

__all__ = ["random_knn_graph"]


def random_knn_graph(data: np.ndarray, n_neighbors: int, *, random_state=None,
                     compute_distances: bool = True,
                     metric: str = "sqeuclidean", dtype=np.float64,
                     engine: DistanceEngine | None = None) -> KNNGraph:
    """Graph whose neighbour lists are uniform random samples (no self-loops).

    Parameters
    ----------
    data:
        ``(n, d)`` dataset the graph indexes.
    n_neighbors:
        Number of neighbours per point (must be < n).
    random_state:
        Seed or generator.
    compute_distances:
        When true, the true distances of the random neighbours are computed
        and rows sorted by them, so pushes into a
        :class:`~repro.graph.neighbor_heap.NeighborHeap` start from a
        consistent state.  When false, distances are left as ``inf``.
    metric, dtype:
        Distance engine configuration; ignored when ``engine`` is given.
    engine:
        Optional pre-built :class:`~repro.distance.DistanceEngine`.
    """
    if engine is None:
        engine = DistanceEngine(metric, dtype)
    data = check_data_matrix(data, min_samples=2, dtype=engine.dtype)
    n = data.shape[0]
    n_neighbors = check_positive_int(n_neighbors, name="n_neighbors",
                                     maximum=n - 1)
    rng = check_random_state(random_state)

    indices = np.empty((n, n_neighbors), dtype=np.int64)
    for point in range(n):
        # Draw from [0, n-1) and shift past the point itself to avoid self-loops
        # without rejection sampling.
        draw = rng.choice(n - 1, size=n_neighbors, replace=False)
        draw[draw >= point] += 1
        indices[point] = draw

    if not compute_distances:
        distances = np.full((n, n_neighbors), np.inf, dtype=np.float64)
        return KNNGraph(indices, distances, metric=engine.metric)

    norms = engine.norms(data)
    distances = np.empty((n, n_neighbors), dtype=np.float64)
    block = 256     # bounds the gathered (block, κ, d) neighbour tensor
    for start in range(0, n, block):
        stop = min(start + block, n)
        neighbors = indices[start:stop]
        rows = engine.from_inner(
            np.einsum("bd,bkd->bk", data[start:stop], data[neighbors]),
            None if norms is None else norms[start:stop],
            None if norms is None else norms[neighbors])
        order = np.argsort(rows, axis=1, kind="stable")
        indices[start:stop] = np.take_along_axis(neighbors, order, axis=1)
        distances[start:stop] = np.take_along_axis(rows, order, axis=1)
    return KNNGraph(indices, distances, metric=engine.metric)
