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
        and rows sorted by them — the distance-sorted rows NN-Descent's
        merges (:func:`~repro.graph.repair.merge_offers`) start from.  When
        false, distances are left as ``inf``.
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

    if 2 * n_neighbors > n:
        # κ is most of a row, so a redraw would rarely hit a free id — and
        # the (n, n-1) id table is small, n being below 2κ.  Shuffle its rows.
        indices = rng.permuted(np.tile(np.arange(n - 1), (n, 1)),
                               axis=1)[:, :n_neighbors].copy()
    else:
        # Every row at once, from [0, n-1).  A slot that repeats an earlier
        # slot of its row is drawn again (at least half the ids are free)
        # until no row holds a repeat.  No id is favoured at any step, so
        # each row is a uniform κ-subset in uniform order.
        indices = rng.integers(0, n - 1, size=(n, n_neighbors))
        unsettled = np.arange(n)
        while unsettled.size:
            rows = indices[unsettled]
            order = np.argsort(rows, axis=1, kind="stable")
            ranked = np.take_along_axis(rows, order, axis=1)
            repeats = np.zeros(rows.shape, dtype=bool)
            np.put_along_axis(repeats, order[:, 1:],
                              ranked[:, 1:] == ranked[:, :-1], axis=1)
            rows[repeats] = rng.integers(0, n - 1,
                                         size=np.count_nonzero(repeats))
            redrawn = repeats.any(axis=1)
            unsettled = unsettled[redrawn]
            indices[unsettled] = rows[redrawn]
    # Shift past the point itself: no self-loops, and no rejection for them.
    indices[indices >= np.arange(n)[:, None]] += 1

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
