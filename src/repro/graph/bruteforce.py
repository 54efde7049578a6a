"""Exact k-NN computation by (blocked) brute force.

Used to produce the ground truth against which approximate graphs are scored
(the paper does the same for SIFT1M, at a cost of >20 hours; our scaled
datasets make this cheap).  Both metrics and dtypes of
:class:`~repro.distance.DistanceEngine` are supported, so the same oracle
serves squared-Euclidean and cosine benchmarks.
"""

from __future__ import annotations

import numpy as np

from ..distance import DistanceEngine
from ..validation import check_data_matrix, check_positive_int
from .knngraph import KNNGraph

__all__ = ["brute_force_knn_graph", "brute_force_neighbors"]


def brute_force_neighbors(queries: np.ndarray, reference: np.ndarray,
                          n_neighbors: int, *, block_size: int = 512,
                          exclude_self: bool = False,
                          metric: str = "sqeuclidean", dtype=np.float64,
                          engine: DistanceEngine | None = None
                          ) -> tuple[np.ndarray, np.ndarray]:
    """Exact ``n_neighbors`` nearest neighbours of each query in ``reference``.

    Parameters
    ----------
    queries, reference:
        ``(m, d)`` and ``(n, d)`` matrices.
    n_neighbors:
        Number of neighbours to return per query.
    block_size:
        Queries processed per block (bounds peak memory).
    exclude_self:
        When the query set *is* the reference set, exclude the trivial
        self match (used for graph ground truth).
    metric, dtype:
        Distance engine configuration; ignored when ``engine`` is given.
    engine:
        Optional pre-built :class:`~repro.distance.DistanceEngine`.

    Returns
    -------
    (indices, distances):
        Both of shape ``(m, n_neighbors)``, sorted by ascending distance.
    """
    if engine is None:
        engine = DistanceEngine(metric, dtype)
    queries = check_data_matrix(queries, name="queries", dtype=engine.dtype)
    reference = check_data_matrix(reference, name="reference",
                                  dtype=engine.dtype)
    n_neighbors = check_positive_int(n_neighbors, name="n_neighbors",
                                     maximum=reference.shape[0])
    ref_norms = engine.norms(reference)

    m = queries.shape[0]
    out_idx = np.empty((m, n_neighbors), dtype=np.int64)
    out_dist = np.empty((m, n_neighbors), dtype=np.float64)
    for start in range(0, m, block_size):
        stop = min(start + block_size, m)
        block = engine.cross(queries[start:stop], reference,
                             b_norms=ref_norms)
        if exclude_self:
            rows = np.arange(start, stop)
            block[np.arange(stop - start), rows] = np.inf
        take = min(n_neighbors, block.shape[1])
        part = np.argpartition(block, kth=take - 1, axis=1)[:, :take]
        part_dist = np.take_along_axis(block, part, axis=1)
        order = np.argsort(part_dist, axis=1, kind="stable")
        out_idx[start:stop] = np.take_along_axis(part, order, axis=1)
        out_dist[start:stop] = np.take_along_axis(part_dist, order, axis=1)
    return out_idx, out_dist


def brute_force_knn_graph(data: np.ndarray, n_neighbors: int, *,
                          block_size: int = 512,
                          metric: str = "sqeuclidean", dtype=np.float64,
                          engine: DistanceEngine | None = None) -> KNNGraph:
    """Exact k-NN graph of ``data`` (self matches excluded)."""
    if engine is None:
        engine = DistanceEngine(metric, dtype)
    data = check_data_matrix(data, min_samples=2, dtype=engine.dtype)
    n_neighbors = check_positive_int(n_neighbors, name="n_neighbors",
                                     maximum=data.shape[0] - 1)
    indices, distances = brute_force_neighbors(
        data, data, n_neighbors, block_size=block_size, exclude_self=True,
        engine=engine)
    return KNNGraph(indices, distances, metric=engine.metric)
