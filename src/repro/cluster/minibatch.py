"""Mini-Batch k-means (Sculley, WWW 2010).

The "Mini-Batch" baseline of the paper's Fig. 5–7: each iteration samples a
small batch, assigns only the batch to the nearest centroids and applies a
per-centre learning-rate update.  Very fast per iteration, but — as the paper
observes — it converges to noticeably higher distortion, especially for
large ``k``.
"""

from __future__ import annotations

import time

import numpy as np

from ..validation import check_positive_int
from .base import BaseClusterer, ClusteringResult, IterationRecord
from .initialization import resolve_init

__all__ = ["MiniBatchKMeans"]


class MiniBatchKMeans(BaseClusterer):
    """Web-scale mini-batch k-means.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    batch_size:
        Samples drawn per iteration.
    init:
        ``"random"``, ``"k-means++"`` or an explicit centroid array.
    max_iter:
        Number of mini-batch steps.
    record_every:
        Distortion over the *full* dataset is expensive relative to a
        mini-batch step, so the history records it only every ``record_every``
        iterations (and always on the final one).
    random_state:
        Seed or generator.
    """

    def __init__(self, n_clusters: int, *, batch_size: int = 256,
                 init: object = "random", max_iter: int = 30,
                 record_every: int = 1, random_state=None,
                 metric: str = "sqeuclidean", dtype=np.float64) -> None:
        super().__init__(n_clusters, max_iter=max_iter,
                         random_state=random_state, metric=metric,
                         dtype=dtype)
        self.batch_size = batch_size
        self.init = init
        self.record_every = record_every

    def _fit(self, data: np.ndarray, n_clusters: int, max_iter: int,
             rng: np.random.Generator) -> ClusteringResult:
        engine = self._work_engine
        batch_size = check_positive_int(self.batch_size, name="batch_size")
        record_every = check_positive_int(self.record_every,
                                          name="record_every")
        batch_size = min(batch_size, data.shape[0])
        data_norms = engine.norms(data)

        init_start = time.perf_counter()
        centroids = resolve_init(self.init, data, n_clusters, rng)
        init_seconds = time.perf_counter() - init_start

        per_center_counts = np.zeros(n_clusters, dtype=np.int64)
        history: list[IterationRecord] = []
        evaluations = 0
        iter_start = time.perf_counter()
        for iteration in range(max_iter):
            batch_idx = rng.choice(data.shape[0], size=batch_size,
                                   replace=False)
            batch = data[batch_idx]
            batch_labels, _ = engine.assign_to_nearest(
                batch, centroids, data_norms=data_norms[batch_idx])
            evaluations += batch_size * n_clusters
            moved = 0
            for row, center in enumerate(batch_labels):
                per_center_counts[center] += 1
                learning_rate = 1.0 / per_center_counts[center]
                centroids[center] = ((1.0 - learning_rate) * centroids[center]
                                     + learning_rate * batch[row])
                moved += 1
            if (iteration % record_every == 0) or iteration == max_iter - 1:
                _, distances = engine.assign_to_nearest(
                    data, centroids, data_norms=data_norms)
                history.append(IterationRecord(
                    iteration=iteration,
                    distortion=float(distances.mean()),
                    elapsed_seconds=time.perf_counter() - iter_start,
                    n_moves=moved))
        iteration_seconds = time.perf_counter() - iter_start

        labels, distances = engine.assign_to_nearest(data, centroids,
                                                     data_norms=data_norms)
        return ClusteringResult(
            labels=labels, centroids=centroids,
            distortion=float(distances.mean()), history=history,
            converged=False, init_seconds=init_seconds,
            iteration_seconds=iteration_seconds,
            extra={"n_distance_evaluations": evaluations})
