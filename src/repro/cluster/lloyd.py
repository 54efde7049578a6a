"""Traditional k-means (Lloyd's algorithm).

This is the "k-means" baseline of the paper's figures: each iteration assigns
every sample to its nearest centroid (cost ``O(n·d·k)`` — the bottleneck the
paper attacks) and then recomputes the centroids as cluster means.
"""

from __future__ import annotations

import time

import numpy as np

from ..distance import DistanceCounter
from .base import BaseClusterer, ClusteringResult, IterationRecord
from .initialization import labels_to_centroids, resolve_init

__all__ = ["KMeans"]


class KMeans(BaseClusterer):
    """Lloyd's k-means.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    init:
        ``"random"``, ``"k-means++"`` or an explicit ``(k, d)`` centroid array.
    max_iter:
        Maximum number of assign/update iterations.
    tol:
        Relative distortion improvement below which the iteration stops.
    random_state:
        Seed or generator.
    metric, dtype:
        Distance engine configuration (see :class:`BaseClusterer`).

    ``result_.extra["n_distance_evaluations"]`` counts the ``n·k``
    sample-to-centroid distances of every iteration and the final one.
    """

    def __init__(self, n_clusters: int, *, init: object = "random",
                 max_iter: int = 30, tol: float = 1e-4, random_state=None,
                 metric: str = "sqeuclidean", dtype=np.float64) -> None:
        super().__init__(n_clusters, max_iter=max_iter,
                         random_state=random_state, metric=metric,
                         dtype=dtype)
        self.init = init
        self.tol = tol

    def _fit(self, data: np.ndarray, n_clusters: int, max_iter: int,
             rng: np.random.Generator) -> ClusteringResult:
        engine = self._work_engine
        counter = DistanceCounter()
        data_norms = engine.norms(data)

        init_start = time.perf_counter()
        centroids = resolve_init(self.init, data, n_clusters, rng)
        init_seconds = time.perf_counter() - init_start

        history: list[IterationRecord] = []
        previous_labels = np.full(data.shape[0], -1, dtype=np.int64)
        previous_distortion = np.inf
        converged = False
        iter_start = time.perf_counter()
        for iteration in range(max_iter):
            labels, distances = engine.assign_to_nearest(
                data, centroids, data_norms=data_norms, counter=counter)
            n_moves = int(np.sum(labels != previous_labels))
            previous_labels = labels
            distortion = float(distances.mean())
            elapsed = time.perf_counter() - iter_start
            history.append(IterationRecord(iteration=iteration,
                                           distortion=distortion,
                                           elapsed_seconds=elapsed,
                                           n_moves=n_moves))
            centroids = labels_to_centroids(data, labels, n_clusters, rng=rng)
            if (np.isfinite(previous_distortion)
                    and previous_distortion - distortion
                    <= self.tol * max(previous_distortion, 1e-300)):
                converged = True
                break
            previous_distortion = distortion
        iteration_seconds = time.perf_counter() - iter_start

        # Final distortion against the last centroid update.
        labels, distances = engine.assign_to_nearest(
            data, centroids, data_norms=data_norms, counter=counter)
        return ClusteringResult(
            labels=labels, centroids=centroids,
            distortion=float(distances.mean()), history=history,
            converged=converged, init_seconds=init_seconds,
            iteration_seconds=iteration_seconds,
            extra={"n_distance_evaluations": counter.count})
