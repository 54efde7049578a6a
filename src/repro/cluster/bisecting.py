"""Hierarchical bisecting k-means (top-down divisive clustering).

The "easy way to reduce the number of comparisons" discussed in §2.1 of the
paper: the data is split into ``k`` clusters via a sequence of repeated
bisections, bringing the complexity down from ``O(t·k·n·d)`` to
``O(t·log(k)·n·d)`` at the price of breaking the Lloyd condition (each sample
is no longer guaranteed to sit in the globally nearest cluster), which is why
its distortion is usually worse.  Each split is the two-means tree's own
2-means (:func:`~repro.cluster.two_means_tree._bisect_lloyd`, on a one-node
wave), but unlike the tree it does *not* force equal-size leaves and it
picks the cluster with the largest within-cluster error (not the largest
size) to split next.
"""

from __future__ import annotations

import heapq
import time

import numpy as np

from ..validation import check_positive_int
from .base import BaseClusterer, ClusteringResult, IterationRecord
from .objective import ClusterState
from .two_means_tree import _bisect_lloyd

__all__ = ["BisectingKMeans"]


class BisectingKMeans(BaseClusterer):
    """Divisive hierarchical k-means.

    Parameters
    ----------
    n_clusters:
        Number of leaf clusters to produce.
    bisect_iter:
        2-means Lloyd iterations used for each split.
    split_criterion:
        ``"sse"`` (split the cluster with the largest within-cluster error,
        the classic choice) or ``"size"`` (largest cluster first).
    random_state:
        Seed or generator.
    """

    def __init__(self, n_clusters: int, *, bisect_iter: int = 8,
                 split_criterion: str = "sse", random_state=None,
                 metric: str = "sqeuclidean", dtype=np.float64) -> None:
        super().__init__(n_clusters, max_iter=1, random_state=random_state,
                         metric=metric, dtype=dtype)
        self.bisect_iter = bisect_iter
        self.split_criterion = split_criterion

    def _fit(self, data: np.ndarray, n_clusters: int, max_iter: int,
             rng: np.random.Generator) -> ClusteringResult:
        start = time.perf_counter()
        bisect_iter = check_positive_int(self.bisect_iter, name="bisect_iter")
        n = data.shape[0]
        labels = np.zeros(n, dtype=np.int64)

        heap: list[tuple[float, int, np.ndarray]] = []
        counter = 0
        heapq.heappush(heap, (-self._priority(data, np.arange(n)), counter,
                              np.arange(n, dtype=np.int64)))
        next_label = 1
        while next_label < n_clusters and heap:
            _, _, members = heapq.heappop(heap)
            if members.size <= 1:
                counter += 1
                heapq.heappush(heap, (0.0, counter, members))
                break
            # The two-means tree's 2-means split, on a one-node wave.
            mask = _bisect_lloyd(data[members][None],
                                 np.ones((1, members.size), dtype=bool),
                                 np.array([members.size]), rng,
                                 bisect_iter)[0][0]
            group_a, group_b = members[~mask], members[mask]
            labels[group_b] = next_label
            for group in (group_a, group_b):
                counter += 1
                heapq.heappush(heap, (-self._priority(data, group), counter,
                                      group))
            next_label += 1

        state = ClusterState(data, labels, n_clusters)
        elapsed = time.perf_counter() - start
        history = [IterationRecord(iteration=0, distortion=state.distortion,
                                   elapsed_seconds=elapsed, n_moves=0)]
        return ClusteringResult(
            labels=labels, centroids=state.centroids(),
            distortion=state.distortion, history=history, converged=True,
            init_seconds=0.0, iteration_seconds=elapsed)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _priority(self, data: np.ndarray, members: np.ndarray) -> float:
        """Split priority of a cluster (higher = split sooner)."""
        if members.size <= 1:
            return 0.0
        if self.split_criterion == "size":
            return float(members.size)
        subset = data[members]
        centroid = subset.mean(axis=0)
        return float(self._work_engine.cross(subset, centroid[None, :])
                     .sum(dtype=np.float64))
