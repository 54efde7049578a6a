"""Boost k-means (Zhao, Deng & Ngo) — the BKM baseline and GK-means engine.

Boost k-means replaces the Lloyd "assign all, then update all" loop with a
stochastic incremental optimisation of the composite-vector objective
(Eqn. 2): samples are visited one at a time in random order, the gain ΔI
(Eqn. 3) of moving the sample to every other cluster is evaluated, and the
best positive move is applied *immediately*.  Checking all ``k`` clusters per
sample keeps the complexity at the Lloyd level (``O(n·d·k)`` per sweep), which
is exactly what GK-means later prunes down to ``O(n·d·κ)`` using the k-NN
graph.
"""

from __future__ import annotations

import time

import numpy as np

from ..validation import check_labels
from .base import BaseClusterer, ClusteringResult, IterationRecord
from .initialization import random_balanced_labels
from .objective import ClusterState

__all__ = ["BoostKMeans"]


class BoostKMeans(BaseClusterer):
    """Incremental (boost) k-means.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    max_iter:
        Maximum number of full sweeps over the data; the fit stops earlier
        (converged) once a sweep applies no move.
    init_labels:
        Optional initial assignment (e.g. from the two-means tree).  When
        omitted, samples are assigned to clusters uniformly at random, which is
        the initialisation used by the original boost k-means.
    random_state:
        Seed or generator.
    """

    def __init__(self, n_clusters: int, *, max_iter: int = 30,
                 init_labels: np.ndarray | None = None,
                 random_state=None, metric: str = "sqeuclidean",
                 dtype=np.float64) -> None:
        super().__init__(n_clusters, max_iter=max_iter,
                         random_state=random_state, metric=metric,
                         dtype=dtype)
        self.init_labels = init_labels

    def _fit(self, data: np.ndarray, n_clusters: int, max_iter: int,
             rng: np.random.Generator) -> ClusteringResult:
        init_start = time.perf_counter()
        if self.init_labels is not None:
            labels = check_labels(self.init_labels, data.shape[0],
                                  name="init_labels").copy()
        else:
            labels = random_balanced_labels(data.shape[0], n_clusters, rng)
        state = ClusterState(data, labels, n_clusters)
        init_seconds = time.perf_counter() - init_start

        all_clusters = np.arange(n_clusters, dtype=np.int64)
        history: list[IterationRecord] = []
        converged = False
        evaluations = 0
        iter_start = time.perf_counter()
        for iteration in range(max_iter):
            order = rng.permutation(data.shape[0])
            moves = 0
            evaluations += data.shape[0] * n_clusters
            for sample in order:
                target, gain = state.best_move(int(sample), all_clusters)
                if gain > 0.0:
                    state.move(int(sample), target)
                    moves += 1
            history.append(IterationRecord(
                iteration=iteration, distortion=state.distortion,
                elapsed_seconds=time.perf_counter() - iter_start,
                n_moves=moves))
            if moves == 0:
                converged = True
                break
        iteration_seconds = time.perf_counter() - iter_start

        centroids = state.centroids()
        return ClusteringResult(
            labels=state.labels.copy(), centroids=centroids,
            distortion=state.distortion, history=history,
            converged=converged, init_seconds=init_seconds,
            iteration_seconds=iteration_seconds,
            extra={"objective": state.objective,
                   "n_distance_evaluations": evaluations})
