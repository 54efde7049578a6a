"""Closure k-means (Wang et al., "Fast approximate k-means via cluster
closures", CVPR 2012).

This is the strongest fast baseline in the paper's evaluation.  The idea:
every cluster has a *closure* — the union of the neighbourhoods of its
members — and a sample only needs to be compared against the centroids of the
clusters whose closure contains it.  Neighbourhoods are generated by an
ensemble of random spatial partitions (random-projection trees whose leaves
hold a few tens of points); two points are neighbours if they share a leaf in
any of the partitions.

Because leaf co-membership is symmetric, "x is in the closure of cluster r"
is equivalent to "some member of r shares a leaf with x", so the candidate
clusters of ``x`` are simply the labels found in the leaves containing ``x``.
That is what the assignment step below computes, one leaf at a time (which
keeps the inner loop a small dense GEMM).
"""

from __future__ import annotations

import time

import numpy as np

from ..validation import check_positive_int, check_random_state
from .base import BaseClusterer, ClusteringResult, IterationRecord
from .initialization import labels_to_centroids, resolve_init

__all__ = ["ClosureKMeans", "build_random_partitions"]


def build_random_partitions(data: np.ndarray, *, n_partitions: int = 3,
                            leaf_size: int = 50, random_state=None
                            ) -> list[list[np.ndarray]]:
    """Build random-projection-tree partitions of the dataset.

    Each partition is a list of leaves; each leaf is an array of sample
    indices of size at most ``leaf_size`` (and at least ``leaf_size // 2``
    except possibly for very small inputs).

    Returns
    -------
    list of partitions, each a list of index arrays covering all samples.
    """
    n_partitions = check_positive_int(n_partitions, name="n_partitions")
    leaf_size = check_positive_int(leaf_size, name="leaf_size", minimum=2)
    rng = check_random_state(random_state)

    n, dim = data.shape
    partitions: list[list[np.ndarray]] = []
    for _ in range(n_partitions):
        leaves: list[np.ndarray] = []
        stack = [np.arange(n, dtype=np.int64)]
        while stack:
            members = stack.pop()
            if members.size <= leaf_size:
                leaves.append(members)
                continue
            direction = rng.normal(size=dim)
            projection = data[members] @ direction
            median = np.median(projection)
            left_mask = projection < median
            # Guard against all-equal projections producing an empty side.
            if not left_mask.any() or left_mask.all():
                half = members.size // 2
                order = rng.permutation(members.size)
                left_mask = np.zeros(members.size, dtype=bool)
                left_mask[order[:half]] = True
            stack.append(members[left_mask])
            stack.append(members[~left_mask])
        partitions.append(leaves)
    return partitions


class ClosureKMeans(BaseClusterer):
    """Approximate k-means via cluster closures.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    n_partitions:
        Number of random spatial partitions in the ensemble (the paper's
        implementation uses a handful; more partitions → wider closures →
        better quality, slower iterations).
    leaf_size:
        Target leaf size of each partition.
    init:
        ``"random"``, ``"k-means++"`` or an explicit centroid array.
    max_iter:
        Maximum number of closure-assignment/update iterations.
    tol:
        Relative distortion improvement below which iteration stops.
    random_state:
        Seed or generator.
    """

    def __init__(self, n_clusters: int, *, n_partitions: int = 3,
                 leaf_size: int = 50, init: object = "random",
                 max_iter: int = 30, tol: float = 1e-4,
                 random_state=None, metric: str = "sqeuclidean",
                 dtype=np.float64) -> None:
        super().__init__(n_clusters, max_iter=max_iter,
                         random_state=random_state, metric=metric,
                         dtype=dtype)
        self.n_partitions = n_partitions
        self.leaf_size = leaf_size
        self.init = init
        self.tol = tol

    def _fit(self, data: np.ndarray, n_clusters: int, max_iter: int,
             rng: np.random.Generator) -> ClusteringResult:
        data_norms = self._work_engine.norms(data)

        init_start = time.perf_counter()
        partitions = build_random_partitions(
            data, n_partitions=self.n_partitions, leaf_size=self.leaf_size,
            random_state=rng)
        centroids = resolve_init(self.init, data, n_clusters, rng)
        self._evaluations = 0
        labels = self._closure_assign(data, data_norms, centroids,
                                      partitions, None)
        init_seconds = time.perf_counter() - init_start

        history: list[IterationRecord] = []
        previous_distortion = np.inf
        converged = False
        iter_start = time.perf_counter()
        for iteration in range(max_iter):
            centroids = labels_to_centroids(data, labels, n_clusters, rng=rng)
            new_labels = self._closure_assign(data, data_norms, centroids,
                                              partitions, labels)
            moves = int(np.sum(new_labels != labels))
            labels = new_labels
            diffs = data - centroids[labels]
            distortion = float(np.einsum("ij,ij->i", diffs, diffs).mean())
            history.append(IterationRecord(
                iteration=iteration, distortion=distortion,
                elapsed_seconds=time.perf_counter() - iter_start,
                n_moves=moves))
            if (np.isfinite(previous_distortion)
                    and previous_distortion - distortion
                    <= self.tol * max(previous_distortion, 1e-300)):
                converged = True
                break
            previous_distortion = distortion
        iteration_seconds = time.perf_counter() - iter_start

        centroids = labels_to_centroids(data, labels, n_clusters, rng=rng)
        diffs = data - centroids[labels]
        distortion = float(np.einsum("ij,ij->i", diffs, diffs).mean())
        return ClusteringResult(
            labels=labels, centroids=centroids, distortion=distortion,
            history=history, converged=converged, init_seconds=init_seconds,
            iteration_seconds=iteration_seconds,
            extra={"n_partitions": self.n_partitions,
                   "leaf_size": self.leaf_size,
                   "n_distance_evaluations": self._evaluations})

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #
    def _closure_assign(self, data: np.ndarray, data_norms: np.ndarray,
                        centroids: np.ndarray,
                        partitions: list[list[np.ndarray]],
                        labels: np.ndarray | None) -> np.ndarray:
        """Assign every sample to the nearest centroid within its closure.

        ``labels`` is the previous assignment (None on the very first call, in
        which case the closure of a leaf is seeded by the centroids nearest to
        the leaf mean so that every point still gets a sensible candidate
        set).
        """
        engine = self._work_engine
        n = data.shape[0]
        centroid_norms = engine.norms(centroids)
        best_dist = np.full(n, np.inf, dtype=np.float64)
        best_label = np.zeros(n, dtype=np.int64)

        if labels is not None:
            # Always consider the currently assigned centroid.
            assigned = centroids[labels]
            diffs = data - assigned
            best_dist = np.einsum("ij,ij->i", diffs, diffs)
            best_label = labels.copy()
            self._evaluations += n

        for leaves in partitions:
            for leaf in leaves:
                if labels is None:
                    leaf_mean = data[leaf].mean(axis=0)
                    dist_to_centers = engine.cross(
                        leaf_mean[None, :], centroids,
                        b_norms=centroid_norms)[0]
                    n_cand = min(4, centroids.shape[0])
                    candidates = np.argpartition(dist_to_centers,
                                                 n_cand - 1)[:n_cand]
                else:
                    candidates = np.unique(labels[leaf])
                block = engine.cross(
                    data[leaf], centroids[candidates],
                    a_norms=data_norms[leaf],
                    b_norms=centroid_norms[candidates])
                self._evaluations += leaf.size * candidates.size
                local_best = np.argmin(block, axis=1)
                local_dist = block[np.arange(leaf.size), local_best]
                improved = local_dist < best_dist[leaf]
                best_dist[leaf] = np.where(improved, local_dist,
                                           best_dist[leaf])
                best_label[leaf] = np.where(improved,
                                            candidates[local_best],
                                            best_label[leaf])
        return best_label
