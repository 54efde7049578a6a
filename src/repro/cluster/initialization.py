"""Centroid / label initialisation strategies.

The paper's GK-means initialises with the two-means tree (Alg. 1); the
baselines here support the two standard strategies discussed in §2.1:
uniform-random selection and k-means++ (Arthur & Vassilvitskii 2007).
"""

from __future__ import annotations

import numpy as np

from ..distance import DistanceEngine
from ..exceptions import ValidationError
from ..validation import (check_data_matrix, check_labels, check_positive_int,
                          check_random_state)
from .objective import cluster_sums

__all__ = ["random_init", "kmeans_plus_plus_init", "random_balanced_labels",
           "labels_to_centroids", "resolve_init"]


def random_init(data: np.ndarray, n_clusters: int, *, random_state=None
                ) -> np.ndarray:
    """Pick ``n_clusters`` distinct samples uniformly at random as centroids."""
    data = check_data_matrix(data, dtype=None)
    n_clusters = check_positive_int(n_clusters, name="n_clusters",
                                    maximum=data.shape[0])
    rng = check_random_state(random_state)
    chosen = rng.choice(data.shape[0], size=n_clusters, replace=False)
    return data[chosen].astype(np.float64)


def kmeans_plus_plus_init(data: np.ndarray, n_clusters: int, *,
                          random_state=None) -> np.ndarray:
    """k-means++ seeding: each new centre is drawn ∝ squared distance.

    This is the quality-oriented initialisation reviewed in §2.1 of the paper;
    it requires ``k`` passes over the data, which is exactly the extra cost the
    paper's two-means-tree initialisation avoids.  Distances are computed in
    ``data``'s own float dtype and sampled from in float64.
    """
    data = check_data_matrix(data, dtype=None)
    n_clusters = check_positive_int(n_clusters, name="n_clusters",
                                    maximum=data.shape[0])
    rng = check_random_state(random_state)

    n = data.shape[0]
    engine = DistanceEngine("sqeuclidean", data.dtype)
    data_norms = engine.norms(data)
    centers = np.empty((n_clusters, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centers[0] = data[first]
    closest = engine.cross(data, data[first:first + 1],
                           a_norms=data_norms)[:, 0].astype(np.float64)
    for idx in range(1, n_clusters):
        total = closest.sum()
        if total <= 0:
            # All remaining mass is on already-chosen points (duplicates);
            # fall back to uniform choice among the rest.
            probabilities = np.full(n, 1.0 / n)
        else:
            probabilities = closest / total
        chosen = int(rng.choice(n, p=probabilities))
        centers[idx] = data[chosen]
        new_dist = engine.cross(data, data[chosen:chosen + 1],
                                a_norms=data_norms)[:, 0]
        np.minimum(closest, new_dist, out=closest)
    return centers


def random_balanced_labels(n_samples: int, n_clusters: int,
                           rng: np.random.Generator) -> np.ndarray:
    """Uniform random labels with at least one sample in every cluster.

    Every sample draws a label, then ``min(k, n)`` distinct samples are
    relabelled ``0, 1, …`` so no cluster starts empty.
    """
    labels = rng.integers(0, n_clusters, size=n_samples).astype(np.int64)
    representatives = rng.choice(n_samples, size=min(n_clusters, n_samples),
                                 replace=False)
    labels[representatives] = np.arange(min(n_clusters, n_samples))
    return labels


def labels_to_centroids(data: np.ndarray, labels: np.ndarray,
                        n_clusters: int, *, rng=None) -> np.ndarray:
    """Mean of every cluster; empty clusters are re-seeded with random samples.

    The sums are float64 (:func:`~repro.cluster.objective.cluster_sums`)
    whatever ``data``'s float dtype, and so are the returned centroids.
    """
    data = check_data_matrix(data, dtype=None)
    labels = check_labels(labels, data.shape[0])
    if labels.size and labels.max() >= n_clusters:
        raise ValidationError(
            f"labels refer to cluster {labels.max()} but only "
            f"{n_clusters} clusters exist")
    centroids = cluster_sums(data, labels, n_clusters)
    counts = np.bincount(labels, minlength=n_clusters)
    empty = counts == 0
    nonempty = ~empty
    centroids[nonempty] /= counts[nonempty, None]
    if empty.any():
        rng = check_random_state(rng)
        replacements = rng.choice(data.shape[0], size=int(empty.sum()),
                                  replace=False)
        centroids[empty] = data[replacements]
    return centroids


def resolve_init(init, data: np.ndarray, n_clusters: int, rng) -> np.ndarray:
    """Resolve an ``init`` argument into an initial centroid matrix.

    ``init`` may be the string ``"random"`` or ``"k-means++"``, or an explicit
    ``(n_clusters, d)`` array of starting centroids.
    """
    if isinstance(init, str):
        key = init.lower()
        if key == "random":
            return random_init(data, n_clusters, random_state=rng)
        if key in {"k-means++", "kmeans++", "plusplus"}:
            return kmeans_plus_plus_init(data, n_clusters, random_state=rng)
        raise ValidationError(
            f"unknown init {init!r}; expected 'random', 'k-means++' or an array")
    centers = check_data_matrix(init, name="init")
    if centers.shape != (n_clusters, data.shape[1]):
        raise ValidationError(
            f"explicit init must have shape {(n_clusters, data.shape[1])}, "
            f"got {centers.shape}")
    return centers.copy()
