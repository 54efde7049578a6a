"""Clustering distortion (the paper's evaluation measure, Eqn. 4)."""

from __future__ import annotations

import numpy as np

from ..cluster.objective import cluster_sums
from ..exceptions import ValidationError
from ..validation import check_data_matrix, check_labels

__all__ = ["average_distortion", "within_cluster_sum_of_squares"]


def within_cluster_sum_of_squares(data: np.ndarray, labels: np.ndarray,
                                  centroids: np.ndarray | None = None) -> float:
    """Total squared distance of every sample to its cluster centroid (Eqn. 1).

    When ``centroids`` is omitted, cluster means are recomputed from the
    labelling (the textbook WCSSD definition); when given, the distance to the
    *provided* centroids is used instead (matching how an algorithm that
    reports its own centroids should be scored).
    """
    data = check_data_matrix(data, dtype=None)
    labels = check_labels(labels, data.shape[0])
    n_clusters = int(labels.max()) + 1 if labels.size else 0
    if centroids is None:
        centroids = cluster_sums(data, labels, n_clusters)
        counts = np.bincount(labels, minlength=n_clusters)
        nonzero = counts > 0
        centroids[nonzero] /= counts[nonzero, None]
    else:
        centroids = np.asarray(centroids, dtype=np.float64)
        if labels.size and labels.max() >= centroids.shape[0]:
            raise ValidationError(
                f"labels refer to centroid {labels.max()} but only "
                f"{centroids.shape[0]} centroids were provided")
    diffs = data - centroids[labels]
    return float(np.einsum("ij,ij->i", diffs, diffs).sum())


def average_distortion(data: np.ndarray, labels: np.ndarray,
                       centroids: np.ndarray | None = None) -> float:
    """Average distortion ``E`` (Eqn. 4) — mean squared sample-to-centroid distance."""
    data = check_data_matrix(data)
    total = within_cluster_sum_of_squares(data, labels, centroids)
    return total / data.shape[0]
