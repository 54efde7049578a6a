"""Evaluation metrics: distortion, neighbour/cluster co-occurrence and
external cluster agreement."""

from .distortion import average_distortion, within_cluster_sum_of_squares
from .cooccurrence import neighbor_cooccurrence_curve, random_collision_probability
from .external import normalized_mutual_information, adjusted_rand_index, cluster_size_histogram

__all__ = [
    "average_distortion",
    "within_cluster_sum_of_squares",
    "neighbor_cooccurrence_curve",
    "random_collision_probability",
    "normalized_mutual_information",
    "adjusted_rand_index",
    "cluster_size_histogram",
]
