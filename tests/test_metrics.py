"""Tests for distortion, co-occurrence and external metrics."""


import numpy as np
import pytest

from repro.cluster import KMeans, TwoMeansTree
from repro.metrics import (
    adjusted_rand_index,
    average_distortion,
    cluster_size_histogram,
    neighbor_cooccurrence_curve,
    normalized_mutual_information,
    random_collision_probability,
    within_cluster_sum_of_squares,
)
from repro.exceptions import ValidationError


class TestDistortion:
    def test_known_value(self):
        data = np.array([[0.0], [2.0], [10.0], [12.0]])
        labels = np.array([0, 0, 1, 1])
        # centroids 1 and 11 -> every point is 1 away -> squared 1
        assert average_distortion(data, labels) == pytest.approx(1.0)
        assert within_cluster_sum_of_squares(data, labels) == pytest.approx(4.0)

    def test_perfect_clustering_zero(self):
        data = np.array([[1.0, 1.0], [1.0, 1.0], [5.0, 5.0]])
        labels = np.array([0, 0, 1])
        assert average_distortion(data, labels) == pytest.approx(0.0)

    def test_with_explicit_centroids(self):
        data = np.array([[0.0], [2.0]])
        labels = np.array([0, 0])
        centroids = np.array([[0.0]])
        assert average_distortion(data, labels, centroids) == pytest.approx(2.0)

    def test_centroid_index_out_of_range(self):
        with pytest.raises(ValidationError):
            within_cluster_sum_of_squares(np.zeros((2, 1)),
                                          np.array([0, 5]),
                                          np.zeros((2, 1)))

    def test_fewer_clusters_never_lower_distortion(self, blob_data):
        data, _ = blob_data
        few = KMeans(2, init="k-means++", random_state=0).fit(data)
        many = KMeans(12, init="k-means++", random_state=0).fit(data)
        assert many.distortion_ <= few.distortion_


class TestCooccurrence:
    def test_fig1_property_near_neighbors_cooccur(self, sift_small,
                                                  sift_small_graph):
        """The paper's Fig. 1: co-occurrence probability is far above chance
        and decreases with neighbour rank."""
        model = TwoMeansTree(len(sift_small) // 50, random_state=0).fit(sift_small)
        curve = neighbor_cooccurrence_curve(model.labels_, sift_small_graph)
        chance = random_collision_probability(model.labels_)
        assert curve[0] > 5 * chance
        # broadly decreasing: rank-1 co-occurrence above the tail average
        assert curve[0] > curve[-3:].mean()

    def test_single_cluster_curve_is_one(self, sift_small, sift_small_graph):
        labels = np.zeros(len(sift_small), dtype=int)
        curve = neighbor_cooccurrence_curve(labels, sift_small_graph)
        assert np.allclose(curve, 1.0)
        assert random_collision_probability(labels) == pytest.approx(1.0)

    def test_max_rank_truncation(self, sift_small, sift_small_graph):
        labels = np.zeros(len(sift_small), dtype=int)
        curve = neighbor_cooccurrence_curve(labels, sift_small_graph,
                                            max_rank=3)
        assert curve.shape == (3,)

    def test_random_collision_equal_clusters(self):
        labels = np.repeat(np.arange(10), 50)  # 10 clusters of 50 in n=500
        probability = random_collision_probability(labels)
        assert probability == pytest.approx(49 / 499, rel=1e-9)


class TestExternalMetrics:
    def test_nmi_perfect_agreement(self):
        labels = np.array([0, 0, 1, 1, 2, 2])
        assert normalized_mutual_information(labels, labels) == pytest.approx(1.0)

    def test_nmi_permutation_invariant(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        b = np.array([2, 2, 0, 0, 1, 1])
        assert normalized_mutual_information(a, b) == pytest.approx(1.0)

    def test_nmi_independent_labels_low(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 4, 2000)
        b = rng.integers(0, 4, 2000)
        assert normalized_mutual_information(a, b) < 0.05

    def test_ari_perfect_and_random(self):
        a = np.array([0, 0, 1, 1])
        assert adjusted_rand_index(a, a) == pytest.approx(1.0)
        rng = np.random.default_rng(1)
        x = rng.integers(0, 3, 3000)
        y = rng.integers(0, 3, 3000)
        assert abs(adjusted_rand_index(x, y)) < 0.05

    def test_ari_single_cluster_vs_itself(self):
        labels = np.zeros(5, dtype=int)
        assert adjusted_rand_index(labels, labels) == pytest.approx(1.0)

    def test_cluster_size_histogram(self):
        labels = np.array([0, 0, 0, 1, 2, 2])
        stats = cluster_size_histogram(labels, n_clusters=4)
        assert stats["n_clusters"] == 4
        assert stats["n_empty"] == 1
        assert stats["min"] == 0
        assert stats["max"] == 3
        assert stats["mean"] == pytest.approx(1.5)
