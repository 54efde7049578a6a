"""Tests for boost k-means, the two-means tree (Alg. 1) and bisecting
k-means."""

import numpy as np
import pytest

from repro.cluster import BisectingKMeans, BoostKMeans, KMeans, TwoMeansTree, two_means_labels
from repro.exceptions import ValidationError
from repro.metrics import (
    average_distortion,
    cluster_size_histogram,
    normalized_mutual_information,
)


class TestBoostKMeans:
    def test_objective_never_decreases_across_sweeps(self, blob_data):
        data, _ = blob_data
        model = BoostKMeans(6, random_state=0, max_iter=10).fit(data)
        _, distortions = model.result_.distortion_curve()
        assert np.all(np.diff(distortions) <= 1e-9)

    def test_matches_or_beats_lloyd_distortion(self, blob_data):
        """The paper's premise: BKM converges to a better (or equal) local
        optimum than plain Lloyd."""
        data, _ = blob_data
        lloyd = KMeans(8, random_state=0, max_iter=30).fit(data)
        boost = BoostKMeans(8, random_state=0, max_iter=30).fit(data)
        assert boost.distortion_ <= lloyd.distortion_ * 1.05

    def test_recovers_blobs(self, blob_data):
        data, truth = blob_data
        model = BoostKMeans(6, random_state=0, max_iter=20).fit(data)
        assert normalized_mutual_information(model.labels_, truth) > 0.9

    def test_no_empty_clusters(self, blob_data):
        data, _ = blob_data
        model = BoostKMeans(10, random_state=1, max_iter=10).fit(data)
        sizes = cluster_size_histogram(model.labels_, 10)
        assert sizes["n_empty"] == 0

    def test_converges_and_stops_early(self, blob_data):
        data, _ = blob_data
        model = BoostKMeans(6, random_state=0, max_iter=100).fit(data)
        assert model.result_.converged
        assert model.n_iter_ < 100

    def test_init_labels_respected(self, blob_data):
        data, truth = blob_data
        model = BoostKMeans(6, init_labels=truth, random_state=0,
                            max_iter=5).fit(data)
        # starting from the truth, it should stay essentially at the truth
        assert normalized_mutual_information(model.labels_, truth) > 0.95

    @pytest.mark.parametrize("label", [1.9, 1.99999])
    def test_fractional_init_labels_rejected(self, blob_data, label):
        data, truth = blob_data
        init = truth.astype(float)
        init[3] = label                  # would truncate to cluster 1
        with pytest.raises(ValidationError, match="integers"):
            BoostKMeans(6, init_labels=init, max_iter=1).fit(data)

    def test_reported_distortion_consistent(self, blob_data):
        data, _ = blob_data
        model = BoostKMeans(6, random_state=0, max_iter=10).fit(data)
        assert model.distortion_ == pytest.approx(
            average_distortion(data, model.labels_), rel=1e-9)

    def test_predict_uses_centroids(self, blob_data):
        data, _ = blob_data
        model = BoostKMeans(6, random_state=0, max_iter=10).fit(data)
        assert model.predict(data[:5]).shape == (5,)


class TestTwoMeansLabels:
    def test_produces_k_nonempty_clusters(self, sift_small):
        labels = two_means_labels(sift_small, 12, random_state=0)
        assert len(np.unique(labels)) == 12

    def test_equal_size_property(self, sift_small):
        labels = two_means_labels(sift_small, 8, random_state=0,
                                  equal_size=True)
        counts = np.bincount(labels, minlength=8)
        # equal-size bisections keep every leaf within a factor ~2 of n/k
        assert counts.max() <= 2 * (len(sift_small) // 8) + 2
        assert counts.min() >= (len(sift_small) // 8) // 2 - 1

    def test_without_equal_size_more_imbalanced(self, sift_small):
        balanced = two_means_labels(sift_small, 8, random_state=0,
                                    equal_size=True)
        unbalanced = two_means_labels(sift_small, 8, random_state=0,
                                      equal_size=False)
        std_balanced = np.bincount(balanced, minlength=8).std()
        std_unbalanced = np.bincount(unbalanced, minlength=8).std()
        assert std_balanced <= std_unbalanced + 1e-9

    @pytest.mark.parametrize("keyword", ["bisection", "bisect_iter"])
    def test_retired_keywords_are_refused(self, sift_small, keyword):
        with pytest.raises(TypeError, match=keyword):
            two_means_labels(sift_small, 4, **{keyword: 4})
        with pytest.raises(TypeError, match=keyword):
            TwoMeansTree(4, **{keyword: 4})

    def test_k_equals_n(self):
        data = np.random.default_rng(0).normal(size=(8, 3))
        labels = two_means_labels(data, 8, random_state=0)
        assert len(np.unique(labels)) == 8

    def test_k_equals_one(self, sift_small):
        labels = two_means_labels(sift_small, 1, random_state=0)
        assert np.all(labels == 0)

    def test_reproducible(self, sift_small):
        a = two_means_labels(sift_small, 6, random_state=4)
        b = two_means_labels(sift_small, 6, random_state=4)
        assert np.array_equal(a, b)


class TestTwoMeansTree:
    def test_estimator_interface(self, sift_small):
        model = TwoMeansTree(10, random_state=0).fit(sift_small)
        assert model.labels_.shape == (len(sift_small),)
        assert model.cluster_centers_.shape == (10, sift_small.shape[1])
        assert model.distortion_ > 0

    def test_better_than_random_partition(self, sift_small):
        model = TwoMeansTree(10, random_state=0).fit(sift_small)
        rng = np.random.default_rng(0)
        random_labels = rng.integers(0, 10, size=len(sift_small))
        assert model.distortion_ < average_distortion(sift_small,
                                                      random_labels)

    def test_cluster_sizes_reported(self, sift_small):
        model = TwoMeansTree(10, random_state=0).fit(sift_small)
        sizes = model.result_.extra["cluster_sizes"]
        assert sizes.sum() == len(sift_small)

    def test_many_clusters_stay_balanced(self, sift_small):
        """With k = 30 the equal-size bisections must still produce exactly k
        non-empty, roughly balanced leaves (the property GK-means'
        initialisation and Alg. 3's ξ-sized clusters rely on)."""
        tree = TwoMeansTree(30, random_state=0).fit(sift_small)
        counts = np.bincount(tree.labels_, minlength=30)
        assert (counts > 0).all()
        assert counts.max() <= 3 * counts.min() + 3


class TestBisectingKMeans:
    def test_produces_k_clusters(self, blob_data):
        data, _ = blob_data
        model = BisectingKMeans(6, random_state=0).fit(data)
        assert len(np.unique(model.labels_)) == 6

    def test_recovers_blob_structure(self, blob_data):
        data, truth = blob_data
        model = BisectingKMeans(6, random_state=0).fit(data)
        assert normalized_mutual_information(model.labels_, truth) > 0.8

    def test_sse_criterion_no_worse_than_size(self, blob_data):
        data, _ = blob_data
        by_sse = BisectingKMeans(6, split_criterion="sse",
                                 random_state=0).fit(data)
        by_size = BisectingKMeans(6, split_criterion="size",
                                  random_state=0).fit(data)
        assert by_sse.distortion_ <= by_size.distortion_ * 1.5

    def test_single_cluster(self, blob_data):
        data, _ = blob_data
        model = BisectingKMeans(1, random_state=0).fit(data)
        assert np.all(model.labels_ == 0)

    def test_zero_bisect_iter_rejected(self, blob_data):
        data, _ = blob_data
        with pytest.raises(ValidationError, match="bisect_iter"):
            BisectingKMeans(4, bisect_iter=0, random_state=0).fit(data)
