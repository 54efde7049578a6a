"""Tests for the closure k-means baseline (Wang et al. 2012)."""

import numpy as np
import pytest

from repro.cluster import ClosureKMeans, KMeans
from repro.cluster.closure import build_random_partitions
from repro.metrics import normalized_mutual_information
from repro.exceptions import ValidationError


class TestRandomPartitions:
    def test_partitions_cover_all_points(self, sift_small):
        partitions = build_random_partitions(sift_small, n_partitions=3,
                                              leaf_size=40, random_state=0)
        assert len(partitions) == 3
        for leaves in partitions:
            covered = np.concatenate(leaves)
            assert len(covered) == len(sift_small)
            assert len(np.unique(covered)) == len(sift_small)

    def test_leaf_sizes_bounded(self, sift_small):
        partitions = build_random_partitions(sift_small, n_partitions=2,
                                              leaf_size=30, random_state=0)
        for leaves in partitions:
            assert max(len(leaf) for leaf in leaves) <= 30

    def test_leaves_are_spatially_coherent(self, blob_data):
        """Points sharing a leaf should mostly come from the same blob."""
        data, labels = blob_data
        partitions = build_random_partitions(data, n_partitions=1,
                                              leaf_size=20, random_state=0)
        purities = []
        for leaf in partitions[0]:
            if len(leaf) < 2:
                continue
            counts = np.bincount(labels[leaf])
            purities.append(counts.max() / len(leaf))
        assert np.mean(purities) > 0.6

    def test_degenerate_identical_points(self):
        data = np.zeros((50, 4))
        partitions = build_random_partitions(data, n_partitions=1,
                                              leaf_size=10, random_state=0)
        covered = np.concatenate(partitions[0])
        assert len(covered) == 50

    def test_invalid_leaf_size(self, sift_small):
        with pytest.raises(ValidationError):
            build_random_partitions(sift_small, leaf_size=1)

    @pytest.mark.parametrize("seed", ["abc", 1.5])
    def test_invalid_random_state(self, sift_small, seed):
        with pytest.raises(ValidationError, match="random_state"):
            build_random_partitions(sift_small, random_state=seed)


class TestClosureKMeans:
    def test_recovers_blobs(self, blob_data):
        data, truth = blob_data
        model = ClosureKMeans(6, init="k-means++", random_state=0).fit(data)
        assert normalized_mutual_information(model.labels_, truth) > 0.85

    def test_distortion_close_to_lloyd(self, blob_data):
        data, _ = blob_data
        lloyd = KMeans(6, init="k-means++", random_state=0).fit(data)
        closure = ClosureKMeans(6, init="k-means++", random_state=0).fit(data)
        assert closure.distortion_ <= lloyd.distortion_ * 1.5

    def test_history_and_convergence(self, blob_data):
        data, _ = blob_data
        model = ClosureKMeans(6, random_state=0, max_iter=50).fit(data)
        assert model.result_.converged
        _, distortions = model.result_.distortion_curve()
        assert distortions[-1] <= distortions[0] + 1e-9

    def test_labels_valid(self, sift_small):
        model = ClosureKMeans(15, random_state=0, max_iter=10).fit(sift_small)
        assert model.labels_.min() >= 0
        assert model.labels_.max() < 15

    def test_more_partitions_no_worse(self, sift_small):
        few = ClosureKMeans(15, n_partitions=1, random_state=0,
                            max_iter=15).fit(sift_small)
        many = ClosureKMeans(15, n_partitions=4, random_state=0,
                             max_iter=15).fit(sift_small)
        assert many.distortion_ <= few.distortion_ * 1.2

    def test_reproducible(self, sift_small):
        a = ClosureKMeans(10, random_state=2, max_iter=5).fit(sift_small)
        b = ClosureKMeans(10, random_state=2, max_iter=5).fit(sift_small)
        assert np.array_equal(a.labels_, b.labels_)

    def test_timing_split_recorded(self, sift_small):
        model = ClosureKMeans(10, random_state=0, max_iter=5).fit(sift_small)
        assert model.result_.init_seconds > 0
        assert model.result_.iteration_seconds > 0
