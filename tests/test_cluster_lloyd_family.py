"""Tests for Lloyd k-means and Mini-Batch."""

import numpy as np
import pytest

from repro.cluster import KMeans, MiniBatchKMeans
from repro.metrics import average_distortion, normalized_mutual_information


class TestKMeans:
    def test_recovers_well_separated_blobs(self, blob_data):
        data, truth = blob_data
        model = KMeans(6, init="k-means++", random_state=0).fit(data)
        assert normalized_mutual_information(model.labels_, truth) > 0.9

    def test_distortion_monotonically_non_increasing(self, blob_data):
        data, _ = blob_data
        model = KMeans(6, random_state=1, tol=0.0, max_iter=15).fit(data)
        _, distortions = model.result_.distortion_curve()
        assert np.all(np.diff(distortions) <= 1e-9)

    def test_reported_distortion_matches_metric(self, blob_data):
        data, _ = blob_data
        model = KMeans(6, random_state=0).fit(data)
        assert model.distortion_ == pytest.approx(
            average_distortion(data, model.labels_, model.cluster_centers_))

    def test_labels_in_range(self, blob_data):
        data, _ = blob_data
        model = KMeans(6, random_state=0).fit(data)
        assert model.labels_.min() >= 0
        assert model.labels_.max() < 6

    def test_converged_flag(self, blob_data):
        data, _ = blob_data
        model = KMeans(6, random_state=0, max_iter=200).fit(data)
        assert model.result_.converged

    def test_distance_counting(self, blob_data):
        data, _ = blob_data
        model = KMeans(6, random_state=0, max_iter=3, tol=0.0).fit(data)
        evaluations = model.result_.extra["n_distance_evaluations"]
        # every iteration plus the final assignment scores n * k pairs
        assert evaluations == (model.n_iter_ + 1) * data.shape[0] * 6

    def test_retired_count_distances_keyword_is_refused(self):
        with pytest.raises(TypeError, match="count_distances"):
            KMeans(6, count_distances=True)

    def test_reproducible(self, blob_data):
        data, _ = blob_data
        a = KMeans(6, random_state=3).fit(data)
        b = KMeans(6, random_state=3).fit(data)
        assert np.array_equal(a.labels_, b.labels_)

    def test_explicit_init(self, blob_data):
        data, _ = blob_data
        init = data[:6].copy()
        model = KMeans(6, init=init, random_state=0, max_iter=1, tol=0.0).fit(data)
        assert model.cluster_centers_.shape == (6, data.shape[1])

    def test_single_cluster(self, blob_data):
        data, _ = blob_data
        model = KMeans(1, random_state=0).fit(data)
        assert np.all(model.labels_ == 0)
        assert np.allclose(model.cluster_centers_[0], data.mean(axis=0),
                           atol=1e-8)


class TestMiniBatch:
    def test_runs_and_produces_reasonable_quality(self, blob_data):
        data, truth = blob_data
        model = MiniBatchKMeans(6, batch_size=64, max_iter=40,
                                random_state=0).fit(data)
        assert normalized_mutual_information(model.labels_, truth) > 0.5

    def test_worse_or_equal_to_full_kmeans(self, blob_data):
        """Mini-Batch should not beat full Lloyd on final distortion (the
        paper's observation that its quality is the weakest)."""
        data, _ = blob_data
        lloyd = KMeans(6, init="k-means++", random_state=0, max_iter=30).fit(data)
        minibatch = MiniBatchKMeans(6, batch_size=32, init="k-means++",
                                    max_iter=30, random_state=0).fit(data)
        assert minibatch.distortion_ >= lloyd.distortion_ - 1e-9

    def test_history_recorded_with_record_every(self, blob_data):
        data, _ = blob_data
        model = MiniBatchKMeans(6, batch_size=32, max_iter=10, record_every=5,
                                random_state=0).fit(data)
        assert 1 <= model.n_iter_ <= 3

    def test_batch_larger_than_dataset_clamped(self, blob_data):
        data, _ = blob_data
        model = MiniBatchKMeans(4, batch_size=10_000, max_iter=3,
                                random_state=0).fit(data)
        assert model.labels_.shape == (data.shape[0],)

    def test_fast_per_iteration(self, blob_data):
        data, _ = blob_data
        model = MiniBatchKMeans(6, batch_size=32, max_iter=5,
                                random_state=0).fit(data)
        assert model.result_.iteration_seconds < 5.0
