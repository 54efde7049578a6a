"""Tests for the estimator base class, result containers and initialisation
strategies."""

import tracemalloc

import numpy as np
import pytest

from repro.cluster import (ClosureKMeans, KMeans, MiniBatchKMeans,
                           kmeans_plus_plus_init, labels_to_centroids,
                           random_init)
from repro.cluster.base import ClusteringResult, IterationRecord
from repro.cluster.initialization import resolve_init
from repro.exceptions import NotFittedError, ValidationError


class TestBaseClusterer:
    def test_unfitted_access_raises(self):
        model = KMeans(3)
        with pytest.raises(NotFittedError):
            _ = model.labels_
        with pytest.raises(NotFittedError):
            model.predict(np.zeros((2, 2)))

    def test_fit_predict_equivalence(self, blob_data):
        data, _ = blob_data
        model = KMeans(6, random_state=0)
        labels = model.fit_predict(data)
        assert np.array_equal(labels, model.labels_)

    def test_predict_new_samples(self, blob_data):
        data, _ = blob_data
        model = KMeans(6, random_state=0).fit(data)
        predictions = model.predict(data[:10] + 0.001)
        assert predictions.shape == (10,)
        assert np.array_equal(predictions, model.labels_[:10])

    def test_inertia_matches_distortion(self, blob_data):
        data, _ = blob_data
        model = KMeans(6, random_state=0).fit(data)
        assert model.inertia_ == pytest.approx(
            model.distortion_ * data.shape[0])

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValidationError):
            KMeans(10).fit(np.zeros((5, 2)))

    def test_repr(self):
        assert "KMeans" in repr(KMeans(4))

    def test_history_types(self, blob_data):
        data, _ = blob_data
        model = KMeans(6, random_state=0).fit(data)
        assert all(isinstance(r, IterationRecord) for r in model.history_)
        assert model.n_iter_ == len(model.history_)


class TestClusteringResult:
    def _result(self):
        history = [IterationRecord(0, 5.0, 0.1, 3),
                   IterationRecord(1, 4.0, 0.2, 1)]
        return ClusteringResult(labels=np.array([0, 1]),
                                centroids=np.zeros((2, 2)),
                                distortion=4.0, history=history,
                                init_seconds=1.0, iteration_seconds=2.0)

    def test_curves(self):
        result = self._result()
        iterations, distortions = result.distortion_curve()
        assert iterations.tolist() == [0, 1]
        assert distortions.tolist() == [5.0, 4.0]
        seconds, _ = result.time_curve()
        assert seconds.tolist() == [0.1, 0.2]

    def test_totals(self):
        result = self._result()
        assert result.total_seconds == pytest.approx(3.0)
        assert result.n_iterations == 2
        assert result.n_clusters == 2


class TestInitialization:
    def test_random_init_selects_rows(self, blob_data):
        data, _ = blob_data
        centers = random_init(data, 5, random_state=0)
        assert centers.shape == (5, data.shape[1])
        for center in centers:
            assert np.any(np.all(np.isclose(data, center), axis=1))

    def test_random_init_distinct(self, blob_data):
        data, _ = blob_data
        centers = random_init(data, 10, random_state=0)
        assert len(np.unique(centers, axis=0)) == 10

    def test_kmeans_plus_plus_spreads_centers(self, blob_data):
        """k-means++ should land centres in distinct true blobs more often
        than uniform random selection."""
        data, labels = blob_data
        plus = kmeans_plus_plus_init(data, 6, random_state=0)
        covered = set()
        for center in plus:
            row = int(np.argmin(((data - center) ** 2).sum(axis=1)))
            covered.add(int(labels[row]))
        assert len(covered) >= 5

    def test_kmeans_plus_plus_handles_duplicates(self):
        data = np.zeros((20, 3))
        centers = kmeans_plus_plus_init(data, 4, random_state=0)
        assert centers.shape == (4, 3)

    def test_labels_to_centroids_means(self):
        data = np.array([[0.0, 0.0], [2.0, 2.0], [10.0, 10.0]])
        labels = np.array([0, 0, 1])
        centroids = labels_to_centroids(data, labels, 2)
        assert np.allclose(centroids[0], [1.0, 1.0])
        assert np.allclose(centroids[1], [10.0, 10.0])

    def test_labels_to_centroids_reseeds_empty(self):
        data = np.arange(12, dtype=float).reshape(6, 2)
        labels = np.zeros(6, dtype=np.int64)
        centroids = labels_to_centroids(data, labels, 3, rng=0)
        assert centroids.shape == (3, 2)
        # empty clusters got a data row rather than remaining zero
        assert not np.allclose(centroids[1], 0.0) or np.any(
            np.all(data == 0.0, axis=1))

    def test_resolve_init_strings_and_arrays(self, blob_data):
        data, _ = blob_data
        rng = np.random.default_rng(0)
        assert resolve_init("random", data, 4, rng).shape == (4, data.shape[1])
        assert resolve_init("k-means++", data, 4, rng).shape == (4, data.shape[1])
        explicit = data[:4].copy()
        assert np.allclose(resolve_init(explicit, data, 4, rng), explicit)

    def test_resolve_init_bad_string(self, blob_data):
        data, _ = blob_data
        with pytest.raises(ValidationError):
            resolve_init("magic", data, 3, np.random.default_rng(0))

    def test_resolve_init_bad_shape(self, blob_data):
        data, _ = blob_data
        with pytest.raises(ValidationError):
            resolve_init(np.zeros((2, 2)), data, 3, np.random.default_rng(0))

    @pytest.mark.parametrize("estimator", [KMeans, MiniBatchKMeans,
                                           ClosureKMeans])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_explicit_init_must_be_finite(self, blob_data, estimator, bad):
        data, _ = blob_data
        init = data[:4].copy()
        init[2, 1] = bad
        with pytest.raises(ValidationError, match="init"):
            resolve_init(init, data, 4, np.random.default_rng(0))
        with pytest.raises(ValidationError, match="init"):
            estimator(4, init=init, random_state=0).fit(data)

    def test_labels_to_centroids_rejects_labels_beyond_k(self):
        data = np.arange(12, dtype=float).reshape(6, 2)
        with pytest.raises(ValidationError, match="cluster 3"):
            labels_to_centroids(data, np.array([0, 1, 2, 3, 0, 1]), 3)
        with pytest.raises(ValidationError):
            labels_to_centroids(data, np.array([0, 1, -1, 0, 0, 1]), 3)

    def test_labels_to_centroids_float32_is_the_float64_mean(self):
        rng = np.random.default_rng(3)
        data = (100 * rng.normal(size=(500, 37))).astype(np.float32)
        labels = rng.integers(0, 20, size=500)
        sums = np.zeros((20, 37))
        np.add.at(sums, labels, data.astype(np.float64))
        counts = np.bincount(labels, minlength=20)
        centroids = labels_to_centroids(data, labels, 20)
        assert centroids.dtype == np.float64
        assert np.array_equal(centroids, sums / counts[:, None])

    def test_labels_to_centroids_does_not_copy_float32_data(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(20000, 64)).astype(np.float32)
        labels = rng.integers(0, 1000, size=20000)
        tracemalloc.start()
        try:
            labels_to_centroids(data, labels, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < data.nbytes
