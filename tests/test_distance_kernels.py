"""Unit and property-based tests for the squared-Euclidean distance kernels
(``DistanceEngine("sqeuclidean")``) and the norm helpers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.distance import (
    DistanceCounter,
    DistanceEngine,
    normalize_rows,
    squared_norms,
)

finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False,
                          allow_infinity=False, width=64)

ENGINE = DistanceEngine("sqeuclidean")


def small_matrix(max_rows=8, max_cols=6):
    return arrays(np.float64,
                  st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)),
                  elements=finite_floats)


class TestSquaredEuclidean:
    def test_simple(self):
        assert ENGINE.rowwise([0, 0], [3, 4])[0] == pytest.approx(25.0)

    def test_zero_distance(self):
        assert ENGINE.rowwise([1.5, 2.5], [1.5, 2.5])[0] == 0.0

    def test_symmetric(self):
        a, b = np.array([1.0, 2.0, 3.0]), np.array([-1.0, 0.5, 2.0])
        assert ENGINE.rowwise(a, b) == pytest.approx(ENGINE.rowwise(b, a))


class TestCrossSquaredEuclidean:
    def test_matches_naive(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=(5, 3)), rng.normal(size=(7, 3))
        expected = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(ENGINE.cross(a, b), expected)

    def test_precomputed_norms_equivalent(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(4, 6)), rng.normal(size=(3, 6))
        plain = ENGINE.cross(a, b)
        with_norms = ENGINE.cross(a, b, squared_norms(a), squared_norms(b))
        assert np.allclose(plain, with_norms)

    def test_never_negative(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(10, 4)) * 1e-8
        assert (ENGINE.cross(a, a) >= 0).all()

    def test_single_vectors(self):
        out = ENGINE.cross(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(2.0)

    @settings(max_examples=40, deadline=None)
    @given(small_matrix(), small_matrix())
    def test_property_matches_naive(self, a, b):
        if a.shape[1] != b.shape[1]:
            b = np.resize(b, (b.shape[0], a.shape[1]))
        expected = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2)
        assert np.allclose(ENGINE.cross(a, b), expected,
                           atol=1e-6, rtol=1e-6)


class TestPairwise:
    def test_zero_diagonal(self):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(6, 4))
        distances = ENGINE.pairwise(data)
        assert np.allclose(np.diag(distances), 0.0)

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        data = rng.normal(size=(6, 4))
        distances = ENGINE.pairwise(data)
        assert np.allclose(distances, distances.T, atol=1e-9)

    def test_within_block_subset(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(10, 3))
        members = np.array([1, 4, 7])
        block = ENGINE.pairwise(data[members])
        full = ENGINE.pairwise(data)
        assert np.allclose(block, full[np.ix_(members, members)])


class TestAssignToNearest:
    def test_matches_bruteforce(self):
        rng = np.random.default_rng(6)
        data, centroids = rng.normal(size=(50, 4)), rng.normal(size=(7, 4))
        labels, distances = ENGINE.assign_to_nearest(data, centroids)
        full = ENGINE.cross(data, centroids)
        assert np.array_equal(labels, np.argmin(full, axis=1))
        assert np.allclose(distances, full.min(axis=1))

    def test_block_size_invariance(self):
        rng = np.random.default_rng(7)
        data, centroids = rng.normal(size=(33, 5)), rng.normal(size=(4, 5))
        labels_a, dist_a = ENGINE.assign_to_nearest(data, centroids,
                                                    block_size=8)
        labels_b, dist_b = ENGINE.assign_to_nearest(data, centroids,
                                                    block_size=1000)
        assert np.array_equal(labels_a, labels_b)
        assert np.allclose(dist_a, dist_b)

    def test_counter_accumulates(self):
        rng = np.random.default_rng(8)
        data, centroids = rng.normal(size=(20, 3)), rng.normal(size=(5, 3))
        counter = DistanceCounter()
        ENGINE.assign_to_nearest(data, centroids, counter=counter)
        assert counter.count == 20 * 5
        counter.reset()
        assert counter.count == 0

    def test_exact_for_identical_points(self):
        data = np.zeros((4, 3))
        centroids = np.array([[0.0, 0.0, 0.0], [5.0, 5.0, 5.0]])
        labels, distances = ENGINE.assign_to_nearest(data, centroids)
        assert (labels == 0).all()
        assert np.allclose(distances, 0.0)

    def test_nearest_among_a_candidate_subset(self):
        data = np.array([[0.0, 0.0], [10.0, 10.0]])
        candidates = np.array([[9.0, 9.0], [1.0, 1.0], [20.0, 20.0]])
        candidate_ids = np.array([3, 8, 2])
        (best,), (best_dist,) = ENGINE.assign_to_nearest(data[:1], candidates)
        assert candidate_ids[best] == 8
        assert best_dist == pytest.approx(2.0)


class TestNorms:
    def test_squared_norms_matches_naive(self):
        rng = np.random.default_rng(9)
        data = rng.normal(size=(6, 5))
        assert np.allclose(squared_norms(data), (data ** 2).sum(axis=1))

    def test_squared_norms_single_vector(self):
        assert squared_norms(np.array([3.0, 4.0]))[0] == pytest.approx(25.0)

    def test_normalize_rows_unit_length(self):
        rng = np.random.default_rng(10)
        data = rng.normal(size=(8, 4))
        normalized = normalize_rows(data)
        assert np.allclose(squared_norms(normalized), 1.0)

    def test_normalize_rows_zero_row_untouched(self):
        data = np.array([[0.0, 0.0], [3.0, 4.0]])
        normalized = normalize_rows(data)
        assert np.allclose(normalized[0], 0.0)

    def test_normalize_rows_copy_semantics(self):
        data = np.array([[3.0, 4.0]])
        normalize_rows(data, copy=True)
        assert np.allclose(data, [[3.0, 4.0]])

    @settings(max_examples=30, deadline=None)
    @given(small_matrix())
    def test_property_norm_nonnegative(self, data):
        assert (squared_norms(data) >= 0).all()
