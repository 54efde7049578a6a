"""Parity and property tests for the pluggable DistanceEngine.

Every blocked kernel is checked against a naive per-pair reference loop for
every metric × dtype combination, including the degenerate inputs that blocked
code tends to get wrong (duplicate rows, zero vectors, ``block_size=1``,
``n < block_size``).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.distance import (
    METRICS,
    DistanceCounter,
    DistanceEngine,
    cross_squared_euclidean,
    resolve_dtype,
    resolve_metric,
)
from repro.exceptions import ValidationError

DTYPES = [np.float64, np.float32]

#: Absolute tolerance per dtype for parity against the float64 reference.
ATOL = {np.float64: 1e-8, np.float32: 1e-3}


def naive_distance(metric: str, x: np.ndarray, y: np.ndarray) -> float:
    """Scalar reference implementation (float64, no expansions)."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if metric == "sqeuclidean":
        return float(((x - y) ** 2).sum())
    if metric == "dot":
        return float(-(x @ y))
    nx = np.linalg.norm(x) or 1.0
    ny = np.linalg.norm(y) or 1.0
    # Clipped to the engine's documented cosine range: dividing by a
    # precision-starved subnormal norm can land just outside [0, 2].
    return float(np.clip(1.0 - (x @ y) / (nx * ny), 0.0, 2.0))


def naive_cross(metric: str, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.empty((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            out[i, j] = naive_distance(metric, a[i], b[j])
    return out


@pytest.fixture(scope="module")
def matrices():
    rng = np.random.default_rng(42)
    a = rng.normal(size=(13, 6))
    b = rng.normal(size=(9, 6))
    return a, b


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("dtype", DTYPES)
class TestCrossParity:
    def test_matches_naive(self, metric, dtype, matrices):
        a, b = matrices
        engine = DistanceEngine(metric, dtype)
        result = engine.cross(a, b)
        assert result.dtype == np.dtype(dtype)
        assert np.allclose(result, naive_cross(metric, a, b),
                           atol=ATOL[dtype])

    def test_precomputed_norms_equivalent(self, metric, dtype, matrices):
        a, b = matrices
        engine = DistanceEngine(metric, dtype)
        a32, b32 = engine.prepare(a), engine.prepare(b)
        plain = engine.cross(a32, b32)
        cached = engine.cross(a32, b32, a_norms=engine.norms(a32),
                              b_norms=engine.norms(b32))
        assert np.allclose(plain, cached, atol=ATOL[dtype])

    def test_duplicate_rows(self, metric, dtype):
        rng = np.random.default_rng(0)
        row = rng.normal(size=5)
        a = np.stack([row, row, rng.normal(size=5)])
        engine = DistanceEngine(metric, dtype)
        result = engine.cross(a, a)
        assert np.allclose(result, naive_cross(metric, a, a),
                           atol=ATOL[dtype])
        # duplicate rows are at self-distance from each other
        assert result[0, 1] == pytest.approx(naive_distance(metric, row, row),
                                             abs=ATOL[dtype])

    def test_zero_vectors(self, metric, dtype):
        a = np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0]])
        engine = DistanceEngine(metric, dtype)
        result = engine.cross(a, a)
        assert np.allclose(result, naive_cross(metric, a, a),
                           atol=ATOL[dtype])
        if metric == "cosine":
            # zero vectors are treated as orthogonal to everything
            assert result[0, 1] == pytest.approx(1.0)

    def test_single_vectors(self, metric, dtype):
        engine = DistanceEngine(metric, dtype)
        out = engine.cross(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(
            naive_distance(metric, [1.0, 0.0], [0.0, 1.0]), abs=ATOL[dtype])


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("dtype", DTYPES)
class TestPairwiseAndRowwise:
    def test_pairwise_matches_naive_off_diagonal(self, metric, dtype,
                                                 matrices):
        a, _ = matrices
        engine = DistanceEngine(metric, dtype)
        result = engine.pairwise(a)
        expected = naive_cross(metric, a, a)
        off = ~np.eye(a.shape[0], dtype=bool)
        assert np.allclose(result[off], expected[off], atol=ATOL[dtype])

    def test_pairwise_diagonal_convention(self, metric, dtype, matrices):
        a, _ = matrices
        engine = DistanceEngine(metric, dtype)
        diag = np.diag(engine.pairwise(a))
        if metric == "dot":
            assert np.allclose(diag, [naive_distance("dot", r, r) for r in a],
                               atol=ATOL[dtype])
        else:
            assert np.allclose(diag, 0.0)

    def test_rowwise_matches_naive(self, metric, dtype, matrices):
        a, b = matrices
        engine = DistanceEngine(metric, dtype)
        rows = engine.rowwise(a[:9], b)
        expected = [naive_distance(metric, x, y) for x, y in zip(a[:9], b)]
        assert np.allclose(rows, expected, atol=ATOL[dtype])

    def test_pair_scalar(self, metric, dtype, matrices):
        a, b = matrices
        engine = DistanceEngine(metric, dtype)
        assert engine.pair(a[0], b[0]) == pytest.approx(
            naive_distance(metric, a[0], b[0]), abs=ATOL[dtype])


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("dtype", DTYPES)
class TestAssignToNearest:
    def test_matches_naive_reference(self, metric, dtype):
        rng = np.random.default_rng(6)
        data = rng.normal(size=(50, 4))
        centroids = rng.normal(size=(7, 4))
        engine = DistanceEngine(metric, dtype)
        labels, best = engine.assign_to_nearest(data, centroids)
        full = naive_cross(metric, data, centroids)
        # the reported distance must be the row minimum, and the chosen label
        # must achieve it (ties may break either way across dtypes)
        assert np.allclose(best, full.min(axis=1), atol=ATOL[dtype])
        assert np.allclose(full[np.arange(50), labels], full.min(axis=1),
                           atol=ATOL[dtype])

    @pytest.mark.parametrize("block_size", [1, 7, 1000])
    def test_block_size_invariance(self, metric, dtype, block_size):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(33, 5))
        centroids = rng.normal(size=(4, 5))
        engine = DistanceEngine(metric, dtype)
        labels_a, dist_a = engine.assign_to_nearest(data, centroids,
                                                    block_size=block_size)
        labels_b, dist_b = engine.assign_to_nearest(data, centroids,
                                                    block_size=10_000)
        assert np.array_equal(labels_a, labels_b)
        assert np.allclose(dist_a, dist_b)

    def test_counter_accumulates(self, metric, dtype):
        rng = np.random.default_rng(8)
        data, centroids = rng.normal(size=(20, 3)), rng.normal(size=(5, 3))
        counter = DistanceCounter()
        DistanceEngine(metric, dtype).assign_to_nearest(data, centroids,
                                                        counter=counter)
        assert counter.count == 20 * 5

    def test_distances_returned_as_float64(self, metric, dtype):
        rng = np.random.default_rng(9)
        data, centroids = rng.normal(size=(10, 3)), rng.normal(size=(4, 3))
        _, best = DistanceEngine(metric, dtype).assign_to_nearest(data,
                                                                  centroids)
        assert best.dtype == np.float64


class TestFromInner:
    """The gemm-epilogue used by the gathered-candidate path of GK-means⁻."""

    @pytest.mark.parametrize("metric", METRICS)
    def test_gathered_norm_layout(self, metric):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(6, 4))
        centroids = rng.normal(size=(5, 4))
        gather = rng.integers(0, 5, size=(6, 3))
        engine = DistanceEngine(metric)
        gathered = centroids[gather]                     # (6, 3, 4)
        dots = np.einsum("bd,bcd->bc", data, gathered)
        norms = engine.norms(centroids)
        dists = engine.from_inner(
            dots,
            None if norms is None else engine.norms(data),
            None if norms is None else norms[gather])
        for i in range(6):
            for c in range(3):
                assert dists[i, c] == pytest.approx(
                    naive_distance(metric, data[i], centroids[gather[i, c]]),
                    abs=1e-8)

    def test_missing_norms_rejected(self):
        engine = DistanceEngine("cosine")
        with pytest.raises(ValidationError, match="norms"):
            engine.from_inner(np.ones((2, 2)))


class TestEngineConfiguration:
    def test_metric_aliases(self):
        assert resolve_metric("l2") == "sqeuclidean"
        assert resolve_metric("Euclidean") == "sqeuclidean"
        assert resolve_metric("cos") == "cosine"
        assert resolve_metric("angular") == "cosine"
        assert resolve_metric("ip") == "dot"
        assert resolve_metric("inner-product") == "dot"
        assert resolve_metric("MIPS") == "dot"

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValidationError, match="metric"):
            DistanceEngine("manhattan")

    def test_dtype_resolution(self):
        assert resolve_dtype("float32") == np.dtype(np.float32)
        assert resolve_dtype(np.float64) == np.dtype(np.float64)
        with pytest.raises(ValidationError, match="dtype"):
            resolve_dtype(np.int32)

    def test_kmeans_geometry_flags(self):
        assert DistanceEngine("sqeuclidean").kmeans_geometry
        assert DistanceEngine("cosine").kmeans_geometry
        assert not DistanceEngine("dot").kmeans_geometry

    def test_clustering_engine_reduction(self):
        cosine = DistanceEngine("cosine", np.float32)
        inner = cosine.clustering_engine()
        assert inner.metric == "sqeuclidean"
        assert inner.dtype == np.dtype(np.float32)
        sq = DistanceEngine("sqeuclidean")
        assert sq.clustering_engine() is sq

    def test_prepare_clustering_normalizes_for_cosine(self):
        rng = np.random.default_rng(1)
        data = rng.normal(size=(6, 4)) * rng.uniform(0.1, 9.0, size=(6, 1))
        unit = DistanceEngine("cosine").prepare_clustering(data)
        assert np.allclose((unit ** 2).sum(axis=1), 1.0)
        # identity for the other metrics
        kept = DistanceEngine("dot").prepare_clustering(data)
        assert np.allclose(kept, data)

    def test_prepare_clustering_keeps_zero_rows(self):
        data = np.array([[0.0, 0.0], [3.0, 4.0]])
        unit = DistanceEngine("cosine").prepare_clustering(data)
        assert np.allclose(unit[0], 0.0)

    def test_sqeuclidean_float64_matches_legacy_kernels(self, matrices):
        a, b = matrices
        engine = DistanceEngine()
        assert np.array_equal(engine.cross(a, b),
                              cross_squared_euclidean(a, b))


class TestCosineUnitSphereIdentity:
    """||a - b||² = 2 (1 - cos) on the unit sphere — the reduction the whole
    clustering stack relies on."""

    def test_identity(self):
        rng = np.random.default_rng(5)
        data = rng.normal(size=(8, 6))
        unit = DistanceEngine("cosine").prepare_clustering(data)
        l2 = DistanceEngine("sqeuclidean").cross(unit, unit)
        cos = DistanceEngine("cosine").cross(data, data)
        assert np.allclose(l2, 2.0 * cos, atol=1e-9)


finite_floats = st.floats(min_value=-100, max_value=100, allow_nan=False,
                          allow_infinity=False, width=64)


def small_matrix(max_rows=8, max_cols=6):
    return arrays(np.float64,
                  st.tuples(st.integers(1, max_rows), st.integers(1, max_cols)),
                  elements=finite_floats)


class TestProperties:
    @settings(max_examples=25, deadline=None)
    @given(small_matrix(), small_matrix(), st.sampled_from(list(METRICS)))
    @example(a=np.array([[1.0]]), b=np.array([[3.0917348e-161]]),
             metric="cosine")
    def test_cross_matches_naive(self, a, b, metric):
        if a.shape[1] != b.shape[1]:
            b = np.resize(b, (b.shape[0], a.shape[1]))
        result = DistanceEngine(metric).cross(a, b)
        assert np.allclose(result, naive_cross(metric, a, b),
                           atol=1e-6, rtol=1e-6)

    @settings(max_examples=25, deadline=None)
    @given(small_matrix(), st.sampled_from(["sqeuclidean", "cosine"]))
    def test_non_negative_metrics(self, data, metric):
        assert (DistanceEngine(metric).cross(data, data) >= 0).all()

    @settings(max_examples=25, deadline=None)
    @given(small_matrix(), st.sampled_from(list(METRICS)))
    def test_symmetry(self, data, metric):
        distances = DistanceEngine(metric).pairwise(data)
        assert np.allclose(distances, distances.T, atol=1e-9)
