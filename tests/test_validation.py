"""Unit tests for repro.validation."""

import numpy as np
import pytest

from repro.cluster import GKMeans, KMeans
from repro.exceptions import ValidationError
from repro.graph import (
    brute_force_knn_graph,
    build_knn_graph_by_clustering,
    nn_descent_knn_graph,
    random_knn_graph,
)
from repro.index import Index, IndexSpec
from repro.search import GraphSearcher
from repro.validation import (
    check_data_matrix,
    check_fraction,
    check_knn_indices,
    check_labels,
    check_positive_int,
    check_random_state,
)


class TestCheckDataMatrix:
    def test_list_input_converted(self):
        out = check_data_matrix([[1, 2], [3, 4]])
        assert out.dtype == np.float64
        assert out.shape == (2, 2)

    def test_one_dimensional_promoted_to_row(self):
        out = check_data_matrix([1.0, 2.0, 3.0])
        assert out.shape == (1, 3)

    def test_c_contiguous(self):
        data = np.asfortranarray(np.ones((4, 3)))
        out = check_data_matrix(data)
        assert out.flags["C_CONTIGUOUS"]

    def test_three_dimensional_rejected(self):
        with pytest.raises(ValidationError, match="2-D"):
            check_data_matrix(np.ones((2, 2, 2)))

    def test_min_samples_enforced(self):
        with pytest.raises(ValidationError, match="at least 5"):
            check_data_matrix(np.ones((3, 2)), min_samples=5)

    def test_nan_rejected(self):
        data = np.ones((3, 2))
        data[1, 1] = np.nan
        with pytest.raises(ValidationError, match="NaN"):
            check_data_matrix(data)

    def test_inf_rejected(self):
        data = np.ones((3, 2))
        data[0, 0] = np.inf
        with pytest.raises(ValidationError, match="NaN or infinite"):
            check_data_matrix(data)

    @pytest.mark.parametrize("dtype, admitted, refused", [
        (np.float32, 9e18, 1e19), (np.float64, 6e153, 1e154)])
    def test_squared_row_norm_capped_at_a_quarter_of_the_range(
            self, dtype, admitted, refused):
        """A row is admitted while its squared norm is at most
        ``finfo.max / 4``, so every distance between admitted rows is
        finite; a finite row above it is refused by the range message."""
        assert check_data_matrix([[admitted]], dtype=dtype).dtype == dtype
        with pytest.raises(ValidationError, match="quarter of the"):
            check_data_matrix([[1.0], [refused]], dtype=dtype)
        with pytest.raises(ValidationError, match="quarter of the"):
            check_data_matrix([[admitted, admitted]], dtype=dtype)

    def test_empty_features_rejected(self):
        with pytest.raises(ValidationError):
            check_data_matrix(np.ones((3, 0)))


class TestFiniteRangeGate:
    """Data whose distances would overflow is refused at every entry point
    that takes vectors, not served as ``inf``/NaN distances."""

    @pytest.fixture(scope="class")
    def data(self):
        return np.random.default_rng(2).normal(size=(120, 8))

    @staticmethod
    def _index(data, dtype):
        return Index.build(data, IndexSpec(backend="bruteforce",
                                           n_neighbors=6, dtype=dtype))

    def test_float32_build_refused(self, data):
        with pytest.raises(ValidationError, match="range"):
            self._index(data * 1e19, "float32")

    def test_float32_query_refused(self, data):
        index = self._index(data, "float32")
        with pytest.raises(ValidationError, match="range"):
            index.search(data[:3] * 1e19, 5)

    def test_float64_query_refused(self, data):
        index = self._index(data, "float64")
        with pytest.raises(ValidationError, match="range"):
            index.search(data[0] * 1e200, 5)

    @pytest.mark.parametrize("estimator", [GKMeans, KMeans])
    def test_clustering_refused(self, data, estimator):
        with pytest.raises(ValidationError, match="range"):
            estimator(5).fit(data * 1e200)

    def test_float64_build_refused(self, data):
        with pytest.raises(ValidationError, match="range"):
            self._index(data * 1e200, "float64")

    @pytest.mark.parametrize("dtype, scale", [("float32", 1e19),
                                              ("float64", 1e200)])
    def test_insert_refused(self, data, dtype, scale):
        index = self._index(data, dtype)
        with pytest.raises(ValidationError, match="range"):
            index.insert(data[:3] * scale)
        assert index.n_rows == len(data)

    def test_sharded_build_refused(self, data):
        spec = IndexSpec(backend="bruteforce", n_neighbors=6,
                         dtype="float32", n_shards=2)
        with pytest.raises(ValidationError, match="range"):
            Index.build(data * 1e19, spec)

    def test_sharded_query_refused(self, data):
        spec = IndexSpec(backend="bruteforce", n_neighbors=6,
                         dtype="float32", n_shards=2)
        with Index.build(data, spec) as index:
            with pytest.raises(ValidationError, match="range"):
                index.search(data[:3] * 1e19, 5)

    @pytest.mark.parametrize("builder", [
        brute_force_knn_graph, nn_descent_knn_graph, random_knn_graph,
        build_knn_graph_by_clustering])
    def test_graph_builders_refused(self, data, builder):
        with pytest.raises(ValidationError, match="range"):
            builder(data * 1e200, 6)

    def test_predict_refused(self, data):
        model = KMeans(5, random_state=0).fit(data)
        with pytest.raises(ValidationError, match="range"):
            model.predict(data * 1e200)

    @pytest.mark.parametrize("dtype, scale", [("float32", 1e18),
                                              ("float64", 1e150)])
    def test_near_the_bound_builds_and_searches(self, data, dtype, scale):
        scaled = (data * scale).astype(dtype)
        index = self._index(scaled, dtype)
        result = index.search(scaled[:10], 5)
        assert np.isfinite(result.distances).all()
        assert result.indices[:, 0].tolist() == list(range(10))


class TestInt8RangeGate:
    """An ``int8`` index scores in float32 whatever its dtype, so its
    inputs are gated at the float32 range: a float64 ``int8`` index over
    ``X · 1e30`` used to answer self-queries with ``-1`` ids, and at
    ``X · 1e50`` fitted a non-finite quantizer scale."""

    @pytest.fixture(scope="class")
    def data(self):
        return np.random.default_rng(0).normal(size=(300, 8))

    @staticmethod
    def _spec(**fields):
        return IndexSpec(quantize="int8", dtype="float64", n_neighbors=10,
                         random_state=0, **fields)

    @pytest.mark.parametrize("scale", [1e30, 1e50])
    def test_float64_build_refused(self, data, scale):
        with pytest.raises(ValidationError, match="float32 range"):
            Index.build(data * scale, self._spec())

    def test_float64_query_refused(self, data):
        index = Index.build(data, self._spec())
        with pytest.raises(ValidationError, match="float32 range"):
            index.search(data[:5] * 1e30, 3)

    def test_float64_insert_refused(self, data):
        index = Index.build(data, self._spec())
        with pytest.raises(ValidationError, match="float32 range"):
            index.insert(data[:5] * 1e30)
        assert index.n_rows == len(data)

    def test_searcher_refuses_the_rows_it_would_serve(self, data):
        graph = brute_force_knn_graph(data, 6)
        with pytest.raises(ValidationError, match="float32 range"):
            GraphSearcher(data * 1e30, graph, dtype="float64",
                          quantize="int8")

    def test_sharded_entry_points_refused(self, data):
        spec = self._spec(n_shards=2, partitioner="gkmeans")
        with pytest.raises(ValidationError, match="float32 range"):
            Index.build(data * 1e30, spec)
        with Index.build(data, spec) as index:
            with pytest.raises(ValidationError, match="float32 range"):
                index.search(data[:5] * 1e30, 3)
            with pytest.raises(ValidationError, match="float32 range"):
                index.insert(data[:5] * 1e30)
            assert index.n_rows == len(data)

    def test_near_the_float32_bound_serves(self, data):
        bound = np.finfo(np.float32).max / 4
        scaled = data * np.sqrt(0.99 * bound
                                / np.einsum("ij,ij->i", data, data).max())
        index = Index.build(scaled, self._spec())
        assert np.isfinite(index.quantizer.scale).all()
        result = index.search(scaled[:20], 3)
        assert (result.indices >= 0).all()
        assert result.indices[:, 0].tolist() == list(range(20))

    def test_exact_float64_index_keeps_its_own_range(self, data):
        index = Index.build(data * 1e30, IndexSpec(
            backend="bruteforce", n_neighbors=6, dtype="float64"))
        assert index.search(data[:5] * 1e30, 3).indices[:, 0].tolist() \
            == list(range(5))


class TestCheckLabels:
    def test_basic(self):
        labels = check_labels([0, 1, 2], 3)
        assert labels.dtype == np.int64

    def test_wrong_length(self):
        with pytest.raises(ValidationError, match="length"):
            check_labels([0, 1], 3)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError, match="non-negative"):
            check_labels([0, -1, 2], 3)

    def test_float_integral_accepted(self):
        labels = check_labels(np.array([0.0, 1.0]), 2)
        assert labels.tolist() == [0, 1]

    def test_float_fractional_rejected(self):
        with pytest.raises(ValidationError, match="integers"):
            check_labels(np.array([0.5, 1.0]), 2)

    @pytest.mark.parametrize("bad", [1.99999, 1.0 + 1e-12, np.inf, np.nan])
    def test_near_integral_and_non_finite_rejected(self, bad):
        with pytest.raises(ValidationError, match="integers"):
            check_labels(np.array([0.0, bad]), 2)

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValidationError, match="1-D"):
            check_labels(np.zeros((2, 2), dtype=int), 4)


class TestCheckPositiveInt:
    def test_returns_python_int(self):
        value = check_positive_int(np.int64(5), name="x")
        assert value == 5 and isinstance(value, int)

    def test_below_minimum(self):
        with pytest.raises(ValidationError, match=">= 2"):
            check_positive_int(1, name="x", minimum=2)

    def test_above_maximum(self):
        with pytest.raises(ValidationError, match="<= 3"):
            check_positive_int(4, name="x", maximum=3)

    def test_bool_rejected(self):
        with pytest.raises(ValidationError):
            check_positive_int(True, name="x")

    def test_float_rejected(self):
        with pytest.raises(ValidationError):
            check_positive_int(2.5, name="x")


class TestCheckFraction:
    def test_valid(self):
        assert check_fraction(0.5, name="rate") == 0.5

    def test_zero_rejected_by_default(self):
        with pytest.raises(ValidationError):
            check_fraction(0.0, name="rate")

    def test_zero_allowed_when_requested(self):
        assert check_fraction(0.0, name="rate", allow_zero=True) == 0.0

    def test_above_one_rejected(self):
        with pytest.raises(ValidationError):
            check_fraction(1.5, name="rate")

    def test_non_numeric_rejected(self):
        with pytest.raises(ValidationError):
            check_fraction("abc", name="rate")


class TestCheckRandomState:
    def test_none_gives_generator(self):
        assert isinstance(check_random_state(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = check_random_state(3).integers(0, 100, 10)
        b = check_random_state(3).integers(0, 100, 10)
        assert np.array_equal(a, b)

    def test_generator_passed_through(self):
        generator = np.random.default_rng(0)
        assert check_random_state(generator) is generator

    def test_legacy_random_state_wrapped(self):
        legacy = np.random.RandomState(0)
        assert isinstance(check_random_state(legacy), np.random.Generator)

    def test_invalid_rejected(self):
        with pytest.raises(ValidationError):
            check_random_state("seed")


class TestCheckKnnIndices:
    def test_valid(self):
        indices = check_knn_indices(np.array([[1, 2], [0, 2], [0, 1]]), 3)
        assert indices.dtype == np.int64

    def test_minus_one_padding_allowed(self):
        check_knn_indices(np.array([[1, -1], [0, -1]]), 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            check_knn_indices(np.array([[5]]), 2)

    def test_float_rejected(self):
        with pytest.raises(ValidationError, match="integers"):
            check_knn_indices(np.array([[0.5]]), 1)

    def test_wrong_rows_rejected(self):
        with pytest.raises(ValidationError, match="rows"):
            check_knn_indices(np.array([[0], [1]]), 3)
