"""Tests for KNNGraph, brute-force construction, random graphs and recall
metrics."""

import numpy as np
import pytest

from repro.datasets import make_sift_like
from repro.distance import DistanceEngine
from repro.exceptions import GraphError, ValidationError
from repro.graph import (
    KNNGraph,
    NeighborHeap,
    brute_force_knn_graph,
    brute_force_neighbors,
    estimate_recall_by_sampling,
    graph_recall,
    per_point_recall,
    random_knn_graph,
)
from repro.graph.metrics import estimate_recall_by_sampling as _estimate  # noqa: F401


class TestKNNGraph:
    def test_basic_properties(self):
        graph = KNNGraph(np.array([[1, 2], [0, 2], [0, 1]]))
        assert graph.n_points == 3
        assert graph.n_neighbors == 2
        assert len(graph) == 3

    def test_neighbors_strips_padding(self):
        graph = KNNGraph(np.array([[1, -1], [0, -1]]))
        assert graph.neighbors(0).tolist() == [1]

    def test_distance_shape_mismatch_rejected(self):
        with pytest.raises(GraphError, match="shape"):
            KNNGraph(np.array([[1], [0]]), np.zeros((3, 1)))

    def test_truncated(self):
        graph = KNNGraph(np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3],
                                   [0, 1, 2]]),
                         np.arange(12, dtype=float).reshape(4, 3))
        small = graph.truncated(2)
        assert small.n_neighbors == 2
        assert small.distances.shape == (4, 2)

    def test_truncate_too_wide_rejected(self):
        graph = KNNGraph(np.array([[1], [0]]))
        with pytest.raises(GraphError):
            graph.truncated(5)

    def test_validate_detects_self_loop(self):
        graph = KNNGraph(np.array([[1], [0]]))
        graph.indices[0, 0] = 0
        with pytest.raises(GraphError, match="self-loop"):
            graph.validate()

    def test_validate_detects_duplicates(self):
        graph = KNNGraph(np.array([[1, 2], [0, 2], [0, 1]]))
        graph.indices[0] = [2, 2]
        with pytest.raises(GraphError, match="duplicate"):
            graph.validate()

    def test_symmetrized_adjacency_contains_reverse_edges(self):
        # 0 -> 1 but 1 -> 2, so symmetrisation must give 1 the edge back to 0.
        graph = KNNGraph(np.array([[1], [2], [1]]))
        adjacency = graph.symmetrized_adjacency()
        assert 0 in adjacency[1]
        assert 1 in adjacency[0]

    @staticmethod
    def _symmetrized_loop(graph):
        """The per-edge loop the vectorised method replaced — the oracle."""
        incoming = [[] for _ in range(graph.n_points)]
        for source in range(graph.n_points):
            for target in graph.indices[source]:
                if target >= 0:
                    incoming[int(target)].append(source)
        adjacency = []
        for point in range(graph.n_points):
            merged = np.union1d(graph.neighbors(point),
                                np.asarray(incoming[point], dtype=np.int64))
            adjacency.append(merged[merged != point].astype(np.int64))
        return adjacency

    @pytest.mark.parametrize("case", ["exact", "random", "padded", "source",
                                      "single"])
    def test_symmetrized_adjacency_matches_edge_loop(self, case, tiny_data,
                                                     sift_small_graph):
        if case == "exact":
            graph = sift_small_graph
        elif case == "random":
            graph = random_knn_graph(tiny_data, 5, random_state=3,
                                     compute_distances=False)
        elif case == "padded":
            # -1 padding, a self-loop (row 3) and a repeated id (row 0).
            graph = KNNGraph(np.array([[1, 1, -1], [2, -1, -1], [-1, -1, -1],
                                       [3, 0, -1], [0, 2, 1]]))
        elif case == "source":
            # Nobody points at 0; 2 has only incoming edges.
            graph = KNNGraph(np.array([[1, 2], [2, -1], [-1, -1]]))
        else:
            graph = KNNGraph(np.array([[-1]]))
        got = graph.symmetrized_adjacency()
        expected = self._symmetrized_loop(graph)
        assert len(got) == len(expected) == graph.n_points
        for row, oracle in zip(got, expected):
            assert row.dtype == np.int64
            assert row.tolist() == oracle.tolist()

    def test_from_heap(self):
        heap = NeighborHeap(3, 2)
        heap.push_symmetric(0, 1, 1.0)
        heap.push_symmetric(1, 2, 2.0)
        graph = KNNGraph.from_heap(heap)
        assert graph.n_points == 3
        assert graph.indices[0, 0] == 1

    def test_out_of_range_indices_rejected(self):
        with pytest.raises(ValidationError):
            KNNGraph(np.array([[5], [0]]))


class TestBruteForce:
    def test_graph_is_exact(self, tiny_data):
        graph = brute_force_knn_graph(tiny_data, 3)
        # verify one row against a naive computation
        point = 5
        dists = ((tiny_data - tiny_data[point]) ** 2).sum(axis=1)
        dists[point] = np.inf
        expected = np.argsort(dists)[:3]
        assert set(graph.indices[point]) == set(expected)

    def test_no_self_matches(self, tiny_data):
        graph = brute_force_knn_graph(tiny_data, 5)
        assert not np.any(graph.indices == np.arange(len(tiny_data))[:, None])

    def test_rows_sorted(self, tiny_data):
        graph = brute_force_knn_graph(tiny_data, 5)
        assert np.all(np.diff(graph.distances, axis=1) >= 0)

    def test_block_size_invariance(self, tiny_data):
        a = brute_force_knn_graph(tiny_data, 4, block_size=7)
        b = brute_force_knn_graph(tiny_data, 4, block_size=1000)
        assert np.array_equal(a.indices, b.indices)

    def test_neighbors_queries_vs_reference(self, tiny_data):
        queries = tiny_data[:5] + 0.01
        indices, distances = brute_force_neighbors(queries, tiny_data, 2)
        assert indices.shape == (5, 2)
        # each query's nearest neighbour should be its (perturbed) source row
        assert np.array_equal(indices[:, 0], np.arange(5))

    def test_k_larger_than_n_rejected(self, tiny_data):
        with pytest.raises(ValidationError):
            brute_force_knn_graph(tiny_data, len(tiny_data) + 3)

    def test_validate_passes(self, sift_small_graph):
        sift_small_graph.validate()


class TestRandomGraph:
    def test_shape_and_no_self_loops(self, tiny_data):
        graph = random_knn_graph(tiny_data, 4, random_state=0)
        assert graph.indices.shape == (len(tiny_data), 4)
        graph.validate()

    def test_distances_are_true_distances(self, tiny_data):
        graph = random_knn_graph(tiny_data, 3, random_state=1)
        i, j = 0, int(graph.indices[0, 0])
        expected = float(((tiny_data[i] - tiny_data[j]) ** 2).sum())
        assert graph.distances[0, 0] == pytest.approx(expected)

    def test_without_distances(self, tiny_data):
        graph = random_knn_graph(tiny_data, 3, random_state=1,
                                 compute_distances=False)
        assert np.isinf(graph.distances).all()

    def test_reproducible(self, tiny_data):
        a = random_knn_graph(tiny_data, 3, random_state=9)
        b = random_knn_graph(tiny_data, 3, random_state=9)
        assert np.array_equal(a.indices, b.indices)

    @pytest.mark.parametrize("n, kappa", [(2, 1), (9, 8), (40, 20), (40, 21),
                                          (300, 12), (300, 149)])
    def test_rows_are_distinct_ids_other_than_self(self, n, kappa):
        # Redrawn slots (κ at most half of n) and shuffled rows (beyond).
        data = np.random.default_rng(0).normal(size=(n, 3))
        for seed in range(3):
            indices = random_knn_graph(data, kappa, random_state=seed,
                                       compute_distances=False).indices
            assert indices.shape == (n, kappa)
            assert indices.min() >= 0 and indices.max() < n
            assert np.all(indices != np.arange(n)[:, None])
            ranked = np.sort(indices, axis=1)
            assert np.all(ranked[:, 1:] != ranked[:, :-1])

    def test_every_neighbour_set_is_equally_likely(self):
        # 4 points, 2 neighbours: 3 sets per row, 6 ordered pairs.
        data = np.zeros((4, 2))
        counts = {}
        for seed in range(1200):
            row = random_knn_graph(data, 2, random_state=seed,
                                   compute_distances=False).indices[1]
            counts[tuple(row)] = counts.get(tuple(row), 0) + 1
        assert sorted(counts) == [(0, 2), (0, 3), (2, 0), (2, 3), (3, 0),
                                  (3, 2)]
        assert min(counts.values()) > 150          # 200 expected, sd ~13

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("metric", ["sqeuclidean", "cosine", "dot"])
    def test_rows_match_per_row_scoring(self, metric, dtype):
        """The blocked scoring equals one ``engine.cross`` call per point
        over the very same random draws."""
        n, kappa = 700, 6                      # spans several scoring blocks
        data = make_sift_like(n, 12, random_state=4).astype(dtype)
        engine = DistanceEngine(metric, dtype)
        graph = random_knn_graph(data, kappa, random_state=5, engine=engine)
        assert graph.distances.dtype == np.float64

        draws = random_knn_graph(data, kappa, random_state=5, engine=engine,
                                 compute_distances=False).indices
        atol = 1e-9 if dtype == np.float64 else 1e-5 * float(
            np.abs(engine.cross(data[:50], data)).max())
        for point in range(n):
            assert sorted(graph.indices[point]) == sorted(draws[point])
            row = engine.cross(data[point][None, :],
                               data[graph.indices[point]])[0]
            np.testing.assert_allclose(graph.distances[point], row,
                                       rtol=0, atol=atol)
            assert np.all(np.diff(graph.distances[point]) >= 0)

    def test_distance_ties_keep_draw_order(self):
        # All rows identical: every distance ties, so the stable sort must
        # leave each row in the order it was drawn.
        data = np.ones((9, 3))
        graph = random_knn_graph(data, 4, random_state=2)
        unsorted = random_knn_graph(data, 4, random_state=2,
                                    compute_distances=False)
        assert np.array_equal(graph.indices, unsorted.indices)
        assert np.all(graph.distances == 0.0)


class TestRecallMetrics:
    def test_recall_of_truth_is_one(self, sift_small_graph):
        assert graph_recall(sift_small_graph, sift_small_graph) == 1.0

    def test_recall_of_random_graph_is_low(self, sift_small, sift_small_graph):
        random_graph = random_knn_graph(sift_small, 10, random_state=0)
        assert graph_recall(random_graph, sift_small_graph) < 0.3

    def test_per_point_recall_range(self, sift_small, sift_small_graph):
        random_graph = random_knn_graph(sift_small, 10, random_state=0)
        per_point = per_point_recall(random_graph, sift_small_graph)
        assert per_point.shape == (len(sift_small),)
        assert (per_point >= 0).all() and (per_point <= 1).all()

    def test_top1_recall_depth(self, sift_small, sift_small_graph):
        # A graph identical in the first column but random elsewhere has
        # perfect top-1 recall.
        hybrid = random_knn_graph(sift_small, 10, random_state=0)
        indices = hybrid.indices.copy()
        indices[:, 0] = sift_small_graph.indices[:, 0]
        # remove accidental duplicates of column 0 to keep the graph valid
        for row in range(indices.shape[0]):
            seen = {indices[row, 0]}
            for col in range(1, indices.shape[1]):
                if indices[row, col] in seen:
                    indices[row, col] = -1
                seen.add(indices[row, col])
        hybrid = KNNGraph(indices)
        assert graph_recall(hybrid, sift_small_graph, n_neighbors=1) == 1.0

    def test_mismatched_graphs_rejected(self, sift_small_graph):
        other = KNNGraph(np.array([[1], [0]]))
        with pytest.raises(GraphError):
            graph_recall(other, sift_small_graph)

    def test_estimated_recall_close_to_exact(self, sift_small,
                                             sift_small_graph):
        estimate = estimate_recall_by_sampling(
            sift_small_graph, sift_small, n_probes=80, random_state=0)
        assert estimate > 0.9


class TestMetricPropagation:
    """A sliced or heap-built graph must never silently revert to
    ``sqeuclidean`` (regression tests for the metric bookkeeping)."""

    def test_metric_spelling_canonicalised(self):
        graph = KNNGraph(np.array([[1], [0]]), metric="l2")
        assert graph.metric == "sqeuclidean"
        assert KNNGraph(np.array([[1], [0]]), metric="angular").metric == \
            "cosine"

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValidationError, match="metric"):
            KNNGraph(np.array([[1], [0]]), metric="mahalanobis")

    def test_truncated_preserves_metric(self):
        graph = KNNGraph(np.array([[1, 2], [0, 2], [0, 1]]),
                         np.array([[0.1, 0.2]] * 3), metric="cosine")
        assert graph.truncated(1).metric == "cosine"

    def test_from_heap_inherits_heap_metric(self):
        heap = NeighborHeap(3, 2, metric="cosine")
        heap.push_symmetric(0, 1, 0.25)
        graph = KNNGraph.from_heap(heap)
        assert graph.metric == "cosine"

    def test_from_heap_conflicting_metric_rejected(self):
        heap = NeighborHeap(3, 2, metric="cosine")
        with pytest.raises(GraphError, match="metric"):
            KNNGraph.from_heap(heap, metric="sqeuclidean")

    def test_from_heap_matching_alias_accepted(self):
        heap = NeighborHeap(3, 2, metric="cosine")
        heap.push_symmetric(0, 1, 0.25)
        assert KNNGraph.from_heap(heap, metric="angular").metric == "cosine"

    def test_from_heap_without_heap_metric_defaults(self):
        class BareHeap:
            def to_arrays(self):
                return (np.array([[1], [0]]),
                        np.array([[0.5], [0.5]]))

        assert KNNGraph.from_heap(BareHeap()).metric == "sqeuclidean"

    def test_nn_descent_graph_carries_engine_metric(self, tiny_data):
        from repro.graph import nn_descent_knn_graph
        graph = nn_descent_knn_graph(tiny_data, 3, random_state=0,
                                     metric="cosine")
        assert graph.metric == "cosine"
        assert graph.truncated(2).metric == "cosine"
