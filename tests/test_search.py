"""Tests for greedy graph search and its evaluation protocol."""

import numpy as np
import pytest

from repro.datasets import make_sift_like, train_query_split
from repro.exceptions import GraphError
from repro.graph import KNNGraph, brute_force_knn_graph
from repro.graph.bruteforce import brute_force_neighbors
from repro.search import GraphSearcher, evaluate_search, frontier_batch_search


@pytest.fixture(scope="module")
def search_setup():
    corpus = make_sift_like(800, 16, random_state=3)
    base, queries = train_query_split(corpus, 60, random_state=0)
    graph = brute_force_knn_graph(base, 10)
    return base, queries, graph


class TestGreedySearch:
    def test_finds_exact_neighbor_for_base_points(self, search_setup):
        base, _, graph = search_setup
        # A pure k-NN graph over strongly clustered data splits into
        # per-cluster components, so entry-point coverage matters: with a
        # generous seed sample the searcher must find the exact (distance 0)
        # match for a query that *is* a base point.
        searcher = GraphSearcher(base, graph, pool_size=32, seed_sample=256,
                                 random_state=0)
        _, distances = searcher.query(base[123], 1)
        assert distances[0] == pytest.approx(0.0)

    def test_high_recall_on_exact_graph(self, search_setup):
        base, queries, graph = search_setup
        searcher = GraphSearcher(base, graph, pool_size=48, random_state=0)
        evaluation = evaluate_search(searcher, queries, n_results=5)
        assert evaluation.recall_at_1 > 0.7
        assert evaluation.recall_at_k > 0.6

    def test_larger_pool_no_worse(self, search_setup):
        base, queries, graph = search_setup
        small = GraphSearcher(base, graph, pool_size=8, random_state=0)
        large = GraphSearcher(base, graph, pool_size=64, random_state=0)
        recall_small = evaluate_search(small, queries, n_results=5).recall_at_1
        recall_large = evaluate_search(large, queries, n_results=5).recall_at_1
        assert recall_large >= recall_small - 0.05

    def test_results_sorted_by_distance(self, search_setup):
        base, queries, graph = search_setup
        searcher = GraphSearcher(base, graph, random_state=0)
        _, distances = searcher.query(queries[0], 8)
        assert np.all(np.diff(distances) >= 0)

    def test_fewer_evaluations_than_bruteforce(self, search_setup):
        base, queries, graph = search_setup
        searcher = GraphSearcher(base, graph, pool_size=32, random_state=0)
        searcher.query(queries[0], 5)
        assert searcher.last_n_evaluations < len(base) / 2

    def test_batch_query_shapes(self, search_setup):
        base, queries, graph = search_setup
        searcher = GraphSearcher(base, graph, random_state=0)
        indices, distances = searcher.batch_query(queries[:10], 4)
        assert indices.shape == (10, 4)
        assert distances.shape == (10, 4)

    def test_dimension_mismatch_rejected(self, search_setup):
        base, _, graph = search_setup
        searcher = GraphSearcher(base, graph, random_state=0)
        with pytest.raises(GraphError, match="dimension"):
            searcher.query(np.zeros(3), 1)

    def test_graph_data_size_mismatch_rejected(self, search_setup):
        base, _, _ = search_setup
        tiny_graph = KNNGraph(np.array([[1], [0]]))
        with pytest.raises(GraphError):
            GraphSearcher(base, tiny_graph)

    def test_walk_entry_function_directly(self, search_setup):
        """The exact entry takes a plain row list and a ``(d,)`` query (a
        batch of one)."""
        base, queries, graph = search_setup
        adjacency = graph.symmetrized_adjacency()
        indices, distances, evaluations, stats = frontier_batch_search(
            base, adjacency, queries[0], 5, pool_size=32,
            rng=np.random.default_rng(0))
        assert indices.shape == distances.shape == (1, 5)
        assert evaluations[0] > 0
        assert stats.n_queries == 1

    def test_non_symmetrized_search_still_works(self, search_setup):
        base, queries, graph = search_setup
        searcher = GraphSearcher(base, graph, symmetrize=False,
                                 random_state=0)
        indices, _ = searcher.query(queries[0], 3)
        assert len(indices) == 3


class TestEvaluateSearch:
    def test_perfect_searcher_scores_one(self, search_setup):
        """A 'searcher' returning brute-force results scores recall 1."""
        base, queries, graph = search_setup

        class ExactSearcher(GraphSearcher):
            def query(self, query, n_results=10, *, pool_size=None):
                idx, dist = brute_force_neighbors(query[None, :], self.data,
                                                  n_results)
                self.last_n_evaluations = self.data.shape[0]
                return idx[0], dist[0]

        searcher = ExactSearcher(base, graph, random_state=0)
        evaluation = evaluate_search(searcher, queries, n_results=5)
        assert evaluation.recall_at_1 == 1.0
        assert evaluation.recall_at_k == 1.0

    def test_fields_populated(self, search_setup):
        base, queries, graph = search_setup
        searcher = GraphSearcher(base, graph, random_state=0)
        evaluation = evaluate_search(searcher, queries[:10], n_results=3)
        assert evaluation.k == 3
        assert evaluation.mean_query_seconds > 0
        assert evaluation.mean_distance_evaluations > 0


class TestBatchQuery:
    def test_batch_sets_per_query_counts(self, search_setup):
        base, queries, graph = search_setup
        searcher = GraphSearcher(base, graph, random_state=0)
        indices, distances = searcher.batch_query(queries[:12], 4)
        assert indices.shape == (12, 4)
        assert searcher.last_per_query_evaluations.shape == (12,)
        assert searcher.last_n_evaluations == \
            int(searcher.last_per_query_evaluations.sum())

    def test_evaluate_search_batch_mode(self, search_setup):
        base, queries, graph = search_setup
        searcher = GraphSearcher(base, graph, pool_size=48, random_state=0)
        evaluation = evaluate_search(searcher, queries, n_results=5,
                                     batch=True)
        assert evaluation.recall_at_1 > 0.7
        assert len(evaluation.per_query_evaluations) == queries.shape[0]
        # Batched entry-point/frontier gemms are charged per query, so every
        # query reports at least the shared entry-sample cost.
        assert min(evaluation.per_query_evaluations) >= 32
