"""Tests for greedy graph search and its evaluation protocol."""

import numpy as np
import pytest
from _insert_oracle import to_rows

from repro.datasets import make_sift_like, train_query_split
from repro.exceptions import GraphError, ValidationError
from repro.graph import KNNGraph, brute_force_knn_graph
from repro.graph.bruteforce import brute_force_neighbors
from repro.index import Index, IndexSpec
from repro.search import (GraphSearcher, SearchResult, evaluate_search,
                          frontier_batch_search)


@pytest.fixture(scope="module")
def search_setup():
    corpus = make_sift_like(800, 16, random_state=3)
    base, queries = train_query_split(corpus, 60, random_state=0)
    graph = brute_force_knn_graph(base, 10)
    return base, queries, graph


def _index(base, graph, **spec):
    """The index that serves ``graph`` as a ``GraphSearcher`` with the same
    settings would."""
    return Index(base, graph, IndexSpec(backend="bruteforce",
                                        n_neighbors=graph.n_neighbors,
                                        random_state=0, **spec))


class TestGreedySearch:
    def test_finds_exact_neighbor_for_base_points(self, search_setup):
        base, _, graph = search_setup
        # A pure k-NN graph over strongly clustered data splits into
        # per-cluster components, so where a walk enters matters: seeded
        # from its own cluster, a query that *is* a base point must find
        # the exact (distance 0) match.
        searcher = GraphSearcher(base, graph, pool_size=32, random_state=0)
        _, distances = searcher.query(base[123], 1)
        assert distances[0] == pytest.approx(0.0)

    def test_high_recall_on_exact_graph(self, search_setup):
        base, queries, graph = search_setup
        evaluation = evaluate_search(_index(base, graph, pool_size=48),
                                     queries, n_results=5)
        assert evaluation.recall_at_1 > 0.7
        assert evaluation.recall_at_k > 0.6

    def test_larger_pool_no_worse(self, search_setup):
        base, queries, graph = search_setup
        small = _index(base, graph, pool_size=8)
        large = _index(base, graph, pool_size=64)
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
        result = searcher.query(queries[0], 5)
        assert result.evaluations.sum() < len(base) / 2

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
        adjacency = to_rows(graph.adjacency())
        indices, distances, evaluations, stats = frontier_batch_search(
            base, adjacency, queries[0], 5, pool_size=32)
        assert indices.shape == distances.shape == (1, 5)
        assert evaluations[0] > 0
        assert stats.n_queries == 1


class TestEvaluateSearch:
    def test_perfect_searcher_scores_one(self, search_setup):
        """An index returning brute-force results scores recall 1."""
        base, queries, graph = search_setup

        class ExactIndex(Index):
            def search(self, queries, n_results=10, **_):
                idx, dist = brute_force_neighbors(queries, self.data,
                                                  n_results)
                return SearchResult(idx, dist, np.full(
                    len(queries), self.data.shape[0]), None)

        index = ExactIndex(base, graph, IndexSpec(
            backend="bruteforce", n_neighbors=graph.n_neighbors))
        evaluation = evaluate_search(index, queries, n_results=5)
        assert evaluation.recall_at_1 == 1.0
        assert evaluation.recall_at_k == 1.0

    def test_fields_populated(self, search_setup):
        base, queries, graph = search_setup
        evaluation = evaluate_search(_index(base, graph), queries[:10],
                                     n_results=3)
        assert evaluation.k == 3
        assert evaluation.mean_query_seconds > 0
        assert evaluation.mean_distance_evaluations > 0

    def test_takes_an_index_and_serves_one_batch(self, search_setup):
        """A bare ``GraphSearcher`` is refused; the retired per-query mode
        keyword is a ``TypeError``."""
        base, queries, graph = search_setup
        searcher = GraphSearcher(base, graph, random_state=0)
        with pytest.raises(ValidationError, match="needs an Index"):
            evaluate_search(searcher, queries[:4], n_results=3)
        for batch in (True, False):
            with pytest.raises(TypeError, match="batch"):
                evaluate_search(_index(base, graph), queries[:4],
                                n_results=3, batch=batch)

    def test_serves_a_sharded_index_in_one_batch(self, search_setup):
        """An index of several shards is evaluated on the answers of one
        batched search: its per-query evaluation counts are that
        search's."""
        base, queries, _ = search_setup
        spec = IndexSpec(backend="bruteforce", n_neighbors=8, n_shards=2,
                         random_state=0)
        with Index.build(base, spec) as index:
            expected = index.search(queries[:12], 4)
            evaluation = evaluate_search(index, queries[:12], n_results=4)
        assert evaluation.per_query_evaluations == \
            tuple(expected.evaluations.tolist())
        assert evaluation.recall_at_k >= 0.9


class TestBatchQuery:
    def test_batch_sets_per_query_counts(self, search_setup):
        base, queries, graph = search_setup
        searcher = GraphSearcher(base, graph, random_state=0)
        result = searcher.batch_query(queries[:12], 4)
        indices, distances = result
        assert indices.shape == (12, 4)
        assert result.evaluations.shape == (12,)
        assert result.stats.n_queries == 12
        evaluation = evaluate_search(_index(base, graph), queries[:12],
                                     n_results=4)
        assert evaluation.per_query_evaluations == \
            tuple(result.evaluations.tolist())

    def test_evaluate_search_batch_mode(self, search_setup):
        base, queries, graph = search_setup
        evaluation = evaluate_search(_index(base, graph, pool_size=48),
                                     queries, n_results=5)
        assert evaluation.recall_at_1 > 0.7
        assert len(evaluation.per_query_evaluations) == queries.shape[0]
        # Batched entry-point/frontier gemms are charged per query, so every
        # query reports at least the shared entry-sample cost.
        assert min(evaluation.per_query_evaluations) >= 32
