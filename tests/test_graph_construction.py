"""Tests for the clustering-driven graph construction (Alg. 3)."""

import numpy as np
import pytest

from repro.exceptions import ValidationError
from repro.graph import (
    build_knn_graph_by_clustering,
    graph_recall,
    random_knn_graph,
)
from repro.distance import DistanceEngine
from repro.graph.construction import _merge_clusters


def merge_one_cluster(graph, members, data, n_neighbors):
    """Refine ``members`` as one cluster, every other point on its own."""
    indices, distances = graph.indices.copy(), graph.distances.copy()
    labels = np.arange(len(data))
    labels[members] = members[0]
    engine = DistanceEngine()
    _merge_clusters(indices, distances, labels, len(data), data, n_neighbors,
                    len(data), np.random.default_rng(0), engine,
                    engine.norms(data))
    return indices, distances


class TestMergeClusters:
    def test_merge_improves_rows(self, tiny_data):
        graph = random_knn_graph(tiny_data, 3, random_state=0)
        members = np.arange(10)
        _, distances = merge_one_cluster(graph, members, tiny_data, 3)
        assert distances[members].sum() <= graph.distances[members].sum()
        assert np.array_equal(distances[10:], graph.distances[10:])

    def test_merge_keeps_rows_sorted_and_unique(self, tiny_data):
        graph = random_knn_graph(tiny_data, 4, random_state=1)
        members = np.arange(12)
        indices, distances = merge_one_cluster(graph, members, tiny_data, 4)
        for row in members:
            assert np.all(np.diff(distances[row]) >= 0)
            assert len(np.unique(indices[row])) == 4
            assert row not in indices[row]

    def test_single_member_is_noop(self, tiny_data):
        graph = random_knn_graph(tiny_data, 3, random_state=2)
        indices, _ = merge_one_cluster(graph, np.array([5]), tiny_data, 3)
        assert np.array_equal(indices, graph.indices)


class TestBuildKnnGraphByClustering:
    def test_recall_improves_with_tau(self, sift_small, sift_small_graph):
        low = build_knn_graph_by_clustering(sift_small, 10, tau=1,
                                            cluster_size=30, random_state=0)
        high = build_knn_graph_by_clustering(sift_small, 10, tau=6,
                                             cluster_size=30, random_state=0)
        assert (graph_recall(high.graph, sift_small_graph)
                > graph_recall(low.graph, sift_small_graph))

    def test_reaches_good_recall(self, sift_small, sift_small_graph):
        result = build_knn_graph_by_clustering(sift_small, 10, tau=8,
                                               cluster_size=40,
                                               random_state=0)
        assert graph_recall(result.graph, sift_small_graph) > 0.75

    def test_history_recorded(self, sift_small, sift_small_graph):
        result = build_knn_graph_by_clustering(
            sift_small, 8, tau=4, cluster_size=40, truth=sift_small_graph,
            random_state=0)
        assert len(result.history) == 4
        taus, recalls = result.recall_curve()
        assert taus.tolist() == [1, 2, 3, 4]
        assert np.all(np.isfinite(recalls))
        # recall should broadly increase over the rounds
        assert recalls[-1] > recalls[0]

    def test_distortion_curve_decreases(self, sift_small):
        result = build_knn_graph_by_clustering(sift_small, 8, tau=5,
                                               cluster_size=40,
                                               random_state=0)
        _, distortions = result.distortion_curve()
        assert distortions[-1] <= distortions[0]

    def test_recall_none_without_truth(self, sift_small):
        result = build_knn_graph_by_clustering(sift_small, 8, tau=2,
                                               cluster_size=40,
                                               random_state=0)
        assert all(r.recall is None for r in result.history)

    def test_graph_structurally_valid(self, sift_small):
        result = build_knn_graph_by_clustering(sift_small, 10, tau=3,
                                               cluster_size=40,
                                               random_state=0)
        result.graph.validate()

    def test_reproducible(self, sift_small):
        a = build_knn_graph_by_clustering(sift_small, 6, tau=2,
                                          cluster_size=40, random_state=5)
        b = build_knn_graph_by_clustering(sift_small, 6, tau=2,
                                          cluster_size=40, random_state=5)
        assert np.array_equal(a.graph.indices, b.graph.indices)

    def test_invalid_parameters_rejected(self, sift_small):
        with pytest.raises(ValidationError):
            build_knn_graph_by_clustering(sift_small, 0)
        with pytest.raises(ValidationError):
            build_knn_graph_by_clustering(sift_small, 5, cluster_size=1)
        with pytest.raises(ValidationError):
            build_knn_graph_by_clustering(sift_small, 5, tau=0)

    @pytest.mark.parametrize("keyword, value", [("bisection", "lloyd"),
                                                ("max_block", 200)])
    def test_retired_keywords_are_refused(self, sift_small, keyword, value):
        with pytest.raises(TypeError, match=keyword):
            build_knn_graph_by_clustering(sift_small, 5, **{keyword: value})

    def test_beats_nndescent_on_time_comparable_budget(self, sift_small,
                                                       sift_small_graph):
        """Alg. 3 should reach usable recall with modest τ (paper: cheaper
        than NN-Descent); we only assert it is well above random."""
        result = build_knn_graph_by_clustering(sift_small, 10, tau=4,
                                               cluster_size=40,
                                               random_state=0)
        recall = graph_recall(result.graph, sift_small_graph)
        assert recall > 0.5
