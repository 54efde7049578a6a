"""Tests for GK-means (Alg. 2) — the paper's core contribution."""

import numpy as np
import pytest

from repro.cluster import BoostKMeans, GKMeans, KMeans
from repro.cluster.gkmeans import (
    candidate_label_block,
    graph_guided_boost_pass,
    graph_guided_lloyd_assign,
)
from repro.cluster.objective import ClusterState
from repro.cluster.two_means_tree import two_means_labels
from repro.distance import DistanceCounter
from repro.exceptions import ValidationError
from repro.metrics import average_distortion, normalized_mutual_information


class TestGatherCandidates:
    """``candidate_label_block`` — the candidate gather of Alg. 2."""

    def test_includes_current_and_neighbor_clusters(self):
        labels = np.array([0, 1, 2, 1, 0])
        neighbors = np.array([[1, 3, 4], [0, 2, 3]])
        candidates = candidate_label_block(labels, neighbors,
                                           labels[[2, 4]])
        assert candidates.shape == (2, 4)
        assert set(candidates[0]) == {0, 1, 2}
        assert set(candidates[1]) == {0, 1, 2}
        assert candidates[:, -1].tolist() == [2, 0]

    def test_ignores_padding(self):
        labels = np.array([0, 1, 2])
        candidates = candidate_label_block(labels, np.array([[-1, 1]]),
                                           labels[[0]])
        assert set(candidates[0]) == {0, 1}

    def test_unique(self):
        # Every neighbour shares the sample's cluster: the row repeats one
        # cluster κ+1 times, and the sweep charges one evaluation for it.
        data = np.random.default_rng(0).normal(size=(4, 3))
        neighbors = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
        state = ClusterState(data, np.full(4, 3), 4)
        candidates = candidate_label_block(state.labels, neighbors,
                                           state.labels)
        assert np.unique(candidates).tolist() == [3]
        counter = DistanceCounter()
        moves = graph_guided_boost_pass(state, neighbors,
                                        np.random.default_rng(0),
                                        counter=counter)
        assert moves == 0
        assert counter.count == 4


class TestGraphGuidedPasses:
    def test_boost_pass_improves_objective(self, sift_small, sift_small_graph):
        labels = two_means_labels(sift_small, 15, random_state=0)
        state = ClusterState(sift_small, labels, 15)
        before = state.distortion
        moves = graph_guided_boost_pass(state, sift_small_graph.indices,
                                        np.random.default_rng(0))
        assert moves > 0
        assert state.distortion < before
        assert state.check_consistency()

    def test_boost_pass_never_empties_clusters(self, sift_small,
                                               sift_small_graph):
        labels = two_means_labels(sift_small, 15, random_state=0)
        state = ClusterState(sift_small, labels, 15)
        for _ in range(3):
            graph_guided_boost_pass(state, sift_small_graph.indices,
                                    np.random.default_rng(0))
        assert (np.bincount(state.labels, minlength=15) > 0).all()

    def test_lloyd_assign_only_picks_candidate_clusters(self, sift_small,
                                                        sift_small_graph):
        labels = two_means_labels(sift_small, 15, random_state=0)
        state = ClusterState(sift_small, labels, 15)
        centroids = state.centroids()
        new_labels = graph_guided_lloyd_assign(
            sift_small, labels, centroids, sift_small_graph.indices)
        for i in range(0, len(sift_small), 37):
            allowed = set(labels[sift_small_graph.indices[i]])
            allowed.add(labels[i])
            assert new_labels[i] in allowed

    def test_lloyd_assign_reduces_distortion(self, sift_small,
                                             sift_small_graph):
        labels = two_means_labels(sift_small, 15, random_state=0)
        state = ClusterState(sift_small, labels, 15)
        centroids = state.centroids()
        new_labels = graph_guided_lloyd_assign(
            sift_small, labels, centroids, sift_small_graph.indices)
        before = average_distortion(sift_small, labels, centroids)
        after = average_distortion(sift_small, new_labels, centroids)
        assert after <= before + 1e-9

    def test_lloyd_assign_block_invariance(self, sift_small,
                                           sift_small_graph):
        labels = two_means_labels(sift_small, 15, random_state=0)
        centroids = ClusterState(sift_small, labels, 15).centroids()
        a = graph_guided_lloyd_assign(sift_small, labels, centroids,
                                      sift_small_graph.indices, block_size=64)
        b = graph_guided_lloyd_assign(sift_small, labels, centroids,
                                      sift_small_graph.indices,
                                      block_size=10_000)
        assert np.array_equal(a, b)


class TestGKMeansEstimator:
    def test_recovers_blobs(self, blob_data):
        data, truth = blob_data
        model = GKMeans(6, n_neighbors=8, graph_tau=3,
                        graph_cluster_size=25, random_state=0).fit(data)
        assert normalized_mutual_information(model.labels_, truth) > 0.9

    def test_distortion_close_to_boost_kmeans(self, sift_small):
        """The paper's headline quality claim: GK-means lands very close to
        BKM (and typically below Lloyd)."""
        boost = BoostKMeans(15, random_state=0, max_iter=15).fit(sift_small)
        gk = GKMeans(15, n_neighbors=10, graph_tau=4, graph_cluster_size=40,
                     random_state=0, max_iter=15).fit(sift_small)
        assert gk.distortion_ <= boost.distortion_ * 1.10

    def test_beats_or_matches_lloyd(self, sift_small):
        lloyd = KMeans(15, random_state=0, max_iter=15).fit(sift_small)
        gk = GKMeans(15, n_neighbors=10, graph_tau=4, graph_cluster_size=40,
                     random_state=0, max_iter=15).fit(sift_small)
        assert gk.distortion_ <= lloyd.distortion_ * 1.05

    def test_explicit_graph_used(self, sift_small, sift_small_graph):
        model = GKMeans(15, n_neighbors=10, graph=sift_small_graph,
                        random_state=0, max_iter=10).fit(sift_small)
        assert model.graph_ is sift_small_graph
        assert model.result_.extra["graph_seconds"] == 0.0

    def test_graph_wider_than_kappa_truncated(self, sift_small,
                                              sift_small_graph):
        model = GKMeans(15, n_neighbors=5, graph=sift_small_graph,
                        random_state=0, max_iter=5).fit(sift_small)
        assert model.result_.extra["n_neighbors"] == 5

    def test_plain_index_array_accepted_as_graph(self, sift_small,
                                                 sift_small_graph):
        model = GKMeans(15, n_neighbors=10, graph=sift_small_graph.indices,
                        random_state=0, max_iter=5).fit(sift_small)
        assert model.labels_.shape == (len(sift_small),)

    def test_lloyd_assignment_variant(self, sift_small, sift_small_graph):
        gk_minus = GKMeans(15, n_neighbors=10, graph=sift_small_graph,
                           assignment="lloyd", random_state=0,
                           max_iter=15).fit(sift_small)
        assert gk_minus.result_.extra["assignment"] == "lloyd"
        assert gk_minus.distortion_ > 0

    def test_boost_assignment_beats_lloyd_assignment(self, sift_small,
                                                     sift_small_graph):
        """Fig. 4's conclusion: at the same graph quality, GK-means (boost)
        reaches lower distortion than GK-means⁻ (lloyd)."""
        boost = GKMeans(15, n_neighbors=10, graph=sift_small_graph,
                        assignment="boost", random_state=0,
                        max_iter=15).fit(sift_small)
        lloyd = GKMeans(15, n_neighbors=10, graph=sift_small_graph,
                        assignment="lloyd", random_state=0,
                        max_iter=15).fit(sift_small)
        assert boost.distortion_ <= lloyd.distortion_ + 1e-9

    def test_nn_descent_graph_builder(self, sift_small):
        model = GKMeans(15, n_neighbors=8, graph_builder="nn-descent",
                        random_state=0, max_iter=5).fit(sift_small)
        assert model.graph_ is not None
        assert model.result_.extra["graph_seconds"] > 0

    def test_brute_force_graph_builder(self, blob_data):
        data, _ = blob_data
        model = GKMeans(6, n_neighbors=8, graph_builder="brute-force",
                        random_state=0, max_iter=5).fit(data)
        assert model.labels_.shape == (data.shape[0],)

    def test_random_init_option(self, sift_small, sift_small_graph):
        model = GKMeans(15, n_neighbors=10, graph=sift_small_graph,
                        init="random", random_state=0, max_iter=10).fit(sift_small)
        assert len(np.unique(model.labels_)) > 1

    def test_label_array_init(self, sift_small, sift_small_graph):
        init = two_means_labels(sift_small, 15, random_state=0)
        model = GKMeans(15, n_neighbors=10, graph=sift_small_graph,
                        init=init, random_state=0, max_iter=5).fit(sift_small)
        assert model.labels_.shape == init.shape

    def test_invalid_assignment_rejected(self, sift_small, sift_small_graph):
        with pytest.raises(ValidationError):
            GKMeans(5, graph=sift_small_graph,
                    assignment="magic").fit(sift_small)

    def test_invalid_builder_rejected(self, sift_small):
        with pytest.raises(ValidationError):
            GKMeans(5, graph_builder="magic").fit(sift_small)

    def test_invalid_init_rejected(self, sift_small, sift_small_graph):
        with pytest.raises(ValidationError):
            GKMeans(5, graph=sift_small_graph, init="magic").fit(sift_small)
        with pytest.raises(ValidationError):
            GKMeans(5, graph=sift_small_graph,
                    init=np.zeros(3, dtype=int)).fit(sift_small)

    def test_history_distortion_non_increasing(self, sift_small,
                                               sift_small_graph):
        model = GKMeans(15, n_neighbors=10, graph=sift_small_graph,
                        random_state=0, max_iter=10).fit(sift_small)
        _, distortions = model.result_.distortion_curve()
        assert np.all(np.diff(distortions) <= 1e-9)

    def test_reproducible(self, sift_small):
        a = GKMeans(10, n_neighbors=8, graph_tau=2, graph_cluster_size=40,
                    random_state=11, max_iter=4).fit(sift_small)
        b = GKMeans(10, n_neighbors=8, graph_tau=2, graph_cluster_size=40,
                    random_state=11, max_iter=4).fit(sift_small)
        assert np.array_equal(a.labels_, b.labels_)

    def test_timing_split(self, sift_small):
        model = GKMeans(10, n_neighbors=8, graph_tau=2, graph_cluster_size=40,
                        random_state=0, max_iter=4).fit(sift_small)
        assert model.result_.init_seconds > 0
        assert model.result_.init_seconds >= model.result_.extra["graph_seconds"]

    def test_predict_after_fit(self, sift_small):
        model = GKMeans(10, n_neighbors=8, graph_tau=2, graph_cluster_size=40,
                        random_state=0, max_iter=4).fit(sift_small)
        predictions = model.predict(sift_small[:7])
        assert predictions.shape == (7,)
