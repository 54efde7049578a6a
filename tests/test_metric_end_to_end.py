"""End-to-end metric tests: the whole pipeline under cosine (and dot).

The dataset is built to be separable *angularly* but not by magnitude: every
cluster is a direction on the unit sphere and each sample sits at a random
radius along it.  Under cosine the clusters are trivial; under l2 the radii
smear them out — so these tests genuinely exercise the metric path rather
than re-testing l2 under a different name.

Thresholds mirror the existing l2 tests: NMI/ARI > 0.9 for GK-means on
separable clusters (``test_cluster_gkmeans.py``), NN-Descent recall ≥ 0.9
against the brute-force oracle, greedy-search recall@1 > 0.7 on an exact
graph (``test_search.py``).
"""

import numpy as np
import pytest

from repro.cluster import ElkanKMeans, GKMeans, HamerlyKMeans, KMeans
from repro.exceptions import ValidationError
from repro.graph import (
    NNDescent,
    brute_force_knn_graph,
    build_knn_graph_by_clustering,
    graph_recall,
)
from repro.metrics import adjusted_rand_index, normalized_mutual_information
from repro.search import GraphSearcher, evaluate_search


def make_angular_blobs(n_samples: int, n_features: int, n_clusters: int, *,
                       noise: float = 0.06, random_state=0):
    """Clusters separated by direction, deliberately mixed by magnitude."""
    rng = np.random.default_rng(random_state)
    # Orthonormal directions (QR of a Gaussian matrix): clusters are maximally
    # separated in angle, the cosine analogue of well-separated blob centres.
    directions, _ = np.linalg.qr(rng.normal(size=(n_features, n_features)))
    directions = directions[:n_clusters]
    labels = np.repeat(np.arange(n_clusters), n_samples // n_clusters)
    labels = np.concatenate(
        [labels, rng.integers(0, n_clusters, size=n_samples - labels.size)])
    radii = rng.uniform(0.5, 3.0, size=n_samples)
    data = (directions[labels] * radii[:, None]
            + noise * rng.normal(size=(n_samples, n_features)))
    return data, labels


@pytest.fixture(scope="module")
def angular_data():
    return make_angular_blobs(420, 16, 6, random_state=0)


@pytest.fixture(scope="module")
def cosine_truth(angular_data):
    data, _ = angular_data
    return brute_force_knn_graph(data, 10, metric="cosine")


class TestCosineClustering:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_gkmeans_recovers_angular_blobs(self, angular_data, dtype):
        data, truth = angular_data
        model = GKMeans(6, n_neighbors=8, graph_tau=3, graph_cluster_size=25,
                        random_state=0, metric="cosine", dtype=dtype).fit(data)
        # same bar as the existing l2 blob test (NMI > 0.9)
        assert normalized_mutual_information(model.labels_, truth) > 0.9
        assert adjusted_rand_index(model.labels_, truth) > 0.75

    def test_cosine_is_scale_invariant_where_l2_collapses(self, angular_data):
        """The property that makes the metric worth having: rescaling every
        sample must not change a cosine clustering at all (the rows are
        normalised before any distance is computed), while the same model
        under squared-Euclidean falls apart on the rescaled data."""
        data, truth = angular_data
        rng = np.random.default_rng(9)
        scaled = data * rng.uniform(0.05, 20.0, size=(data.shape[0], 1))
        plain = GKMeans(6, n_neighbors=8, graph_tau=3, graph_cluster_size=25,
                        random_state=0, metric="cosine").fit(data)
        rescaled = GKMeans(6, n_neighbors=8, graph_tau=3,
                           graph_cluster_size=25, random_state=0,
                           metric="cosine").fit(scaled)
        assert np.array_equal(plain.labels_, rescaled.labels_)
        l2 = GKMeans(6, n_neighbors=8, graph_tau=3, graph_cluster_size=25,
                     random_state=0).fit(scaled)
        assert (adjusted_rand_index(rescaled.labels_, truth)
                > adjusted_rand_index(l2.labels_, truth) + 0.3)

    def test_gkmeans_cosine_with_nn_descent_builder(self, angular_data):
        data, truth = angular_data
        model = GKMeans(6, n_neighbors=8, graph_builder="nn-descent",
                        random_state=0, metric="cosine").fit(data)
        assert adjusted_rand_index(model.labels_, truth) > 0.9

    @pytest.mark.parametrize("estimator", [KMeans, ElkanKMeans, HamerlyKMeans])
    def test_lloyd_family_under_cosine(self, angular_data, estimator):
        data, truth = angular_data
        model = estimator(6, init="k-means++", random_state=3,
                          max_iter=20, metric="cosine").fit(data)
        assert normalized_mutual_information(model.labels_, truth) > 0.85

    def test_elkan_matches_lloyd_under_cosine(self, angular_data):
        """The triangle-inequality bounds stay exact in the normalised space."""
        data, _ = angular_data
        lloyd = KMeans(6, init="k-means++", random_state=3, max_iter=20,
                       metric="cosine").fit(data)
        elkan = ElkanKMeans(6, init="k-means++", random_state=3, max_iter=20,
                            metric="cosine").fit(data)
        assert elkan.distortion_ == pytest.approx(lloyd.distortion_, rel=1e-6)

    def test_predict_normalizes_new_data(self, angular_data):
        data, _ = angular_data
        model = GKMeans(6, n_neighbors=8, graph_tau=3, graph_cluster_size=25,
                        random_state=0, metric="cosine").fit(data)
        # scaling a sample must not change its cosine assignment
        assert model.predict(data[:20]).tolist() == \
            model.predict(data[:20] * 37.0).tolist()

    def test_boost_kmeans_predict_under_cosine(self, angular_data):
        """BoostKMeans must use the engine-aware predict path too (it used to
        override it with the raw l2 kernel)."""
        from repro.cluster import BoostKMeans
        data, _ = angular_data
        model = BoostKMeans(6, random_state=0, max_iter=15,
                            metric="cosine").fit(data)
        assert model.predict(data[:20]).tolist() == \
            model.predict(data[:20] * 37.0).tolist()


class TestCosineGraphs:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_nn_descent_recall_against_oracle(self, angular_data,
                                              cosine_truth, dtype):
        data, _ = angular_data
        graph = NNDescent(n_neighbors=10, random_state=0, metric="cosine",
                          dtype=dtype).build(data)
        assert graph.metric == "cosine"
        assert graph_recall(graph, cosine_truth) >= 0.9

    def test_construction_recall_against_oracle(self, angular_data,
                                                cosine_truth):
        data, _ = angular_data
        result = build_knn_graph_by_clustering(
            data, 10, tau=5, cluster_size=40, random_state=0, metric="cosine")
        assert result.graph.metric == "cosine"
        assert graph_recall(result.graph, cosine_truth) > 0.7

    def test_construction_distances_are_cosine(self, angular_data):
        """The returned distances must match the metric engine (d = 1 - cos),
        not the internal normalised-l2 working values."""
        data, _ = angular_data
        graph = build_knn_graph_by_clustering(
            data, 5, tau=3, cluster_size=40, random_state=0,
            metric="cosine").graph
        unit = data / np.linalg.norm(data, axis=1, keepdims=True)
        for point in [0, 57, 311]:
            for slot in range(5):
                j = graph.indices[point, slot]
                expected = 1.0 - float(unit[point] @ unit[j])
                assert graph.distances[point, slot] == pytest.approx(
                    expected, abs=1e-9)

    def test_sampled_recall_uses_graph_metric(self, angular_data,
                                              cosine_truth):
        """The sampling-based recall estimator must score a cosine graph
        against the cosine oracle, not the l2 one."""
        from repro.graph import estimate_recall_by_sampling
        data, _ = angular_data
        recall = estimate_recall_by_sampling(cosine_truth, data, n_probes=60,
                                             random_state=0)
        assert recall == pytest.approx(1.0)

    def test_searcher_rejects_metric_mismatch(self, angular_data,
                                              cosine_truth):
        from repro.exceptions import GraphError
        data, _ = angular_data
        with pytest.raises(GraphError, match="metric"):
            GraphSearcher(data, cosine_truth)  # default sqeuclidean searcher

    def test_brute_force_agrees_with_normalized_l2(self, angular_data,
                                                   cosine_truth):
        """Cosine neighbours == l2 neighbours of the normalised data."""
        data, _ = angular_data
        unit = data / np.linalg.norm(data, axis=1, keepdims=True)
        l2_graph = brute_force_knn_graph(unit, 10)
        agree = np.mean(l2_graph.indices[:, 0] == cosine_truth.indices[:, 0])
        assert agree > 0.99


class TestCosineSearch:
    @pytest.fixture(scope="class")
    def search_setup(self):
        corpus, _ = make_angular_blobs(700, 16, 6, random_state=3)
        base, queries = corpus[:640], corpus[640:]
        graph = brute_force_knn_graph(base, 10, metric="cosine")
        return base, queries, graph

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_recall_on_exact_graph(self, search_setup, dtype):
        base, queries, graph = search_setup
        searcher = GraphSearcher(base, graph, pool_size=48, random_state=0,
                                 metric="cosine", dtype=dtype)
        evaluation = evaluate_search(searcher, queries, n_results=5)
        assert evaluation.recall_at_1 > 0.7
        assert evaluation.recall_at_k > 0.6

    def test_batched_matches_sequential(self, search_setup):
        base, queries, graph = search_setup
        sequential = GraphSearcher(base, graph, pool_size=48, random_state=0,
                                   metric="cosine")
        batched = GraphSearcher(base, graph, pool_size=48, random_state=0,
                                metric="cosine")
        idx_b, _ = batched.batch_query(queries[:20], 1)
        hits = 0
        for row in range(20):
            idx_s, _ = sequential.query(queries[row], 1)
            hits += int(idx_s[0] == idx_b[row, 0])
        # entry points are random, so exact equality is not guaranteed — but
        # both modes must land on the same nearest neighbour almost always
        assert hits >= 17

    def test_multi_row_query_rejected(self, search_setup):
        """The single-query API must refuse a query matrix instead of
        silently answering for row 0."""
        from repro.exceptions import GraphError
        base, queries, graph = search_setup
        searcher = GraphSearcher(base, graph, random_state=0,
                                 metric="cosine")
        with pytest.raises(GraphError, match="dimension"):
            searcher.query(queries[:3], 5)

    def test_scaling_query_invariant(self, search_setup):
        base, queries, graph = search_setup
        searcher = GraphSearcher(base, graph, pool_size=48, random_state=0,
                                 metric="cosine")
        a, _ = searcher.query(queries[0], 5)
        searcher._rng = np.random.default_rng(0)  # reset entry-point draws
        searcher2 = GraphSearcher(base, graph, pool_size=48, random_state=0,
                                  metric="cosine")
        b, _ = searcher2.query(queries[0] * 1000.0, 5)
        assert np.array_equal(a, b)


class TestDotMetric:
    def test_graph_matches_cosine_on_unit_sphere(self, angular_data):
        """On normalised data, largest inner product == smallest cosine
        distance, so the two brute-force graphs must agree."""
        data, _ = angular_data
        unit = data / np.linalg.norm(data, axis=1, keepdims=True)
        dot_graph = brute_force_knn_graph(unit, 5, metric="dot")
        cos_graph = brute_force_knn_graph(unit, 5, metric="cosine")
        assert np.mean(dot_graph.indices[:, 0]
                       == cos_graph.indices[:, 0]) > 0.99
        # dot distances are negated inner products: legitimately negative
        assert (dot_graph.distances < 0).any()
        dot_graph.validate()   # must not flag the negative distances

    def test_nn_descent_dot(self, angular_data):
        data, _ = angular_data
        truth = brute_force_knn_graph(data, 8, metric="dot")
        graph = NNDescent(n_neighbors=8, random_state=0, metric="dot"
                          ).build(data)
        assert graph_recall(graph, truth) >= 0.9

    def test_greedy_search_dot(self, angular_data):
        data, _ = angular_data
        truth = brute_force_knn_graph(data, 10, metric="dot")
        searcher = GraphSearcher(data, truth, pool_size=48, random_state=0,
                                 metric="dot")
        evaluation = evaluate_search(searcher, data[:40], n_results=5)
        assert evaluation.recall_at_1 > 0.7

    def test_gkmeans_dot_lloyd_assignment(self, angular_data):
        data, _ = angular_data
        graph = brute_force_knn_graph(data, 8, metric="dot")
        model = GKMeans(6, n_neighbors=8, graph=graph, assignment="lloyd",
                        init="random", random_state=0, max_iter=8,
                        metric="dot").fit(data)
        assert model.labels_.shape == (data.shape[0],)
        assert len(np.unique(model.labels_)) > 1

    def test_gkmeans_dot_boost_rejected(self, angular_data):
        data, _ = angular_data
        with pytest.raises(ValidationError, match="boost"):
            GKMeans(6, n_neighbors=8, graph_builder="brute-force",
                    metric="dot").fit(data)

    def test_elkan_dot_rejected(self, angular_data):
        data, _ = angular_data
        with pytest.raises(ValidationError, match="metric"):
            ElkanKMeans(6, metric="dot").fit(data)

    def test_construction_dot_rejected(self, angular_data):
        data, _ = angular_data
        with pytest.raises(ValidationError, match="k-means geometry"):
            build_knn_graph_by_clustering(data, 5, metric="dot")


class TestFloat32Pipeline:
    def test_float32_matches_float64_quality(self, angular_data):
        data, truth = angular_data
        f32 = GKMeans(6, n_neighbors=8, graph_tau=3, graph_cluster_size=25,
                      random_state=0, metric="cosine", dtype=np.float32
                      ).fit(data)
        f64 = GKMeans(6, n_neighbors=8, graph_tau=3, graph_cluster_size=25,
                      random_state=0, metric="cosine").fit(data)
        assert abs(f32.distortion_ - f64.distortion_) < 1e-3
        assert adjusted_rand_index(f32.labels_, f64.labels_) > 0.9

    def test_l2_float32_pipeline(self, sift_small):
        model = GKMeans(15, n_neighbors=10, graph_tau=4,
                        graph_cluster_size=40, random_state=0, max_iter=15,
                        dtype=np.float32).fit(sift_small)
        f64 = GKMeans(15, n_neighbors=10, graph_tau=4, graph_cluster_size=40,
                      random_state=0, max_iter=15).fit(sift_small)
        assert model.distortion_ <= f64.distortion_ * 1.05
