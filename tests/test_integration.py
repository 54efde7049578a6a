"""End-to-end integration tests crossing module boundaries.

These tests exercise the full pipelines a user of the library would run:
building a graph with the paper's construction, clustering on top of it,
searching it, and round-tripping data through the on-disk formats.
"""

import numpy as np
import pytest

from repro import (
    BoostKMeans,
    GKMeans,
    KMeans,
    build_knn_graph_by_clustering,
    brute_force_knn_graph,
)
from repro.datasets import (
    load_dataset,
    make_vlad_like,
    read_fvecs,
    train_query_split,
    write_fvecs,
)
from repro.graph import graph_recall
from repro.index import Index, IndexSpec
from repro.metrics import average_distortion, neighbor_cooccurrence_curve
from repro.search import evaluate_search


class TestFullPipeline:
    """The paper's two-step procedure end-to-end on one dataset."""

    @pytest.fixture(scope="class")
    def pipeline(self):
        data = load_dataset("sift1m", 1200, 16, random_state=0)
        truth = brute_force_knn_graph(data, 10)
        construction = build_knn_graph_by_clustering(
            data, 10, tau=5, cluster_size=40, truth=truth, random_state=0)
        model = GKMeans(30, n_neighbors=10, graph=construction.graph,
                        max_iter=12, random_state=0).fit(data)
        return data, truth, construction, model

    def test_graph_quality(self, pipeline):
        _, truth, construction, _ = pipeline
        assert graph_recall(construction.graph, truth) > 0.7

    def test_clustering_quality_vs_baselines(self, pipeline):
        data, _, _, model = pipeline
        lloyd = KMeans(30, random_state=0, max_iter=12).fit(data)
        boost = BoostKMeans(30, random_state=0, max_iter=12).fit(data)
        # the paper's ordering: BKM <= GK-means < (approximately) Lloyd
        assert model.distortion_ <= lloyd.distortion_ * 1.05
        assert model.distortion_ <= boost.distortion_ * 1.10

    def test_distortion_reported_consistently(self, pipeline):
        data, _, _, model = pipeline
        recomputed = average_distortion(data, model.labels_)
        assert model.distortion_ == pytest.approx(recomputed, rel=1e-6)

    def test_cooccurrence_motivation_holds_on_result(self, pipeline):
        """After clustering, near neighbours overwhelmingly share clusters —
        the self-consistency the whole approach rests on."""
        _, truth, _, model = pipeline
        curve = neighbor_cooccurrence_curve(model.labels_, truth, max_rank=5)
        assert curve[0] > 0.5

    def test_graph_also_serves_ann_search(self, pipeline):
        data, _, construction, _ = pipeline
        base, queries = train_query_split(data, 50, random_state=1)
        # rebuild a graph for the reduced base set
        graph = build_knn_graph_by_clustering(base, 10, tau=5,
                                              cluster_size=40,
                                              random_state=0).graph
        index = Index(base, graph, IndexSpec(n_neighbors=10, pool_size=48,
                                             random_state=0))
        evaluation = evaluate_search(index, queries, n_results=10)
        assert evaluation.recall_at_1 > 0.5
        assert evaluation.mean_distance_evaluations < len(base) / 2


class TestLargeKSetting:
    def test_many_clusters_small_cluster_size(self):
        """Table 2's regime: n/k = 10.  GK-means must stay functional and
        produce non-degenerate clusters."""
        data = make_vlad_like(800, 24, random_state=0)
        model = GKMeans(80, n_neighbors=8, graph_tau=3, graph_cluster_size=30,
                        max_iter=8, random_state=0).fit(data)
        counts = np.bincount(model.labels_, minlength=80)
        assert (counts > 0).all()
        assert model.distortion_ < average_distortion(
            data, np.random.default_rng(0).integers(0, 80, size=800))


class TestDataRoundTripPipeline:
    def test_cluster_data_read_from_fvecs(self, tmp_path):
        """Real corpora arrive as fvecs; verify the whole path works."""
        original = load_dataset("gist1m", 400, 24, random_state=0)
        path = tmp_path / "gist.fvecs"
        write_fvecs(path, original)
        loaded = read_fvecs(path).astype(np.float64)
        model = GKMeans(10, n_neighbors=6, graph_tau=2, graph_cluster_size=30,
                        max_iter=5, random_state=0).fit(loaded)
        assert model.labels_.shape == (400,)


class TestCrossMethodAgreement:
    def test_all_methods_agree_on_obvious_structure(self, blob_data):
        """On well-separated blobs every method should find essentially the
        same partition (high pairwise NMI)."""
        from repro.metrics import normalized_mutual_information
        data, _ = blob_data
        gk = GKMeans(6, n_neighbors=8, graph_tau=3, graph_cluster_size=25,
                     max_iter=10, random_state=0).fit(data)
        lloyd = KMeans(6, init="k-means++", random_state=0).fit(data)
        boost = BoostKMeans(6, random_state=0, max_iter=15).fit(data)
        assert normalized_mutual_information(gk.labels_, lloyd.labels_) > 0.85
        assert normalized_mutual_information(gk.labels_, boost.labels_) > 0.85
