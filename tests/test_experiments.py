"""Tests for the experiment harness (runner, report, per-figure drivers).

The figure/table drivers are executed at a tiny scale here;
``tests/test_reproduction.py`` runs them at the paper-shaped scale.  Where a
test checks a shape the paper reports, it evaluates that claim's row of
``repro.experiments.reproduction.CLAIMS`` on the tiny run.
"""

import numpy as np
import pytest

from repro.datasets import make_sift_like
from repro.exceptions import ValidationError
from repro.experiments import (
    ablations,
    anns_probe,
    available_methods,
    fig1_cooccurrence,
    fig2_graph_evolution,
    fig4_configuration,
    fig5_quality,
    fig67_scalability,
    format_seconds,
    render_series,
    render_table,
    run_method,
    table1_datasets,
    table2_large_k,
)
from repro.experiments.config import ExperimentScale
from repro.experiments.reproduction import CLAIMS

#: Very small preset so the whole experiment module suite runs in seconds.
TINY = ExperimentScale(n_samples=600, n_features=12, n_clusters=15,
                       n_neighbors=8, cluster_size=30, graph_tau=2,
                       max_iter=4, random_state=0)

_CLAIMS = {claim.id: claim for claims in CLAIMS.values() for claim in claims}


def holds(claim_id, payload):
    """Whether the paper's claim ``claim_id`` holds on a ``TINY`` run."""
    return _CLAIMS[claim_id].evaluate(payload, TINY)["holds"]


class TestRunner:
    def test_all_registered_methods_run(self):
        data = make_sift_like(300, 8, random_state=0)
        for method in available_methods():
            options = {}
            if method in {"GK-means", "GK-means-", "KGraph+GK-means"}:
                options = {"n_neighbors": 5, "graph_tau": 1,
                           "graph_cluster_size": 20}
            run = run_method(method, data, 10, max_iter=3, random_state=0,
                             **options)
            assert run.result.labels.shape == (300,)
            assert run.distortion > 0
            assert run.total_seconds >= 0

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            run_method("dbscan", np.zeros((10, 2)), 2)

    def test_paper_legend_names_present(self):
        names = available_methods()
        for expected in ("k-means", "BKM", "Mini-Batch", "closure k-means",
                         "GK-means", "GK-means-", "KGraph+GK-means"):
            assert expected in names


class TestReport:
    def test_render_table_alignment_and_missing(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 10}]
        text = render_table(rows, title="demo")
        assert "demo" in text
        assert "a" in text and "b" in text
        assert "-" in text  # missing value placeholder

    def test_render_table_empty(self):
        assert "(no rows)" in render_table([])

    def test_render_series_subsamples(self):
        series = {"curve": (list(range(100)), list(range(100)))}
        text = render_series(series, max_points=5)
        assert "curve" in text
        assert text.count("->") <= 8 + 1

    def test_format_seconds_units(self):
        assert format_seconds(5.0).endswith("s")
        assert format_seconds(300.0).endswith("min")
        assert format_seconds(7200.0).endswith("h")


class TestFig1:
    def test_shapes_and_chance_gap(self):
        payload = fig1_cooccurrence.run(TINY, cluster_size=30, max_rank=15)
        assert set(payload["series"]) == {"k-means", "2M tree"}
        for ranks, curve in payload["series"].values():
            assert len(ranks) == len(curve) == 15
        assert holds("fig1.kmeans.above_chance", payload)
        assert holds("fig1.2m_tree.above_chance", payload)


class TestFig2:
    def test_recall_rises_distortion_falls(self):
        payload = fig2_graph_evolution.run(TINY, tau=4)
        taus, recalls = payload["series"]["recall"]
        assert list(taus) == [1, 2, 3, 4]
        assert holds("fig2.recall_rises", payload)
        assert holds("fig2.distortion_falls", payload)
        assert payload["final_recall"] == pytest.approx(recalls[-1])


class TestFig4:
    def test_boost_dominates_lloyd_assignment(self):
        payload = fig4_configuration.run(TINY, tau_budgets=(1, 3),
                                         nn_descent_budgets=(1, 3))
        series = payload["series"]
        assert set(series) == {"GK-means", "GK-means-", "KGraph+GK-means"}
        assert holds("fig4.boost_beats_lloyd", payload)


class TestFig5:
    def test_structure_and_gkmeans_quality(self):
        payload = fig5_quality.run(TINY, datasets=("sift1m",),
                                   methods=("Mini-Batch", "k-means", "BKM",
                                            "GK-means"))
        content = payload["datasets"]["sift1m"]
        rows = {row["method"]: row for row in content["table"]}
        assert set(rows) == {"Mini-Batch", "k-means", "BKM", "GK-means"}
        assert holds("fig5.sift1m.gk_beats_minibatch", payload)
        # Tighter than the claim's 25% (fig5.sift1m.gk_near_bkm) at this size.
        assert rows["GK-means"]["final_distortion"] <= \
            rows["BKM"]["final_distortion"] * 1.15
        for method in rows:
            iterations, distortions = content["vs_iteration"][method]
            assert len(iterations) == len(distortions) > 0

    def test_cosine_metric_threaded_through(self):
        """``scale.metric``/``scale.dtype`` reach every fig5 method."""
        payload = fig5_quality.run(
            TINY.scaled(metric="cosine", dtype="float32"),
            datasets=("glove1m",), methods=("k-means", "GK-means"))
        assert payload["metadata"]["metric"] == "cosine"
        assert payload["metadata"]["dtype"] == "float32"
        rows = {row["method"]: row for row in
                payload["datasets"]["glove1m"]["table"]}
        assert set(rows) == {"k-means", "GK-means"}
        # Cosine distortion lives in [0, 2] per point — a squared-Euclidean
        # run on this data would report values orders of magnitude larger.
        for row in rows.values():
            assert 0.0 <= row["final_distortion"] <= 2.0


class TestFig67:
    def test_sweep_structure(self):
        payload = fig67_scalability.run_size_sweep(
            TINY, sizes=(200, 400), n_clusters=10,
            methods=("k-means", "GK-means"))
        assert len(payload["table"]) == 4
        sizes, seconds = payload["series"]["k-means"]
        assert list(sizes) == [200, 400]
        assert all(s >= 0 for s in seconds)

    def test_cluster_sweep_gkmeans_flatter_than_kmeans(self):
        payload = fig67_scalability.run_cluster_sweep(
            TINY, cluster_counts=(10, 40), n_samples=600,
            methods=("k-means", "GK-means"))
        by_method = payload["series"]
        # growth factor of iteration cost with k should be smaller for
        # GK-means than for k-means (Fig. 6b's defining shape).  Wall-clock at
        # this tiny scale is noisy, so only require GK-means not to blow up.
        k_growth = by_method["k-means"][1][-1] / max(by_method["k-means"][1][0],
                                                     1e-9)
        g_growth = by_method["GK-means"][1][-1] / max(by_method["GK-means"][1][0],
                                                      1e-9)
        assert g_growth < max(k_growth, 4.0) * 5

    def test_cosine_metric_threaded_through_sweeps(self):
        """``scale.metric``/``scale.dtype`` reach both fig6/fig7 sweeps."""
        cosine = TINY.scaled(metric="cosine")
        size_sweep = fig67_scalability.run_size_sweep(
            cosine, sizes=(200, 400), n_clusters=10, methods=("GK-means",))
        cluster_sweep = fig67_scalability.run_cluster_sweep(
            cosine, cluster_counts=(8, 16), n_samples=400,
            methods=("GK-means",))
        for payload in (size_sweep, cluster_sweep):
            assert payload["metadata"]["metric"] == "cosine"
            for row in payload["table"]:
                # cosine distortion is bounded by 2 per point
                assert 0.0 <= row["distortion"] <= 2.0


class TestTables:
    def test_table1_rows(self):
        payload = table1_datasets.run(TINY, sample_size=100)
        assert holds("table1.four_datasets", payload)
        sift = next(r for r in payload["table"] if r["dataset"] == "sift1m")
        assert sift["paper_size"] == 1_000_000
        assert sift["paper_dim"] == 128

    def test_table2_rows_and_shape(self):
        payload = table2_large_k.run(TINY, samples_per_cluster=10,
                                     n_samples=400)
        assert holds("table2.three_methods", payload)
        assert payload["metadata"]["n_clusters"] == 40
        assert holds("table2.gk_vs_closure_distortion", payload)
        for row in payload["table"]:
            assert row["total_seconds"] >= row["init_seconds"]


class TestAnnsProbe:
    def test_probe_reports_both_graphs(self):
        payload = anns_probe.run(TINY, n_queries=30, n_results=5,
                                 pool_size=32)
        graphs = {row["graph"] for row in payload["table"]}
        assert len(graphs) == 2
        for row in payload["table"]:
            assert 0.0 <= row["recall@1"] <= 1.0
            assert row["query_ms"] > 0
            assert row["qps"] > 0

    def test_probe_workers_do_not_change_results(self):
        sequential = anns_probe.run(TINY, n_queries=20, n_results=5,
                                    pool_size=32)
        parallel = anns_probe.run(TINY, n_queries=20, n_results=5,
                                  pool_size=32, workers=2)
        assert parallel["metadata"]["workers"] == 2
        for seq_row, par_row in zip(sequential["table"], parallel["table"]):
            assert seq_row["recall@1"] == par_row["recall@1"]
            assert seq_row["recall@5"] == par_row["recall@5"]
            assert seq_row["distance_evals"] == par_row["distance_evals"]

    def test_probe_compares_shard_counts(self):
        payload = anns_probe.run(TINY, n_queries=20, n_results=5,
                                 pool_size=32, n_shards=2)
        assert payload["metadata"]["n_shards"] == 2
        shard_counts = [row["shards"] for row in payload["table"]]
        # one monolithic and one 2-shard row per backend
        assert shard_counts.count(1) == shard_counts.count(2) == 2
        for row in payload["table"]:
            assert 0.0 <= row["recall@5"] <= 1.0
            assert row["qps"] > 0
            if row["shards"] > 1:
                assert "shards" in row["graph"]

    def test_probe_reports_routed_frontier(self):
        payload = anns_probe.run(TINY, n_queries=20, n_results=5,
                                 pool_size=32, n_shards=2,
                                 partitioner="gkmeans")
        assert payload["metadata"]["shard_probes"] == [1, 2]
        for backend in {row["graph"].split(" × ")[0]
                        for row in payload["table"]}:
            rows = [row for row in payload["table"]
                    if row["graph"].split(" × ")[0] == backend
                    and row["shards"] == 2]
            # one row per routed fan-out, full probe last
            assert [row["shard_probe"] for row in rows] == [1, 2]
            # widening the probe can only add candidates
            assert rows[0]["recall@5"] <= rows[1]["recall@5"] + 1e-12
            assert "(probe 1)" in rows[0]["graph"]


class TestAblations:
    def test_kappa_sweep(self):
        payload = ablations.sweep_kappa(TINY, kappas=(3, 8))
        assert [row["kappa"] for row in payload["table"]] == [3, 8]
        assert holds("ablations.kappa.distortion_stable", {"kappa": payload})

    def test_tau_sweep_recall_increases(self):
        payload = ablations.sweep_tau(TINY, taus=(1, 4))
        assert holds("ablations.tau.recall_grows", {"tau": payload})

    def test_xi_sweep_structure(self):
        payload = ablations.sweep_xi(TINY, xis=(20, 40))
        assert len(payload["table"]) == 2
        for row in payload["table"]:
            assert 0 <= row["recall"] <= 1

    def test_assignment_comparison(self):
        payload = ablations.compare_assignment(TINY)
        assert holds("ablations.assignment.boost_beats_lloyd",
                     {"assignment": payload})

    def test_equal_size_comparison(self):
        payload = ablations.compare_equal_size(TINY)
        rows = {row["equal_size"]: row for row in payload["table"]}
        # the equal-size variant must keep every leaf within ~2x of n/k and
        # never produce empty clusters
        assert holds("ablations.equal_size.leaf_bound", {"equal_size": payload})
        assert rows[True]["min_cluster"] >= 1
        assert rows[False]["min_cluster"] >= 0
