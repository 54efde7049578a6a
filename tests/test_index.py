"""Tests for the ``repro.index`` facade: spec validation, build/search,
NPZ persistence round-trips and frontier-merged batch-search parity."""

import json
import zipfile

import numpy as np
import pytest

from repro.datasets import make_sift_like, train_query_split
from repro.distance import METRICS, DistanceEngine
from repro.exceptions import GraphError, ValidationError
from repro.graph import brute_force_knn_graph
from repro.index import (
    BUILDERS,
    Index,
    IndexSpec,
    available_backends,
    register_builder,
)
from repro.search import evaluate_search, frontier_batch_search


@pytest.fixture(scope="module")
def corpus():
    data = make_sift_like(700, 12, random_state=5)
    return train_query_split(data, 40, random_state=5)


def _spec(backend, metric="sqeuclidean", dtype="float64", **kw):
    params = {"tau": 2, "cluster_size": 30} if backend == "gkmeans" else {}
    params.update(kw.pop("params", {}))
    return IndexSpec(backend=backend, n_neighbors=6, metric=metric,
                     dtype=dtype, random_state=3, params=params, **kw)


def _payload(path):
    with np.load(path) as archive:
        return {key: archive[key] for key in archive.files}


#: ``(value, padded, accepted)``: one graph distance set to ``value``, at a
#: padding slot when ``padded``, and whether the loader accepts it.
GRAPH_DISTANCE_CASES = [
    (np.nan, False, False), (-1.0, False, False), (np.inf, False, False),
    (np.nan, True, False), (np.inf, True, True), (-1.0, True, True)]


def _write_graph_distance(source, target, value, padded):
    """Write the index file ``source`` to ``target`` with row 7's last
    graph distance set to ``value`` (and its neighbour to the padding id
    ``-1`` when ``padded``)."""
    payload = _payload(source)
    payload["graph_distances"][7, -1] = value
    if padded:
        payload["graph_indices"][7, -1] = -1
    with open(target, "wb") as handle:
        np.savez(handle, **payload)


class TestIndexSpec:
    def test_defaults_valid(self):
        spec = IndexSpec()
        assert spec.backend == "gkmeans"
        assert spec.metric == "sqeuclidean"

    def test_metric_and_dtype_canonicalised(self):
        spec = IndexSpec(backend="nndescent", metric="l2", dtype=np.float32)
        assert spec.metric == "sqeuclidean"
        assert spec.dtype == "float32"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValidationError, match="backend"):
            IndexSpec(backend="annoy")

    def test_params_validated_against_backend(self):
        with pytest.raises(ValidationError, match="params"):
            IndexSpec(backend="nndescent", params={"tau": 3})

    def test_non_integer_seed_rejected(self):
        with pytest.raises(ValidationError, match="random_state"):
            IndexSpec(random_state=None)

    def test_json_round_trip(self):
        spec = _spec("gkmeans", metric="cosine", dtype="float32")
        assert IndexSpec.from_json(spec.to_json()) == spec

    def test_numpy_scalar_fields_coerced_and_serializable(self):
        spec = IndexSpec(backend="gkmeans", n_neighbors=np.int64(10),
                         pool_size=np.int64(16),
                         params={"tau": np.int64(4)})
        assert type(spec.n_neighbors) is int
        assert type(spec.params["tau"]) is int
        assert IndexSpec.from_json(spec.to_json()) == spec

    def test_non_serializable_params_rejected(self):
        with pytest.raises(ValidationError, match="JSON"):
            IndexSpec(backend="gkmeans",
                      params={"tau": np.arange(3)})

    def test_from_dict_rejects_unknown_keys(self):
        payload = IndexSpec().to_dict()
        payload["ef_construction"] = 200
        with pytest.raises(ValidationError, match="unknown keys"):
            IndexSpec.from_dict(payload)

    def test_replace_revalidates(self):
        spec = IndexSpec(backend="nndescent")
        with pytest.raises(ValidationError, match="metric"):
            spec.replace(metric="dot")

    def test_registry_lists_all_builtin_backends(self):
        assert available_backends() == ["bruteforce", "gkmeans",
                                        "nndescent", "random"]

    def test_register_builder_extends_registry(self):
        @register_builder("test-echo", description="test-only")
        def _build(data, spec):  # pragma: no cover - registry-only
            raise NotImplementedError
        try:
            assert "test-echo" in BUILDERS
            assert IndexSpec(backend="test-echo").backend == "test-echo"
        finally:
            del BUILDERS["test-echo"]


class TestBuildAndSearch:
    def test_build_runs_named_backend(self, corpus):
        base, _ = corpus
        index = Index.build(base, _spec("nndescent"))
        assert index.graph.n_neighbors == 6
        assert index.n_points == base.shape[0]
        assert index.build_seconds > 0

    def test_build_overrides_spec_fields(self, corpus):
        base, _ = corpus
        index = Index.build(base, backend="random", n_neighbors=4)
        assert index.spec.backend == "random"
        assert index.graph.n_neighbors == 4

    def test_single_query_returns_flat_arrays(self, corpus):
        base, queries = corpus
        index = Index.build(base, _spec("bruteforce"))
        ids, dists = index.search(queries[0], 5)
        assert ids.shape == (5,)
        assert np.all(np.diff(dists) >= 0)

    def test_batch_query_returns_matrices(self, corpus):
        base, queries = corpus
        index = Index.build(base, _spec("bruteforce"))
        ids, dists = index.search(queries, 5)
        assert ids.shape == (queries.shape[0], 5)
        assert dists.shape == (queries.shape[0], 5)

    def test_search_is_deterministic_across_calls(self, corpus):
        base, queries = corpus
        index = Index.build(base, _spec("nndescent"))
        first = index.search(queries, 5)
        second = index.search(queries, 5)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_per_query_evaluations_reported(self, corpus):
        base, queries = corpus
        index = Index.build(base, _spec("bruteforce"))
        evals = index.search(queries, 5).evaluations
        assert evals.shape == (queries.shape[0],)
        assert np.all(evals > 0)
        assert index.last_n_evaluations == int(evals.sum())

    def test_dimension_mismatch_rejected(self, corpus):
        base, _ = corpus
        index = Index.build(base, _spec("random"))
        with pytest.raises(GraphError, match="dimension"):
            index.search(np.zeros(3), 1)

    def test_graph_spec_metric_mismatch_rejected(self, corpus):
        base, _ = corpus
        graph = brute_force_knn_graph(base, 4)
        with pytest.raises(GraphError, match="metric"):
            Index(base, graph, _spec("bruteforce", metric="cosine"))

    def test_evaluate_search_accepts_index(self, corpus):
        base, queries = corpus
        index = Index.build(base, _spec("bruteforce"))
        evaluation = evaluate_search(index, queries, n_results=5)
        assert evaluation.recall_at_1 > 0.7
        assert len(evaluation.per_query_evaluations) == queries.shape[0]
        assert evaluation.mean_distance_evaluations == pytest.approx(
            np.mean(evaluation.per_query_evaluations))


ROUND_TRIP_CASES = [
    (backend, metric, dtype)
    for backend in ("gkmeans", "nndescent", "bruteforce", "random")
    for metric in METRICS
    for dtype in ("float64", "float32")
]


class TestPersistence:
    @pytest.mark.parametrize("backend,metric,dtype", ROUND_TRIP_CASES)
    def test_round_trip_preserves_search_bit_for_bit(self, tmp_path, corpus,
                                                     backend, metric, dtype):
        base, queries = corpus
        index = Index.build(base, _spec(backend, metric=metric, dtype=dtype))
        path = tmp_path / "corpus.idx"
        index.save(path)
        loaded = Index.load(path)

        assert loaded.spec == index.spec
        assert loaded.metric == index.metric
        assert np.array_equal(loaded.graph.indices, index.graph.indices)

        before_ids, before_dists = index.search(queries, 5)
        after_ids, after_dists = loaded.search(queries, 5)
        assert np.array_equal(before_ids, after_ids)
        assert np.array_equal(before_dists, after_dists)

        single_before = index.search(queries[3], 5)
        single_after = loaded.search(queries[3], 5)
        assert np.array_equal(single_before[0], single_after[0])
        assert np.array_equal(single_before[1], single_after[1])

    def test_save_writes_exact_path(self, tmp_path, corpus):
        base, _ = corpus
        index = Index.build(base, _spec("random"))
        path = tmp_path / "plain.index"       # no .npz suffix
        index.save(path)
        assert path.exists()

    def test_failed_save_preserves_existing_file(self, tmp_path, corpus,
                                                 monkeypatch):
        base, queries = corpus
        index = Index.build(base, _spec("random"))
        path = tmp_path / "serving.idx"
        index.save(path)

        def exploding_savez(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", exploding_savez)
        with pytest.raises(OSError):
            index.save(path)
        monkeypatch.undo()
        # The atomic write left the previous index intact and loadable.
        assert list(tmp_path.iterdir()) == [path]
        loaded = Index.load(path)
        assert np.array_equal(loaded.search(queries, 3)[0],
                              index.search(queries, 3)[0])

    def test_load_garbage_file_raises_validation_error(self, tmp_path):
        path = tmp_path / "garbage.idx"
        path.write_bytes(b"this is not an index file at all")
        with pytest.raises(ValidationError, match="cannot read"):
            Index.load(path)

    def test_load_truncated_file_raises_validation_error(self, tmp_path,
                                                         corpus):
        base, _ = corpus
        index = Index.build(base, _spec("random"))
        path = tmp_path / "whole.idx"
        index.save(path)
        clipped = tmp_path / "clipped.idx"
        clipped.write_bytes(path.read_bytes()[:120])
        with pytest.raises(ValidationError):
            Index.load(clipped)

    def test_load_missing_key_raises_validation_error(self, tmp_path, corpus):
        base, _ = corpus
        index = Index.build(base, _spec("random"))
        path = tmp_path / "ok.idx"
        index.save(path)
        stripped = tmp_path / "stripped.idx"
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files
                       if key != "spec_json"}
        with open(stripped, "wb") as handle:
            np.savez(handle, **payload)
        with pytest.raises(ValidationError, match="missing keys"):
            Index.load(stripped)

    def test_load_bad_spec_json_raises_validation_error(self, tmp_path,
                                                        corpus):
        base, _ = corpus
        index = Index.build(base, _spec("random"))
        path = tmp_path / "ok.idx"
        index.save(path)
        tampered = tmp_path / "tampered.idx"
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["spec_json"] = np.asarray("{not json")
        with open(tampered, "wb") as handle:
            np.savez(handle, **payload)
        with pytest.raises(ValidationError, match="JSON"):
            Index.load(tampered)

    def test_load_wrong_format_version_raises_validation_error(
            self, tmp_path, corpus):
        base, _ = corpus
        index = Index.build(base, _spec("random"))
        path = tmp_path / "ok.idx"
        index.save(path)
        future = tmp_path / "future.idx"
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["format_version"] = np.int64(999)
        with open(future, "wb") as handle:
            np.savez(handle, **payload)
        with pytest.raises(ValidationError, match="format version"):
            Index.load(future)

    @pytest.mark.parametrize("quantize", ["none", "int8"])
    @pytest.mark.parametrize("tamper", ["reversed", "truncated", "nan"])
    def test_load_ignores_saved_norms(self, tmp_path, corpus, tamper,
                                      quantize):
        """Norms are derived from the data, never read: a file carrying an
        earlier release's ``norms`` copy — reversed, truncated or NaN —
        serves bitwise what the untampered file serves."""
        base, queries = corpus
        index = Index.build(base, _spec("bruteforce", quantize=quantize))
        path = tmp_path / "ok.idx"
        index.save(path)
        payload = _payload(path)
        assert "norms" not in payload
        expected = Index.load(path).search(queries, 5)
        norms = index.shards[0]._searcher._data_norms
        bad = {"reversed": norms[::-1].copy(), "truncated": norms[:10],
               "nan": np.full_like(norms, np.nan)}[tamper]
        tampered = tmp_path / f"{tamper}.idx"
        with open(tampered, "wb") as handle:
            np.savez(handle, **payload, norms=bad)
        result = Index.load(tampered).search(queries, 5)
        assert result.indices.tobytes() == expected.indices.tobytes()
        assert result.distances.tobytes() == expected.distances.tobytes()

    @pytest.mark.parametrize("value, padded, accepted", GRAPH_DISTANCE_CASES)
    def test_load_checks_graph_distances(self, tmp_path, corpus, value,
                                         padded, accepted):
        """A neighbour's distance must be finite and non-negative, and no
        distance may be NaN; a padding slot (``-1``) may hold anything
        else."""
        base, queries = corpus
        index = Index.build(base, _spec("bruteforce"))
        path = tmp_path / "ok.idx"
        index.save(path)
        tampered = tmp_path / "tampered.idx"
        _write_graph_distance(path, tampered, value, padded)
        if accepted:
            assert Index.load(tampered).search(queries, 5).indices.shape \
                == (len(queries), 5)
            return
        with pytest.raises(ValidationError,
                           match="tampered.idx.*graph_distances"):
            Index.load(tampered)

    @pytest.mark.parametrize("value, padded, accepted", GRAPH_DISTANCE_CASES)
    def test_sharded_load_checks_graph_distances(self, tmp_path, corpus,
                                                 value, padded, accepted):
        """The shard files of a directory pass the same check, and the
        refusal names the shard file."""
        base, queries = corpus
        directory = tmp_path / "ok.shards"
        Index.build(base, _spec("bruteforce", n_shards=2)).save(
            directory)
        shard = directory / "shard_0001.idx"
        _write_graph_distance(shard, shard, value, padded)
        if accepted:
            with Index.load(directory) as loaded:
                assert loaded.search(queries, 5).indices.shape \
                    == (len(queries), 5)
            return
        with pytest.raises(ValidationError,
                           match="shard 1.*shard_0001.idx.*graph_distances"):
            Index.load(directory)

    def test_load_inconsistent_graph_raises_validation_error(self, tmp_path,
                                                             corpus):
        base, _ = corpus
        index = Index.build(base, _spec("random"))
        path = tmp_path / "ok.idx"
        index.save(path)
        broken = tmp_path / "broken.idx"
        with np.load(path) as archive:
            payload = {key: archive[key] for key in archive.files}
        payload["graph_indices"] = payload["graph_indices"][:10]
        with open(broken, "wb") as handle:
            np.savez(handle, **payload)
        with pytest.raises(ValidationError):
            Index.load(broken)

    def test_saved_file_is_single_npz(self, tmp_path, corpus):
        base, _ = corpus
        index = Index.build(base, _spec("bruteforce", metric="cosine"))
        path = tmp_path / "one.idx"
        index.save(path)
        with zipfile.ZipFile(path) as archive:
            names = {name.removesuffix(".npy")
                     for name in archive.namelist()}
        assert {"format_version", "spec_json", "data", "graph_indices",
                "graph_metric"} <= names


class CountingEngine(DistanceEngine):
    """DistanceEngine stub counting gemm (``cross``) invocations."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cross_calls = 0

    def cross(self, a, b, a_norms=None, b_norms=None):
        self.cross_calls += 1
        return super().cross(a, b, a_norms=a_norms, b_norms=b_norms)


class TestFrontierParity:
    @pytest.fixture(scope="class")
    def parity_setup(self):
        data = make_sift_like(900, 16, random_state=11)
        base, queries = train_query_split(data, 50, random_state=11)
        graph = brute_force_knn_graph(base, 10)
        return base, queries, graph.adjacency()

    def test_matches_single_query_calls_and_issues_fewer_gemms(
            self, parity_setup):
        base, queries, adjacency = parity_setup
        m = queries.shape[0]

        batch_engine = CountingEngine()
        batch_idx, batch_dist, batch_evals, _ = frontier_batch_search(
            base, adjacency, queries, 10, pool_size=32,
            engine=batch_engine)

        single_engine = CountingEngine()
        for row in range(m):
            # A query's seeds come from its own nearest cluster, so the
            # walks start from the same state — and a query's walk never
            # depends on who shares its batch.
            idx, dist, evals, _ = frontier_batch_search(
                base, adjacency, queries[row], 10, pool_size=32,
                engine=single_engine)
            assert np.array_equal(idx[0], batch_idx[row])
            assert np.array_equal(dist[0], batch_dist[row])
            assert evals[0] == batch_evals[row]

        assert batch_engine.cross_calls < single_engine.cross_calls

    def test_batch_evaluations_include_shared_gemm_rows(self, parity_setup):
        base, queries, adjacency = parity_setup
        _, _, evals, _ = frontier_batch_search(
            base, adjacency, queries, 5, pool_size=16)
        # Every query at least pays for its seeding: every centroid of the
        # default partition (about 50 rows per cluster) and one member.
        assert np.all(evals > base.shape[0] // 50)

    def test_sorted_results_and_padding(self, parity_setup):
        base, queries, adjacency = parity_setup
        idx, dist, _, _ = frontier_batch_search(
            base, adjacency, queries, 5, pool_size=16)
        finite = np.isfinite(dist)
        assert np.all(idx[finite] >= 0)
        for row in range(queries.shape[0]):
            row_dist = dist[row][finite[row]]
            assert np.all(np.diff(row_dist) >= 0)
