"""Contracts of the scalar-quantized serving path.

Three guarantees, mirroring the layering of the feature:

* ``quantize="none"`` is **bitwise unchanged** — the CSR adjacency layout
  feeds the exact walk the very same neighbour arrays the list layout
  did, so results (and the save format's readability) are identical.
* ``quantize ∈ {"float16", "int8"}`` is an approximation with an **exact
  re-rank**: returned distances are true metric values, and recall@10 is
  pinned to a floor against the exact-search oracle across metric ×
  dtype × executor (thread, process, remote).
* Quantization state **persists**: int8 affine parameters ride in the
  mono NPZ (format v3) and sharded manifests (v5) carry the mode in the
  spec; every earlier format version still loads as ``quantize="none"``.
"""

import json

import numpy as np
import pytest

from repro.datasets import make_sift_like, train_query_split
from repro.distance import (
    DistanceEngine,
    QUANTIZE_MODES,
    QuantizedScorer,
    ScalarQuantizer,
    resolve_quantize,
)
from repro.exceptions import GraphError, ValidationError
from repro.graph import CSRAdjacency, brute_force_knn_graph
from repro.index import Index, IndexSpec, ShardedIndex
from repro.index.facade import FORMAT_VERSION
from repro.search import GraphSearcher, frontier_batch_search
from repro.search.quantized import quantized_batch_search


@pytest.fixture(scope="module")
def corpus():
    data = make_sift_like(700, 16, random_state=23)
    return train_query_split(data, 60, random_state=23)


def _recall(indices, truth):
    hits = sum(len(set(map(int, row)) & set(map(int, true))) / true.size
               for row, true in zip(indices, truth))
    return hits / truth.shape[0]


def _spec(**overrides):
    params = dict(backend="bruteforce", n_neighbors=10, pool_size=48,
                  seed_sample=128, random_state=5)
    params.update(overrides)
    return IndexSpec(**params)


class TestScalarQuantizer:
    def test_resolve_accepts_aliases(self):
        assert resolve_quantize("fp16") == "float16"
        assert resolve_quantize("half") == "float16"
        assert resolve_quantize("i8") == "int8"
        assert resolve_quantize("off") == "none"
        assert resolve_quantize(None) == "none"
        for mode in QUANTIZE_MODES:
            assert resolve_quantize(mode) == mode

    def test_resolve_rejects_unknown(self):
        with pytest.raises(ValidationError, match="quantize"):
            resolve_quantize("int4")

    def test_int8_roundtrip_error_bounded_by_half_step(self, rng):
        data = rng.normal(size=(200, 12)) * np.linspace(0.1, 50, 12)
        quantizer = ScalarQuantizer("int8").fit(data)
        decoded = quantizer.decode(quantizer.encode(data))
        error = np.abs(decoded - data)
        assert np.all(error <= quantizer.scale / 2 + 1e-6)

    def test_constant_dimension_survives(self):
        data = np.ones((50, 3))
        data[:, 1] = np.arange(50, dtype=float)
        quantizer = ScalarQuantizer("int8").fit(data)
        decoded = quantizer.decode(quantizer.encode(data))
        assert np.allclose(decoded[:, 0], 1.0)
        assert np.all(np.isfinite(quantizer.scale))

    def test_none_mode_rejects_fit(self):
        with pytest.raises(ValidationError):
            ScalarQuantizer("none").fit(np.ones((4, 2)))

    def test_mismatched_params_rejected(self):
        with pytest.raises(ValidationError):
            ScalarQuantizer("int8", scale=np.ones(3), offset=np.zeros(4))


class TestCSRAdjacency:
    def test_rows_roundtrip_and_slicing(self, rng):
        rows = [np.sort(rng.choice(30, size=rng.integers(1, 8),
                                   replace=False)).astype(np.int64)
                for _ in range(30)]
        csr = CSRAdjacency.from_rows(rows)
        assert len(csr) == 30
        assert csr.n_edges == sum(row.size for row in rows)
        for node, row in enumerate(rows):
            assert np.array_equal(np.asarray(csr[node], dtype=np.int64),
                                  row)
        back = csr.to_rows()
        assert all(np.array_equal(a, b) for a, b in zip(back, rows))

    def test_from_rows_passes_through_csr(self, rng):
        rows = [np.array([1, 2]), np.array([0])]
        csr = CSRAdjacency.from_rows(rows)
        assert CSRAdjacency.from_rows(csr) is csr

    def test_gather_equals_concatenated_rows(self, rng, corpus):
        """``gather(nodes)`` is ``np.concatenate([csr[i] for i in nodes])``
        plus the row lengths: repeated nodes, empty rows, no nodes at all,
        and the ragged graph ``insert_points`` leaves behind."""
        rows = [np.sort(rng.choice(40, size=rng.integers(0, 9),
                                   replace=False)).astype(np.int64)
                for _ in range(40)]
        rows[7] = rows[23] = np.empty(0, dtype=np.int64)
        base, queries = corpus
        searcher = GraphSearcher(base, brute_force_knn_graph(base, 8),
                                 random_state=0)
        searcher.insert_points(queries[:10])
        ragged = searcher._adjacency
        assert np.unique(np.diff(ragged.indptr)).size > 2
        for csr in (CSRAdjacency.from_rows(rows), ragged):
            n = len(csr)
            for nodes in (np.array([3, 7, 3, 3, 23, n - 1, 0, 7]),
                          np.array([7, 23]),
                          np.array([], dtype=np.int64),
                          rng.integers(0, n, size=200)):
                flat, lengths = csr.gather(nodes)
                assert lengths.tolist() == [len(csr[i]) for i in nodes]
                expected = [csr[i] for i in nodes]
                assert np.array_equal(
                    flat, np.concatenate(expected) if expected
                    else np.empty(0, dtype=np.int32))
                assert flat.dtype == csr.indices.dtype

    def test_invalid_indptr_rejected(self):
        with pytest.raises(GraphError):
            CSRAdjacency(np.array([1, 0]), np.array([0]))

    def test_exact_walk_bitwise_identical_to_list_adjacency(self, corpus):
        """The CSR layout is a pure storage change for ``quantize="none"``."""
        base, queries = corpus
        graph = brute_force_knn_graph(base, 8)
        rows = graph.symmetrized_adjacency()
        as_list = frontier_batch_search(
            base, rows, queries, 6, pool_size=32,
            rng=np.random.default_rng(3))
        as_csr = frontier_batch_search(
            base, CSRAdjacency.from_rows(rows), queries, 6, pool_size=32,
            rng=np.random.default_rng(3))
        assert as_list[0].tobytes() == as_csr[0].tobytes()
        assert as_list[1].tobytes() == as_csr[1].tobytes()
        assert as_list[2].tobytes() == as_csr[2].tobytes()


class TestSpecPlumbing:
    def test_default_is_none_and_roundtrips(self):
        spec = _spec()
        assert spec.quantize == "none"
        assert IndexSpec.from_json(spec.to_json()) == spec

    def test_aliases_normalised_at_construction(self):
        assert _spec(quantize="fp16").quantize == "float16"
        assert _spec(quantize="i8").quantize == "int8"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError, match="quantize"):
            _spec(quantize="int2")

    def test_old_spec_json_without_quantize_defaults_to_none(self):
        payload = _spec().to_dict()
        del payload["quantize"]
        assert IndexSpec.from_dict(payload).quantize == "none"


class TestQuantizedRecallFloor:
    """Quantized recall@10 ≥ 0.95 × the exact search's recall@10."""

    @pytest.mark.parametrize("metric", ["sqeuclidean", "cosine", "dot"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("quantize", ["float16", "int8"])
    def test_metric_dtype_grid(self, corpus, metric, dtype, quantize):
        base, queries = corpus
        engine = DistanceEngine(metric, dtype)
        dists = engine.cross(engine.prepare(queries), engine.prepare(base))
        truth = np.argsort(dists, axis=1, kind="stable")[:, :10]
        exact = Index.build(base, _spec(metric=metric, dtype=dtype))
        floor = 0.95 * _recall(exact.search(queries, 10)[0], truth)
        quantized = Index.build(
            base, _spec(metric=metric, dtype=dtype, quantize=quantize))
        idx, dist = quantized.search(queries, 10)
        assert _recall(idx, truth) >= floor
        # Returned distances are exact metric values, not compressed
        # approximations: re-scoring the returned ids reproduces them.
        expected = dists[np.arange(len(queries))[:, None], idx]
        assert np.allclose(dist, expected, rtol=1e-5, atol=1e-5)

    def test_workers_and_repeats_bitwise_invariant(self, corpus):
        base, queries = corpus
        index = Index.build(base, _spec(quantize="int8"))
        one = index.search(queries, 8)
        again = index.search(queries, 8)
        four = index.search(queries, 8, workers=4)
        assert one[0].tobytes() == again[0].tobytes() == four[0].tobytes()
        assert one[1].tobytes() == again[1].tobytes() == four[1].tobytes()

    def test_direct_walk_matches_index_surface(self, corpus):
        base, queries = corpus
        index = Index.build(base, _spec(quantize="int8"))
        searcher = index._searcher
        idx, dist, evals, stats = quantized_batch_search(
            searcher.data, searcher._adjacency, index.engine_.prepare(
                queries), 8, searcher._quantized_scorer(),
            pool_size=index.spec.pool_size,
            n_starts=searcher.n_starts,
            seed_sample=searcher.seed_sample,
            engine=index.engine_, data_norms=searcher._data_norms,
            rng=np.random.default_rng(index.spec.random_state))
        s_idx, s_dist = index.search(queries, 8)
        assert np.array_equal(idx, s_idx)
        assert np.array_equal(dist, s_dist)
        assert stats.n_queries == len(queries)

    def test_scorer_block_matches_decoded_engine(self, corpus):
        base, _ = corpus
        engine = DistanceEngine("sqeuclidean", "float32")
        data = engine.prepare(base)
        quantizer = ScalarQuantizer("int8").fit(data)
        scorer = QuantizedScorer(engine, quantizer, data)
        queries = data[:5]
        folded, bias = scorer.prepare_queries(queries)
        rows = np.arange(40, dtype=np.int64)
        block = scorer.block(folded, bias, engine.norms(queries), rows)
        decoded = quantizer.decode(scorer.codes[rows])
        expected = engine.cross(queries, engine.prepare(decoded))
        # Same math, different float32 summation order (one folded gemm
        # vs. decode-then-cross) — tolerance covers accumulation drift.
        assert np.allclose(block, expected, rtol=1e-3, atol=0.5)


class TestQuantizedPersistence:
    def test_mono_int8_roundtrip_preserves_parameters(self, corpus,
                                                      tmp_path):
        base, queries = corpus
        index = Index.build(base, _spec(quantize="int8"))
        path = tmp_path / "q.idx"
        index.save(path)
        with np.load(path, allow_pickle=False) as archive:
            assert int(archive["format_version"]) == FORMAT_VERSION == 3
            assert "quantizer_scale" in archive.files
            assert "quantizer_offset" in archive.files
        restored = Index.load(path)
        assert restored.spec.quantize == "int8"
        assert np.array_equal(restored.quantizer.scale,
                              index.quantizer.scale)
        assert np.array_equal(restored.quantizer.offset,
                              index.quantizer.offset)
        before = index.search(queries, 8)
        after = restored.search(queries, 8)
        assert before[0].tobytes() == after[0].tobytes()
        assert before[1].tobytes() == after[1].tobytes()

    def test_mono_float16_roundtrip(self, corpus, tmp_path):
        base, queries = corpus
        index = Index.build(base, _spec(quantize="float16"))
        path = tmp_path / "h.idx"
        index.save(path)
        restored = Index.load(path)
        assert restored.spec.quantize == "float16"
        assert before_eq_after(index, restored, queries)

    def test_none_index_file_carries_no_quantizer_keys(self, corpus,
                                                       tmp_path):
        base, _ = corpus
        index = Index.build(base, _spec())
        path = tmp_path / "plain.idx"
        index.save(path)
        with np.load(path, allow_pickle=False) as archive:
            assert "quantizer_scale" not in archive.files

    @pytest.mark.parametrize("version", [1, 2])
    def test_older_mono_versions_load_as_unquantized(self, corpus,
                                                     tmp_path, version):
        base, queries = corpus
        index = Index.build(base, _spec())
        path = tmp_path / "old.idx"
        index.save(path)
        payload = dict(np.load(path, allow_pickle=False))
        if version == 1:
            for key in ("ids", "tombstones", "next_id", "generation"):
                del payload[key]
        payload["format_version"] = np.int64(version)
        spec_payload = json.loads(str(payload["spec_json"]))
        spec_payload.pop("quantize")
        payload["spec_json"] = np.asarray(
            json.dumps(spec_payload, sort_keys=True))
        np.savez(path, **payload)
        restored = Index.load(path)
        assert restored.spec.quantize == "none"
        assert restored.quantizer is None
        assert before_eq_after(index, restored, queries)

    def test_sharded_int8_roundtrip(self, corpus, tmp_path):
        base, queries = corpus
        spec = _spec(quantize="int8", n_shards=3, partitioner="gkmeans")
        sharded = ShardedIndex.build(base, spec)
        path = tmp_path / "q.shards"
        sharded.save(path)
        with np.load(path / "manifest.npz", allow_pickle=False) as archive:
            assert int(archive["sharded_format_version"]) == 5
        restored = ShardedIndex.load(path)
        try:
            assert restored.spec.quantize == "int8"
            for shard in restored.shards:
                assert shard.spec.quantize == "int8"
                assert shard.quantizer is not None
            assert before_eq_after(sharded, restored, queries)
        finally:
            restored.close()
        sharded.close()

    @pytest.mark.parametrize("version", [3, 4])
    def test_older_manifests_load_as_unquantized(self, corpus, tmp_path,
                                                 version):
        base, queries = corpus
        spec = _spec(n_shards=3, partitioner="gkmeans")
        sharded = ShardedIndex.build(base, spec)
        path = tmp_path / "old.shards"
        sharded.save(path)
        manifest = dict(np.load(path / "manifest.npz", allow_pickle=False))
        manifest["sharded_format_version"] = np.int64(version)
        spec_payload = json.loads(str(manifest["spec_json"]))
        spec_payload.pop("quantize")
        manifest["spec_json"] = np.asarray(
            json.dumps(spec_payload, sort_keys=True))
        np.savez(path / "manifest.npz", **manifest)
        restored = ShardedIndex.load(path)
        try:
            assert restored.spec.quantize == "none"
            assert before_eq_after(sharded, restored, queries)
        finally:
            restored.close()
        sharded.close()


def before_eq_after(before, after, queries):
    """True when both indexes answer a search byte-for-byte identically."""
    b_idx, b_dist = before.search(queries, 8)
    a_idx, a_dist = after.search(queries, 8)
    return (b_idx.tobytes() == a_idx.tobytes()
            and b_dist.tobytes() == a_dist.tobytes())


class TestQuantizedExecutors:
    """``executor`` stays a pure throughput knob under quantization."""

    @pytest.fixture(scope="class")
    def quantized_sharded(self, tmp_path_factory):
        data = make_sift_like(400, 12, random_state=7)
        base, queries = train_query_split(data, 32, random_state=7)
        spec = IndexSpec(backend="bruteforce", n_neighbors=8, n_shards=3,
                         partitioner="gkmeans", quantize="int8",
                         random_state=11)
        sharded = ShardedIndex.build(base, spec)
        path = tmp_path_factory.mktemp("quantized") / "served.shards"
        sharded.save(path)
        yield sharded, queries, path
        sharded.close()

    @staticmethod
    def _search_bytes(index, queries, **kwargs):
        idx, dist = index.search(queries, 6, **kwargs)
        evals = index.last_per_query_evaluations
        return idx.tobytes() + dist.tobytes() + evals.tobytes()

    def test_thread_and_process_bitwise_equal_serial(self,
                                                     quantized_sharded):
        sharded, queries, _ = quantized_sharded
        serial = self._search_bytes(sharded, queries, shard_workers=1)
        for executor in ("thread", "process"):
            assert self._search_bytes(sharded, queries, executor=executor,
                                      shard_workers=2) == serial

    def test_process_round_trip_from_disk(self, quantized_sharded):
        sharded, queries, path = quantized_sharded
        restored = ShardedIndex.load(path)
        try:
            assert self._search_bytes(restored, queries,
                                      executor="process") \
                == self._search_bytes(sharded, queries, executor="thread")
        finally:
            restored.close()

    def test_remote_bitwise_equals_thread(self, quantized_sharded):
        from repro.net import ShardServer

        sharded, queries, _ = quantized_sharded
        servers = [ShardServer(sharded.shards[shard], shard_id=shard,
                               generation=sharded.generation)
                   for shard in range(sharded.n_shards)]
        for server in servers:
            server.start()
        try:
            sharded.endpoints = [server.endpoint for server in servers]
            assert self._search_bytes(sharded, queries,
                                      executor="remote") \
                == self._search_bytes(sharded, queries, executor="thread")
        finally:
            sharded.endpoints = None
            for server in servers:
                server.close()

    def test_quantized_recall_holds_through_sharding(self,
                                                     quantized_sharded):
        sharded, queries, _ = quantized_sharded
        engine = DistanceEngine("sqeuclidean", "float64")
        # Oracle over the original corpus: rebuild it from the shards'
        # global ids so the comparison is id-exact.
        n = sharded.n_rows
        data = np.empty((n, sharded.shards[0].data.shape[1]))
        for shard, ids in zip(sharded.shards, sharded.shard_ids):
            data[ids] = shard.data
        dists = engine.cross(engine.prepare(queries), engine.prepare(data))
        truth = np.argsort(dists, axis=1, kind="stable")[:, :6]
        idx, _ = sharded.search(queries, 6)
        assert _recall(idx, truth) >= 0.9


class TestQuantizedMutations:
    def test_insert_keeps_parameters_compact_refits(self, corpus):
        base, queries = corpus
        index = Index.build(base[:-20], _spec(quantize="int8"))
        scale_before = index.quantizer.scale.copy()
        index.insert(base[-20:] * 10.0)  # far outside the fitted range
        assert np.array_equal(index.quantizer.scale, scale_before)
        index.delete(list(range(5)))
        index.compact()
        assert not np.array_equal(index.quantizer.scale, scale_before)
        idx, dist = index.search(queries, 5)
        assert idx.shape == (len(queries), 5)
        assert np.isfinite(dist).all()
