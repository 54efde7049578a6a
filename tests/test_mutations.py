"""Determinism contract of online index mutations.

``insert``/``delete``/``compact`` are *incremental* operations — the point
is not rebuilding — but their serving results must stay anchored to a
from-scratch rebuild: in the exhaustive regime (candidate pool covering
the whole corpus, entry sample scoring every point) a mutated index's
searches are exact, so they must equal a rebuild-from-scratch oracle over
the same live rows up to bitwise distance ties, across metric × dtype,
mono and sharded, and every executor.  Tombstoned ids must never appear in
results, mutated state must survive a save/load round-trip byte-for-byte,
and pre-mutation persistence formats (mono v1, sharded v1–v3) must still
load.

The serving-path sweep rides along: a daemon serving a stale generation
(or the wrong shard) is surfaced as a ``ServingError`` by the remote
executor's handshake — never silent wrong results — and the ``reload``
RPC moves a daemon onto the new generation, after which remote serving is
again bit-for-bit identical to the local executors.
"""

import numpy as np
import pytest

from repro.datasets import make_sift_like, train_query_split
from repro.exceptions import ServingError, ValidationError
from repro.index import Index, IndexSpec, ShardedIndex
from repro.index.facade import FORMAT_VERSION

ENGINE_CONFIGS = [("sqeuclidean", "float64"), ("sqeuclidean", "float32"),
                  ("cosine", "float64"), ("cosine", "float32"),
                  ("dot", "float64")]


def _exhaustive_spec(n_base, metric, dtype, **overrides):
    """A spec whose greedy walk provably returns the true top-k (see
    test_serving_determinism)."""
    return IndexSpec(backend="bruteforce", n_neighbors=12, n_starts=8,
                     pool_size=n_base, seed_sample=n_base, metric=metric,
                     dtype=dtype, random_state=5, **overrides)


def _assert_rows_match_up_to_ties(s_idx, s_dist, o_idx, o_dist, *,
                                  rtol, label):
    """Per-row id equality, permitting permutations of tied distances."""
    s_idx, o_idx = np.atleast_2d(s_idx), np.atleast_2d(o_idx)
    s_dist, o_dist = np.atleast_2d(s_dist), np.atleast_2d(o_dist)
    for row in range(s_idx.shape[0]):
        if np.array_equal(s_idx[row], o_idx[row]):
            continue
        np.testing.assert_allclose(
            s_dist[row], o_dist[row], rtol=rtol, atol=rtol,
            err_msg=f"{label} row {row}: mutated index diverged from the "
                    "rebuild oracle")
        differs = s_idx[row] != o_idx[row]
        tied = np.isclose(s_dist[row][differs], o_dist[row][differs],
                          rtol=rtol, atol=rtol)
        assert np.all(tied), \
            f"{label} row {row}: ids differ at non-tied distances"


def _rebuild_oracle(full_data, live_ids, metric, dtype):
    """A from-scratch exhaustive index over the live rows, searching in
    external-id terms: returns a ``search(queries, k)`` callable."""
    data = np.ascontiguousarray(full_data[live_ids])
    spec = _exhaustive_spec(data.shape[0], metric, dtype)
    oracle = Index.build(data, spec)

    def search(queries, k):
        idx, dist = oracle.search(queries, k)
        reached = idx >= 0
        return np.where(reached,
                        live_ids[np.where(reached, idx, 0)], -1), dist

    return search


@pytest.fixture(scope="module")
def corpus():
    data = make_sift_like(300, 10, random_state=21)
    base, queries = train_query_split(data, 24, random_state=21)
    extra = make_sift_like(40, 10, random_state=22)[:13]
    return base, extra, queries


class TestMonoMutationOracle:
    """Mutated monolithic searches == rebuild oracle, metric × dtype."""

    DELETED = [3, 57, 260, 199]

    @pytest.mark.parametrize("metric,dtype", ENGINE_CONFIGS)
    def test_insert_delete_compact_match_rebuild(self, corpus, metric,
                                                 dtype, tmp_path):
        base, extra, queries = corpus
        rtol = 1e-9 if dtype == "float64" else 1e-5
        index = Index.build(base, _exhaustive_spec(base.shape[0], metric,
                                                   dtype))
        new_ids = index.insert(extra)
        assert np.array_equal(
            new_ids, np.arange(base.shape[0],
                               base.shape[0] + extra.shape[0]))
        assert index.delete(self.DELETED) == len(self.DELETED)
        assert index.generation == 2

        full = np.vstack([base, extra])
        live_ids = np.setdiff1d(np.arange(full.shape[0]),
                                np.asarray(self.DELETED))
        oracle = _rebuild_oracle(full, live_ids, metric, dtype)
        o_idx, o_dist = oracle(queries, 10)

        s_idx, s_dist = index.search(queries, 10)
        label = f"mono/{metric}/{dtype}"
        _assert_rows_match_up_to_ties(s_idx, s_dist, o_idx, o_dist,
                                      rtol=rtol, label=label)
        assert not np.any(np.isin(s_idx, self.DELETED))

        # The save/load round-trip serves the tombstoned state verbatim.
        path = tmp_path / f"{metric}-{dtype}.idx"
        index.save(path)
        restored = Index.load(path)
        r_idx, r_dist = restored.search(queries, 10)
        assert r_idx.tobytes() == s_idx.tobytes()
        assert r_dist.tobytes() == s_dist.tobytes()
        assert restored.generation == index.generation
        assert np.array_equal(restored.tombstone_ids, index.tombstone_ids)

        # Compaction removes the tombstones physically; answers persist.
        assert index.compact() == len(self.DELETED)
        assert index.n_tombstones == 0
        assert np.array_equal(np.sort(index.ids), live_ids)
        c_idx, c_dist = index.search(queries, 10)
        _assert_rows_match_up_to_ties(c_idx, c_dist, o_idx, o_dist,
                                      rtol=rtol,
                                      label=label + "/compacted")

    def test_single_query_path_filters_tombstones(self, corpus):
        base, extra, queries = corpus
        index = Index.build(base, _exhaustive_spec(base.shape[0],
                                                   "sqeuclidean",
                                                   "float64"))
        # Delete the true nearest neighbours of query 0 to force the
        # single-query over-fetch/filter path to actually matter.
        near, _ = index.search(queries[0], 3)
        index.delete(near)
        idx, dist = index.search(queries[0], 5)
        assert idx.shape == (5,) and dist.shape == (5,)
        assert not np.any(np.isin(idx, near))
        live_ids = np.setdiff1d(np.arange(base.shape[0]), near)
        oracle = _rebuild_oracle(base, live_ids, "sqeuclidean", "float64")
        o_idx, o_dist = oracle(queries[0], 5)
        _assert_rows_match_up_to_ties(idx, dist, o_idx, o_dist,
                                      rtol=1e-9, label="single-query")

    def test_ids_never_reused_after_compaction(self, corpus):
        base, extra, _ = corpus
        index = Index.build(base, _exhaustive_spec(base.shape[0],
                                                   "sqeuclidean",
                                                   "float64"))
        index.delete([base.shape[0] - 1])
        index.compact()
        new_ids = index.insert(extra[:1])
        # The compacted-away id stays retired: next_id keeps counting.
        assert new_ids[0] == base.shape[0]

    def test_caller_assigned_ids_round_trip(self, corpus, tmp_path):
        base, extra, queries = corpus
        index = Index.build(base, _exhaustive_spec(base.shape[0],
                                                   "sqeuclidean",
                                                   "float64"))
        custom = np.array([900, 512, 777])
        assert np.array_equal(index.insert(extra[:3], ids=custom), custom)
        idx, _ = index.search(extra[:3], 1)
        assert np.array_equal(idx.ravel(), custom)
        path = tmp_path / "custom.idx"
        index.save(path)
        restored = Index.load(path)
        r_idx, _ = restored.search(extra[:3], 1)
        assert np.array_equal(r_idx.ravel(), custom)
        # A later default-id insert continues past the custom ids.
        assert restored.insert(extra[3:4])[0] == 901

    def test_mutation_validation(self, corpus):
        base, extra, _ = corpus
        index = Index.build(base, _exhaustive_spec(base.shape[0],
                                                   "sqeuclidean",
                                                   "float64"))
        with pytest.raises(ValidationError, match="dimension"):
            index.insert(np.zeros((2, 4)))
        with pytest.raises(ValidationError, match="unique"):
            index.insert(extra[:2], ids=[500, 500])
        with pytest.raises(ValidationError, match="already in the index"):
            index.insert(extra[:1], ids=[7])
        with pytest.raises(ValidationError, match="not in the index"):
            index.delete([10_000])
        with pytest.raises(ValidationError, match="duplicate"):
            index.delete([1, 1])
        index.delete([7])
        with pytest.raises(ValidationError, match="already deleted"):
            index.delete([7])
        with pytest.raises(ValidationError, match="already in the index"):
            # Tombstoned ids stay reserved until compaction.
            index.insert(extra[:1], ids=[7])
        with pytest.raises(ValidationError, match="fewer than 2"):
            index.delete(np.setdiff1d(np.arange(base.shape[0]), [7])[:-1])
        assert index.compact() == 1
        assert index.compact() == 0      # no-op, and no generation bump
        generation = index.generation
        assert index.compact() == 0 and index.generation == generation

    def test_evaluation_scores_mutated_index_in_external_ids(self,
                                                             corpus):
        """evaluate_search's oracle must cover live rows under external
        ids — on an exhaustive mutated index recall stays 1.0 (it read
        ~0.03 when the oracle compared raw positions to external ids)."""
        from repro.search import evaluate_search

        base, extra, queries = corpus
        index = Index.build(base, _exhaustive_spec(base.shape[0],
                                                   "sqeuclidean",
                                                   "float64"))
        index.insert(extra)
        index.delete(self.DELETED)
        result = evaluate_search(index, queries, n_results=10)
        assert result.recall_at_1 == 1.0
        assert result.recall_at_k == 1.0

    def test_v1_index_file_still_loads(self, corpus, tmp_path):
        """A pre-mutation (format v1) NPZ loads as an unmutated index."""
        base, _, queries = corpus
        index = Index.build(base, _exhaustive_spec(base.shape[0],
                                                   "sqeuclidean",
                                                   "float64"))
        path = tmp_path / "v1.idx"
        index.save(path)
        with np.load(path, allow_pickle=False) as archive:
            payload = {key: archive[key] for key in archive.files}
        assert int(payload["format_version"]) == FORMAT_VERSION == 3
        for key in ("ids", "tombstones", "next_id", "generation"):
            del payload[key]
        payload["format_version"] = np.int64(1)
        np.savez(path, **payload)
        restored = Index.load(path)
        assert restored.generation == 0
        assert restored.n_tombstones == 0
        assert np.array_equal(restored.ids, np.arange(base.shape[0]))
        b_idx, b_dist = index.search(queries, 6)
        r_idx, r_dist = restored.search(queries, 6)
        assert r_idx.tobytes() == b_idx.tobytes()
        assert r_dist.tobytes() == b_dist.tobytes()


class TestShardedMutationOracle:
    """Mutated sharded searches == rebuild oracle, every executor."""

    DELETED = [11, 140, 285]

    def _mutated(self, corpus, metric, dtype, partitioner="gkmeans"):
        base, extra, queries = corpus
        spec = _exhaustive_spec(base.shape[0], metric, dtype, n_shards=3,
                                partitioner=partitioner)
        sharded = ShardedIndex.build(base, spec)
        sharded.insert(extra)
        sharded.delete(self.DELETED)
        full = np.vstack([base, extra])
        live_ids = np.setdiff1d(np.arange(full.shape[0]),
                                np.asarray(self.DELETED))
        return sharded, full, live_ids, queries

    @pytest.mark.parametrize("metric,dtype", ENGINE_CONFIGS[:4])
    def test_mutated_sharded_matches_rebuild(self, corpus, metric, dtype,
                                             tmp_path):
        rtol = 1e-9 if dtype == "float64" else 1e-5
        sharded, full, live_ids, queries = self._mutated(corpus, metric,
                                                         dtype)
        oracle = _rebuild_oracle(full, live_ids, metric, dtype)
        o_idx, o_dist = oracle(queries, 10)
        s_idx, s_dist = sharded.search(queries, 10)
        label = f"sharded/{metric}/{dtype}"
        _assert_rows_match_up_to_ties(s_idx, s_dist, o_idx, o_dist,
                                      rtol=rtol, label=label)
        assert not np.any(np.isin(s_idx, self.DELETED))

        path = tmp_path / f"{metric}-{dtype}.shards"
        sharded.save(path)
        restored = ShardedIndex.load(path)
        try:
            r_idx, r_dist = restored.search(queries, 10)
            assert r_idx.tobytes() == s_idx.tobytes()
            assert r_dist.tobytes() == s_dist.tobytes()
            assert restored.shard_generations == sharded.shard_generations
        finally:
            restored.close()

        sharded.compact()
        c_idx, c_dist = sharded.search(queries, 10)
        _assert_rows_match_up_to_ties(c_idx, c_dist, o_idx, o_dist,
                                      rtol=rtol,
                                      label=label + "/compacted")
        sharded.close()

    @pytest.mark.parametrize("metric,dtype", [("sqeuclidean", "float64"),
                                              ("cosine", "float32")])
    def test_rebalance_after_mutations_matches_rebuild(self, corpus,
                                                       metric, dtype):
        from repro.index import RebalancePolicy

        rtol = 1e-9 if dtype == "float64" else 1e-5
        sharded, full, live_ids, queries = self._mutated(corpus, metric,
                                                         dtype)
        try:
            sizes = sorted(sharded.shard_sizes)
            report = sharded.rebalance(RebalancePolicy(
                max_shard_rows=max(sizes[-1] - 20, sizes[0] + 2),
                min_shard_rows=sizes[0] + 1))
            assert report.changed and report.topology_changed
            oracle = _rebuild_oracle(full, live_ids, metric, dtype)
            o_idx, o_dist = oracle(queries, 10)
            s_idx, s_dist = sharded.search(queries, 10)
            _assert_rows_match_up_to_ties(
                s_idx, s_dist, o_idx, o_dist, rtol=rtol,
                label=f"rebalanced/{metric}/{dtype}")
            assert not np.any(np.isin(s_idx, self.DELETED))
        finally:
            sharded.close()

    def test_executors_bitwise_identical_on_mutated_index(self, corpus):
        sharded, _, _, queries = self._mutated(corpus, "sqeuclidean",
                                               "float64")
        try:
            t_idx, t_dist = sharded.search(queries, 8, executor="thread",
                                           shard_workers=2)
            t_evals = sharded.last_per_query_evaluations.copy()
            p_idx, p_dist = sharded.search(queries, 8, executor="process",
                                           shard_workers=2)
            assert p_idx.tobytes() == t_idx.tobytes()
            assert p_dist.tobytes() == t_dist.tobytes()
            assert sharded.last_per_query_evaluations.tobytes() \
                == t_evals.tobytes()
            # workers invariance holds on mutated indexes too.
            w_idx, w_dist = sharded.search(queries, 8, workers=4,
                                           shard_workers=4)
            assert w_idx.tobytes() == t_idx.tobytes()
            assert w_dist.tobytes() == t_dist.tobytes()
        finally:
            sharded.close()

    def test_remote_bitwise_identical_on_mutated_index(self, corpus):
        from repro.net import ShardServer

        sharded, _, _, queries = self._mutated(corpus, "sqeuclidean",
                                               "float64")
        servers = [ShardServer(sharded.shards[shard], shard_id=shard,
                               generation=sharded.shards[shard].generation)
                   for shard in range(sharded.n_shards)]
        try:
            for server in servers:
                server.start()
            sharded.endpoints = [server.endpoint for server in servers]
            t_idx, t_dist = sharded.search(queries, 8, executor="thread")
            r_idx, r_dist = sharded.search(queries, 8, executor="remote",
                                           shard_workers=2)
            assert r_idx.tobytes() == t_idx.tobytes()
            assert r_dist.tobytes() == t_dist.tobytes()
        finally:
            sharded.close()
            for server in servers:
                server.close()

    def test_round_robin_insert_places_by_id(self, corpus):
        sharded, _, _, _ = self._mutated(corpus, "sqeuclidean", "float64",
                                         partitioner="round_robin")
        try:
            total = sum(ids.size for ids in sharded.shard_ids)
            assert total == sharded.n_rows
            n_base = sharded.n_rows - 13          # 13 inserted rows
            for shard, ids in enumerate(sharded.shard_ids):
                inserted = ids[ids >= n_base]
                assert np.all(inserted % sharded.n_shards == shard)
        finally:
            sharded.close()

    def test_gkmeans_insert_routes_to_nearest_centroid(self, corpus):
        base, extra, _ = corpus
        spec = _exhaustive_spec(base.shape[0], "sqeuclidean", "float64",
                                n_shards=3, partitioner="gkmeans")
        sharded = ShardedIndex.build(base, spec)
        try:
            expected = sharded._route(
                np.ascontiguousarray(extra), 1)[:, 0]
            new_ids = sharded.insert(extra)
            lookup = sharded._lookup_global()
            placed = np.array([lookup[int(value)][0] for value in new_ids])
            assert np.array_equal(placed, expected)
        finally:
            sharded.close()

    def test_sharded_delete_validates_atomically(self, corpus):
        sharded, _, _, _ = self._mutated(corpus, "sqeuclidean", "float64")
        try:
            generation = sharded.generation
            with pytest.raises(ValidationError, match="not in the index"):
                sharded.delete([0, 99_999])
            assert sharded.generation == generation   # nothing mutated
            with pytest.raises(ValidationError, match="already deleted"):
                sharded.delete(self.DELETED[:1])
            assert sharded.generation == generation
        finally:
            sharded.close()


class TestGenerationHandshake:
    """A stale or misrouted daemon is a ServingError, not wrong results."""

    @pytest.fixture()
    def served_mutable(self, corpus, tmp_path):
        from repro.net import ShardServer, load_shard_for_serving

        base, extra, queries = corpus
        spec = _exhaustive_spec(base.shape[0], "sqeuclidean", "float64",
                                n_shards=2, partitioner="gkmeans")
        sharded = ShardedIndex.build(base, spec)
        path = tmp_path / "served.shards"
        sharded.save(path)
        servers = []
        for shard in range(sharded.n_shards):
            index, shard_id, generation, _ = load_shard_for_serving(
                path, shard)
            servers.append(ShardServer(index, shard_id=shard_id,
                                       generation=generation,
                                       source_path=path))
            servers[-1].start()
        sharded.endpoints = [server.endpoint for server in servers]
        yield sharded, servers, path, extra, queries
        sharded.close()
        for server in servers:
            server.close()

    def test_stale_generation_daemon_is_serving_error(self,
                                                      served_mutable):
        sharded, servers, path, extra, queries = served_mutable
        baseline, _ = sharded.search(queries, 6, executor="remote")
        # Mutate and persist: the daemons keep serving the old directory
        # state (copy-on-write through the atomic rename)...
        sharded.insert(extra)
        sharded.save(path)
        # ...so they are now one generation behind what the index expects,
        # and the handshake must refuse them instead of serving silently.
        with pytest.raises(ServingError, match="generation"):
            sharded.search(queries, 6, executor="remote")

    def test_reload_rpc_moves_daemon_to_new_generation(self,
                                                       served_mutable):
        from repro.net import ShardClient

        sharded, servers, path, extra, queries = served_mutable
        sharded.insert(extra)
        sharded.delete([int(sharded.ids[0])])
        sharded.save(path)
        for server in servers:
            client = ShardClient(server.endpoint)
            info = client.reload()
            client.close()
            assert info["generation"] \
                == sharded.shards[info["shard_id"]].generation
            assert info["n_reloads"] == 1
        # Post-reload, remote serving is bit-for-bit the local fan-out.
        t_idx, t_dist = sharded.search(queries, 6, executor="thread")
        r_idx, r_dist = sharded.search(queries, 6, executor="remote")
        assert r_idx.tobytes() == t_idx.tobytes()
        assert r_dist.tobytes() == t_dist.tobytes()

    def test_wrong_shard_daemon_is_serving_error(self, served_mutable):
        sharded, servers, path, extra, queries = served_mutable
        # Swap the endpoint list: each daemon now answers for the other
        # shard — without the handshake this would merge wrong-shard rows.
        sharded.endpoints = [servers[1].endpoint, servers[0].endpoint]
        with pytest.raises(ServingError, match="shard"):
            sharded.search(queries, 6, executor="remote")


def test_insert_copies_whole_matrices_a_fixed_number_of_times(corpus,
                                                              monkeypatch):
    """``insert_points`` grows data / graph / norms once per call, not once
    per inserted row: the count of ``np.vstack`` / ``np.concatenate`` calls
    with an operand as tall as the corpus is the same for 4 rows and 32."""
    from repro.graph import brute_force_knn_graph
    from repro.search import GraphSearcher

    base, _, _ = corpus
    new_rows = make_sift_like(32, 10, random_state=23)
    graph = brute_force_knn_graph(base, 8)
    n = base.shape[0]
    tall_calls = []

    def counting(original):
        def wrapper(arrays, *args, **kwargs):
            arrays = list(arrays)
            if any(np.ndim(a) and np.shape(a)[0] >= n for a in arrays):
                tall_calls.append(original.__name__)
            return original(arrays, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(np, "vstack", counting(np.vstack))
    monkeypatch.setattr(np, "concatenate", counting(np.concatenate))
    counts = []
    for m in (4, 32):
        searcher = GraphSearcher(base, graph, random_state=0)
        tall_calls.clear()
        positions = searcher.insert_points(new_rows[:m])
        assert positions.tolist() == list(range(n, n + m))
        assert searcher.data.shape[0] == searcher.graph.n_points == n + m
        counts.append(len(tall_calls))
    assert counts[0] == counts[1] <= 2, counts
