"""Determinism contract of the parallel serving layer.

``workers=N`` is a pure throughput knob: the group walks share no per-query
state, each worker mutates only its own group's rows, and the entry-point
sample is drawn once before any grouping — so every worker count must return
bit-for-bit identical neighbours, distances and evaluation counts.  These
tests enforce that contract at every layer (``frontier_batch_search``,
``GraphSearcher.batch_query``, ``Index.search``), across repeated runs with
the same seed, and across an ``Index.save``/``load`` round-trip.

The sharded layer extends the contract on two axes (the ``TestShard*``
classes below):

* ``shard_workers`` — the shard fan-out — is bit-for-bit invariant, like
  ``workers``, including across an ``Index.save``/``load`` round-trip.
* ``n_shards`` itself changes only *where* vectors live, not what a search
  returns: in the exhaustive regime (candidate pool covering every shard,
  entry sample scoring every point) sharded results must equal the
  unsharded single-index oracle up to bitwise distance ties, for every
  shard count, across metric × dtype.
"""

import os

import numpy as np
import pytest

from repro.datasets import make_sift_like, train_query_split
from repro.exceptions import ValidationError
from repro.graph import brute_force_knn_graph
from repro.index import Index, IndexSpec, ShardedServingStats
from repro.search import (
    GraphSearcher,
    ServingStats,
    evaluate_search,
    frontier_batch_search,
)


@pytest.fixture(scope="module")
def serving_setup():
    corpus = make_sift_like(800, 16, random_state=17)
    base, queries = train_query_split(corpus, 64, random_state=17)
    graph = brute_force_knn_graph(base, 8)
    return base, queries, graph


@pytest.fixture(scope="module")
def served_index(serving_setup):
    base, _, _ = serving_setup
    spec = IndexSpec(backend="bruteforce", n_neighbors=8, workers=4,
                     random_state=13)
    return Index.build(base, spec)


def _search_bytes(index, queries):
    idx, dist = result = index.search(queries, 6)
    return idx.tobytes() + dist.tobytes() + result.evaluations.tobytes()


class TestWorkerBitwiseEquality:
    def test_frontier_workers_bitwise_identical(self, serving_setup):
        base, queries, graph = serving_setup
        adjacency = graph.adjacency()
        runs = {
            workers: frontier_batch_search(
                base, adjacency, queries, 6, pool_size=32, max_group=7,
                workers=workers)
            for workers in (1, 4)
        }
        one, four = runs[1], runs[4]
        assert np.array_equal(one[0], four[0])       # neighbours
        assert np.array_equal(one[1], four[1])       # distances
        assert np.array_equal(one[2], four[2])       # evaluation counts
        # The walk shape is deterministic too — only wall time may differ.
        assert one[3].group_sizes == four[3].group_sizes
        assert one[3].group_rounds == four[3].group_rounds
        assert one[3].group_gemms == four[3].group_gemms
        # (on a small box the requested fan-out is clamped to the CPUs)
        assert four[3].workers == min(4, os.cpu_count() or 1)

    def test_searcher_workers_bitwise_identical(self, serving_setup):
        base, queries, graph = serving_setup
        searcher = GraphSearcher(base, graph, pool_size=32, random_state=0)
        i1, d1 = one = searcher.batch_query(queries, 6, workers=1)
        i4, d4 = four = searcher.batch_query(queries, 6, workers=4)
        e1, e4 = one.evaluations, four.evaluations
        assert np.array_equal(i1, i4)
        assert np.array_equal(d1, d4)
        assert np.array_equal(e1, e4)

    def test_index_workers_bitwise_identical(self, served_index,
                                             serving_setup):
        _, queries, _ = serving_setup
        baseline = _search_bytes(served_index, queries)
        for workers in (2, 4):
            result = served_index.search(queries, 6, workers=workers)
            idx, dist = result
            evals = result.evaluations
            assert idx.tobytes() + dist.tobytes() + evals.tobytes() \
                == baseline
            stats = result.stats
            assert stats.workers == min(workers, os.cpu_count() or 1,
                                        stats.n_groups)


class TestSeededRepeatability:
    def test_repeated_index_searches_byte_identical(self, served_index,
                                                    serving_setup):
        _, queries, _ = serving_setup
        # spec.workers=4, spec.random_state fixed → every call identical.
        assert _search_bytes(served_index, queries) \
            == _search_bytes(served_index, queries)

    def test_explicit_seed_repeatable_through_frontier(self, serving_setup):
        base, queries, graph = serving_setup
        adjacency = graph.adjacency()
        runs = [frontier_batch_search(
                    base, adjacency, queries, 6, workers=3)
                for _ in range(2)]
        assert runs[0][0].tobytes() == runs[1][0].tobytes()
        assert runs[0][1].tobytes() == runs[1][1].tobytes()
        assert runs[0][2].tobytes() == runs[1][2].tobytes()

    def test_save_load_then_parallel_search_identical(self, served_index,
                                                      serving_setup,
                                                      tmp_path):
        _, queries, _ = serving_setup
        path = tmp_path / "served.idx"
        served_index.save(path)
        restored = Index.load(path)
        assert restored.spec.workers == 4
        assert _search_bytes(restored, queries) \
            == _search_bytes(served_index, queries)
        idx_a, _ = restored.search(queries, 6, workers=1)
        idx_b, _ = served_index.search(queries, 6, workers=4)
        assert np.array_equal(idx_a, idx_b)


class TestServingStatsSurface:
    def test_stats_describe_the_walk(self, served_index, serving_setup):
        _, queries, _ = serving_setup
        stats = served_index.search(queries, 6, workers=2).stats
        assert isinstance(stats, ShardedServingStats)
        assert (stats.n_shards, stats.shard_probe, stats.routing_gemms) \
            == (1, 1, 0)
        assert stats.n_queries == queries.shape[0]
        (walk,) = stats.shard_stats
        assert isinstance(walk, ServingStats)
        assert walk.n_queries == queries.shape[0]
        assert walk.max_group == 32
        assert walk.n_groups == len(walk.group_rounds) \
            == len(walk.group_gemms) == len(walk.group_seconds)
        assert sum(walk.group_sizes) == queries.shape[0]
        assert walk.n_rounds >= walk.n_gemms >= walk.n_groups
        assert (stats.n_groups, stats.n_rounds, stats.n_gemms) \
            == (walk.n_groups, walk.n_rounds, walk.n_gemms)
        assert stats.total_seconds >= walk.total_seconds > 0
        assert stats.queries_per_second > 0

    def test_every_search_publishes_a_stats_record(
            self, served_index, serving_setup):
        _, queries, _ = serving_setup
        batch_stats = served_index.search(queries, 4).stats
        assert batch_stats.n_queries == queries.shape[0]
        single = served_index.search(queries[0], 4)
        single_stats = single.stats
        assert single_stats is not batch_stats
        assert single_stats.n_queries == single_stats.n_groups == 1
        assert single.evaluations.shape == (1,)

    def test_evaluate_search_surfaces_stats(self, served_index,
                                            serving_setup):
        _, queries, _ = serving_setup
        evaluation = evaluate_search(served_index, queries, n_results=5,
                                     workers=2)
        assert evaluation.serving_stats is not None
        assert evaluation.serving_stats.workers == \
            min(2, os.cpu_count() or 1)


#: metric × dtype grid of the shard-count invariance sweep.
SHARD_ENGINE_CONFIGS = [("sqeuclidean", "float64"), ("sqeuclidean", "float32"),
                        ("cosine", "float64"), ("cosine", "float32")]

SHARD_COUNTS = (1, 2, 4)


def _exhaustive_spec(n_base, metric, dtype, **overrides):
    """A spec whose greedy walk provably returns the true top-k.

    ``pool_size`` covers the whole dataset (the pool never fills, so the
    walk only stops when its component is exhausted), ``seed_sample`` scores
    every point and ``n_starts=8`` entry points over a kappa=12 graph keep
    every component reachable — so monolithic and sharded searches are both
    exact and must agree up to bitwise distance ties.
    """
    return IndexSpec(backend="bruteforce", n_neighbors=12, n_starts=8,
                     pool_size=n_base, seed_sample=n_base, metric=metric,
                     dtype=dtype, random_state=5, **overrides)


def _assert_rows_match_up_to_ties(s_idx, s_dist, o_idx, o_dist, *,
                                  rtol, label):
    """Per-row id equality, permitting permutations of tied distances."""
    for row in range(s_idx.shape[0]):
        if np.array_equal(s_idx[row], o_idx[row]):
            continue
        np.testing.assert_allclose(
            s_dist[row], o_dist[row], rtol=rtol, atol=rtol,
            err_msg=f"{label} row {row}: sharded diverged from the oracle")
        differs = s_idx[row] != o_idx[row]
        tied = np.isclose(s_dist[row][differs], o_dist[row][differs],
                          rtol=rtol, atol=rtol)
        assert np.all(tied), \
            f"{label} row {row}: ids differ at non-tied distances"


class TestShardCountInvariance:
    """``n_shards`` moves vectors, never answers (vs the unsharded oracle)."""

    @pytest.fixture(scope="class")
    def shard_setup(self):
        corpus = make_sift_like(400, 12, random_state=3)
        return train_query_split(corpus, 40, random_state=3)

    @pytest.mark.parametrize("metric,dtype", SHARD_ENGINE_CONFIGS)
    def test_sharded_matches_unsharded_oracle(self, shard_setup, metric,
                                              dtype, tmp_path):
        base, queries = shard_setup
        spec = _exhaustive_spec(base.shape[0], metric, dtype)
        oracle = Index.build(base, spec)
        o_idx, o_dist = oracle.search(queries, 10)
        # float32 gemms over different shard shapes may round the last ulp
        # differently; the tolerance only widens which pairs count as ties.
        rtol = 1e-9 if dtype == "float64" else 1e-5
        for n_shards in SHARD_COUNTS:
            sharded = Index.build(
                base, spec.replace(n_shards=n_shards))
            s_idx, s_dist = sharded.search(queries, 10)
            label = f"{metric}/{dtype}/n_shards={n_shards}"
            _assert_rows_match_up_to_ties(s_idx, s_dist, o_idx, o_dist,
                                          rtol=rtol, label=label)
            # ... and the save/load round-trip serves the same bytes.
            path = tmp_path / f"{metric}-{dtype}-{n_shards}.shards"
            sharded.save(path)
            restored = Index.load(path)
            r_idx, r_dist = restored.search(queries, 10)
            assert r_idx.tobytes() == s_idx.tobytes()
            assert r_dist.tobytes() == s_dist.tobytes()

    def test_gkmeans_partitioner_matches_oracle_too(self, shard_setup):
        base, queries = shard_setup
        spec = _exhaustive_spec(base.shape[0], "sqeuclidean", "float64",
                                n_shards=3, partitioner="gkmeans")
        oracle = Index.build(base, spec.replace(n_shards=1))
        sharded = Index.build(base, spec)
        o_idx, o_dist = oracle.search(queries, 10)
        s_idx, s_dist = sharded.search(queries, 10)
        _assert_rows_match_up_to_ties(s_idx, s_dist, o_idx, o_dist,
                                      rtol=1e-9, label="gkmeans partitioner")


class TestShardFanOutDeterminism:
    """``shard_workers`` (and per-shard ``workers``) are throughput knobs."""

    @pytest.fixture(scope="class")
    def served_sharded(self):
        corpus = make_sift_like(800, 16, random_state=17)
        base, queries = train_query_split(corpus, 64, random_state=17)
        spec = IndexSpec(backend="bruteforce", n_neighbors=8, n_shards=4,
                         workers=2, random_state=13)
        return Index.build(base, spec), queries

    @staticmethod
    def _search_bytes(index, queries, **kwargs):
        idx, dist = result = index.search(queries, 6, **kwargs)
        return idx.tobytes() + dist.tobytes() + result.evaluations.tobytes()

    def test_shard_workers_bitwise_identical(self, served_sharded):
        sharded, queries = served_sharded
        baseline = self._search_bytes(sharded, queries, shard_workers=1)
        for shard_workers in (2, 4, 8):
            assert self._search_bytes(
                sharded, queries, shard_workers=shard_workers) == baseline

    def test_inner_workers_bitwise_identical(self, served_sharded):
        sharded, queries = served_sharded
        baseline = self._search_bytes(sharded, queries, workers=1)
        assert self._search_bytes(sharded, queries, workers=4,
                                  shard_workers=4) == baseline

    def test_repeated_searches_byte_identical(self, served_sharded):
        sharded, queries = served_sharded
        assert self._search_bytes(sharded, queries) \
            == self._search_bytes(sharded, queries)

    def test_save_load_then_parallel_fanout_identical(self, served_sharded,
                                                      tmp_path):
        sharded, queries = served_sharded
        path = tmp_path / "served.shards"
        sharded.save(path)
        restored = Index.load(path)
        assert restored.spec.workers == 2
        assert self._search_bytes(restored, queries, shard_workers=4) \
            == self._search_bytes(sharded, queries, shard_workers=1)

    def test_evaluate_search_forwards_shard_workers(self, served_sharded):
        sharded, queries = served_sharded
        evaluation = evaluate_search(sharded, queries, n_results=5,
                                     shard_workers=3)
        assert evaluation.serving_stats is not None
        assert evaluation.serving_stats.shard_workers == \
            min(3, os.cpu_count() or 1)
        assert evaluation.serving_stats.n_shards == 4


class TestRoutedSearchDeterminism:
    """``shard_probe`` routes deterministically; ``P = S`` IS the fan-out.

    The routing decision (one query-vs-centroids gemm + stable argsort) and
    the concatenate-and-sort merge run before/after the per-shard walks, so
    like every other serving knob ``shard_workers`` must stay a pure
    throughput axis — routed results are bit-for-bit identical at every fan-out level, across
    repeats and across a save/load round-trip.  ``shard_probe = n_shards``
    must take the existing full fan-out path unchanged, byte for byte.
    """

    @pytest.fixture(scope="class")
    def routed_setup(self):
        corpus = make_sift_like(400, 12, random_state=3)
        return train_query_split(corpus, 40, random_state=3)

    @pytest.fixture(scope="class")
    def routed_index(self, routed_setup):
        base, _ = routed_setup
        spec = IndexSpec(backend="bruteforce", n_neighbors=8, n_shards=4,
                         partitioner="gkmeans", random_state=5)
        return Index.build(base, spec)

    @staticmethod
    def _search_bytes(index, queries, **kwargs):
        idx, dist = result = index.search(queries, 8, **kwargs)
        return idx.tobytes() + dist.tobytes() + result.evaluations.tobytes()

    @pytest.mark.parametrize("metric,dtype", SHARD_ENGINE_CONFIGS)
    def test_full_probe_bitwise_equals_full_fanout(self, routed_setup,
                                                   metric, dtype):
        base, queries = routed_setup
        spec = IndexSpec(backend="bruteforce", n_neighbors=8, n_shards=4,
                         partitioner="gkmeans", metric=metric, dtype=dtype,
                         random_state=5)
        sharded = Index.build(base, spec)
        assert self._search_bytes(sharded, queries, shard_probe=4) \
            == self._search_bytes(sharded, queries)

    def test_routed_shard_workers_bitwise_invariant(self, routed_index,
                                                    routed_setup):
        _, queries = routed_setup
        for probe in (1, 2):
            baseline = self._search_bytes(routed_index, queries,
                                          shard_probe=probe,
                                          shard_workers=1)
            for shard_workers in (2, 4, 8):
                assert self._search_bytes(
                    routed_index, queries, shard_probe=probe,
                    shard_workers=shard_workers) == baseline

    def test_routed_inner_workers_bitwise_invariant(self, routed_index,
                                                    routed_setup):
        _, queries = routed_setup
        baseline = self._search_bytes(routed_index, queries, shard_probe=2,
                                      workers=1)
        assert self._search_bytes(routed_index, queries, shard_probe=2,
                                  workers=4, shard_workers=4) == baseline

    def test_routed_repeated_searches_byte_identical(self, routed_index,
                                                     routed_setup):
        _, queries = routed_setup
        assert self._search_bytes(routed_index, queries, shard_probe=1) \
            == self._search_bytes(routed_index, queries, shard_probe=1)

    def test_routed_save_load_round_trip_identical(self, routed_index,
                                                   routed_setup, tmp_path):
        _, queries = routed_setup
        path = tmp_path / "routed.shards"
        routed_index.save(path)
        restored = Index.load(path)
        assert np.array_equal(restored.centroids, routed_index.centroids)
        for probe in (1, 2, 4):
            assert self._search_bytes(restored, queries, shard_probe=probe,
                                      shard_workers=4) \
                == self._search_bytes(routed_index, queries,
                                      shard_probe=probe)

    def test_spec_default_probe_drives_search(self, routed_setup):
        base, queries = routed_setup
        spec = IndexSpec(backend="bruteforce", n_neighbors=8, n_shards=4,
                         partitioner="gkmeans", shard_probe=2,
                         random_state=5)
        sharded = Index.build(base, spec)
        assert sharded.search(queries, 8).stats.shard_probe == 2
        # An explicit per-call probe overrides the persisted default.
        assert sharded.search(queries, 8,
                              shard_probe=4).stats.shard_probe == 4

    def test_round_robin_rejects_partial_probe(self, routed_setup):
        base, queries = routed_setup
        sharded = Index.build(
            base, IndexSpec(backend="bruteforce", n_neighbors=8, n_shards=4,
                            random_state=5))
        with pytest.raises(ValidationError, match="round_robin"):
            sharded.search(queries, 8, shard_probe=2)
        # The full probe needs no geometry and stays exact.
        assert self._search_bytes(sharded, queries, shard_probe=4) \
            == self._search_bytes(sharded, queries)

    def test_probe_validated_against_shard_count(self, routed_index,
                                                 routed_setup):
        _, queries = routed_setup
        for bad in (0, 5):
            with pytest.raises(ValidationError, match="shard_probe"):
                routed_index.search(queries, 8, shard_probe=bad)

    def test_monolithic_index_accepts_only_probe_one(self, serving_setup,
                                                     served_index):
        _, queries, _ = serving_setup
        idx, dist = served_index.search(queries, 6, shard_probe=1)
        base_idx, base_dist = served_index.search(queries, 6)
        assert np.array_equal(idx, base_idx)
        with pytest.raises(ValidationError, match="shard_probe"):
            served_index.search(queries, 6, shard_probe=2)


class TestRemoteExecutorDeterminism:
    """``executor="remote"`` extends the placement contract over TCP.

    Each shard is served by a :class:`~repro.net.ShardServer` daemon on an
    ephemeral localhost port; the server answers through exactly the same
    ``search_shard_index`` path the thread executor calls, so remote
    results must be bit-for-bit identical to thread and the serial inline
    path — full fan-out, routed, single-query, repeated, and across a
    save/load round-trip of the deployment manifest.
    """

    @pytest.fixture(scope="class")
    def remote_setup(self, tmp_path_factory):
        from repro.net import ShardServer

        corpus = make_sift_like(400, 12, random_state=7)
        base, queries = train_query_split(corpus, 32, random_state=7)
        spec = IndexSpec(backend="bruteforce", n_neighbors=8, n_shards=3,
                         partitioner="gkmeans", random_state=11)
        sharded = Index.build(base, spec)
        servers = [ShardServer(sharded.shards[shard], shard_id=shard,
                               generation=sharded.generation)
                   for shard in range(sharded.n_shards)]
        for server in servers:
            server.start()
        sharded.endpoints = [server.endpoint for server in servers]
        path = tmp_path_factory.mktemp("remote") / "served.shards"
        sharded.save(path)
        yield sharded, queries, path
        sharded.close()
        for server in servers:
            server.close()

    @staticmethod
    def _search_bytes(index, queries, **kwargs):
        idx, dist = result = index.search(queries, 6, **kwargs)
        return idx.tobytes() + dist.tobytes() + result.evaluations.tobytes()

    def test_remote_bitwise_equals_every_local_executor(self, remote_setup):
        sharded, queries, _ = remote_setup
        serial = self._search_bytes(sharded, queries, shard_workers=1)
        remote = self._search_bytes(sharded, queries, executor="remote",
                                    shard_workers=2)
        assert remote == serial
        assert sharded.search(queries, 6, executor="remote",
                              shard_workers=2).stats.executor == "remote"
        assert self._search_bytes(sharded, queries, executor="thread",
                                  shard_workers=2) == remote

    def test_routed_remote_bitwise_equals_thread(self, remote_setup):
        sharded, queries, _ = remote_setup
        for probe in (1, 2):
            assert self._search_bytes(
                sharded, queries, shard_probe=probe, executor="remote") \
                == self._search_bytes(
                    sharded, queries, shard_probe=probe, executor="thread")

    def test_single_query_remote_equals_serial(self, remote_setup):
        sharded, queries, _ = remote_setup
        r_idx, r_dist = sharded.search(queries[0], 6, executor="remote")
        s_idx, s_dist = sharded.search(queries[0], 6)
        assert np.array_equal(r_idx, s_idx)
        assert np.array_equal(r_dist, s_dist)

    def test_repeated_remote_searches_byte_identical(self, remote_setup):
        sharded, queries, _ = remote_setup
        assert self._search_bytes(sharded, queries, executor="remote") \
            == self._search_bytes(sharded, queries, executor="remote")

    def test_save_load_keeps_deployment_and_answers(self, remote_setup):
        sharded, queries, path = remote_setup
        restored = Index.load(path)
        try:
            # The v3 manifest carried the endpoint list across the
            # round-trip — the restored index is remotely servable as-is.
            assert restored.endpoints == sharded.endpoints
            assert restored.generation == sharded.generation
            assert self._search_bytes(restored, queries,
                                      executor="remote") \
                == self._search_bytes(sharded, queries, executor="thread")
        finally:
            restored.close()


class TestWorkersValidation:
    def test_spec_workers_roundtrips_through_json(self):
        spec = IndexSpec(backend="bruteforce", workers=8)
        assert IndexSpec.from_json(spec.to_json()).workers == 8

    def test_spec_without_workers_key_defaults_to_one(self):
        payload = IndexSpec(backend="bruteforce").to_dict()
        del payload["workers"]  # a pre-parallel-serving index file
        assert IndexSpec.from_dict(payload).workers == 1

    def test_spec_rejects_non_positive_workers(self):
        with pytest.raises(ValidationError):
            IndexSpec(backend="bruteforce", workers=0)

    def test_batch_query_rejects_non_positive_workers(self, serving_setup):
        base, queries, graph = serving_setup
        searcher = GraphSearcher(base, graph, random_state=0)
        with pytest.raises(ValidationError):
            searcher.batch_query(queries[:4], 3, workers=0)

    def test_frontier_rejects_non_integer_workers(self, serving_setup):
        base, queries, graph = serving_setup
        adjacency = graph.adjacency()
        for bad in (0, 2.5):
            with pytest.raises(ValidationError):
                frontier_batch_search(base, adjacency, queries[:4], 3,
                                      workers=bad)

    def test_workers_clamped_to_group_count(self, serving_setup):
        base, queries, graph = serving_setup
        adjacency = graph.adjacency()
        _, _, _, stats = frontier_batch_search(
            base, adjacency, queries[:5], 3, max_group=None, workers=16)
        assert stats.n_groups == 1
        assert stats.workers == 1
