"""The ``SearchResult`` contract: every search returns its own record.

A search's answer and its cost travel together.  At every layer —
``GraphSearcher``, and ``Index`` at one and at two shards over the thread
and the remote executor — the result unpacks as exactly ``(indices, distances)``,
carries the per-query ``evaluations`` and the call's ``stats``, and
survives the pickle round trip the wire puts a shard's reply through.
"""

from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.datasets import make_sift_like, train_query_split
from repro.graph import brute_force_knn_graph
from repro.index import Index, IndexSpec, ShardedServingStats
from repro.net import ShardServer
from repro.net.framing import FRAME_RESULT, HEADER, encode_frame, loads
from repro.search import GraphSearcher, SearchResult, ServingStats

K = 5
LAYERS = ("graph_searcher", "index", "index_remote", "sharded_thread",
          "sharded_remote")


@pytest.fixture(scope="module")
def corpus():
    data = make_sift_like(400, 12, random_state=8)
    return train_query_split(data, 12, random_state=8)


@pytest.fixture(scope="module")
def layers(corpus):
    """``layer -> (batch search, single-vector search, stats type)``."""
    base, _ = corpus
    spec = IndexSpec(backend="bruteforce", n_neighbors=8, random_state=8)
    searcher = GraphSearcher(base, brute_force_knn_graph(base, 8),
                             random_state=8)
    index = Index.build(base, spec)
    sharded = Index.build(base, spec.replace(n_shards=2,
                                                    partitioner="gkmeans"))
    servers = [ShardServer(shard, shard_id=s)
               for s, shard in enumerate(sharded.shards)]
    servers.append(ShardServer(index.shards[0]))
    for server in servers:
        server.start()
    sharded.endpoints = [server.endpoint for server in servers[:2]]
    index.endpoints = [servers[2].endpoint]

    def on(executor, target=sharded):
        return lambda queries: target.search(queries, K, executor=executor)

    yield {
        "graph_searcher": (lambda queries: searcher.batch_query(queries, K),
                           lambda query: searcher.query(query, K),
                           ServingStats),
        "index": (lambda queries: index.search(queries, K),
                  lambda query: index.search(query, K), ShardedServingStats),
        "index_remote": (on("remote", index), on("remote", index),
                         ShardedServingStats),
        "sharded_thread": (on("thread"), on("thread"), ShardedServingStats),
        "sharded_remote": (on("remote"), on("remote"), ShardedServingStats),
    }
    sharded.close()
    for server in servers:
        server.close()
    index.close()
    searcher.close()


def _check(result, shape, n_queries, stats_type) -> None:
    assert isinstance(result, SearchResult)
    assert len(result) == 2
    indices, distances = result
    assert indices is result.indices and distances is result.distances
    assert indices.shape == distances.shape == shape
    assert indices.dtype == np.int64
    with pytest.raises(ValueError):
        _, _, _ = result
    assert result.evaluations.shape == (n_queries,)
    assert result.evaluations.dtype == np.int64
    assert np.all(result.evaluations > 0)
    assert isinstance(result.stats, stats_type)
    assert result.stats.n_queries == n_queries


@pytest.mark.parametrize("layer", LAYERS)
def test_batch_search_returns_the_record(layers, corpus, layer):
    _, queries = corpus
    batch, _, stats_type = layers[layer]
    _check(batch(queries), (len(queries), K), len(queries), stats_type)


@pytest.mark.parametrize("layer", LAYERS)
def test_single_vector_search_returns_the_record(layers, corpus, layer):
    _, queries = corpus
    batch, single, stats_type = layers[layer]
    result = single(queries[3])
    _check(result, (K,), 1, stats_type)
    row = batch(queries[3:4])
    assert np.array_equal(result.indices, row.indices[0])
    assert np.array_equal(result.evaluations, row.evaluations)


@pytest.mark.parametrize("layer", LAYERS)
def test_result_survives_pickle_and_the_wire(layers, corpus, layer):
    _, queries = corpus
    batch, _, _ = layers[layer]
    result = batch(queries)
    frame = encode_frame(FRAME_RESULT, result)
    for copy in (pickle.loads(pickle.dumps(result)),
                 loads(frame[HEADER.size:])):
        assert type(copy) is SearchResult
        indices, distances = copy
        assert indices.tobytes() == result.indices.tobytes()
        assert distances.tobytes() == result.distances.tobytes()
        assert copy.evaluations.tobytes() == result.evaluations.tobytes()
        assert copy.stats == result.stats


@pytest.mark.parametrize("sharded", [False, True])
def test_bench_facing_properties_track_the_latest_result(corpus, sharded):
    """``last_n_evaluations`` / ``last_serving_stats`` are read-only views
    of the most recent result, kept for the benchmark tracer."""
    base, queries = corpus
    spec = IndexSpec(backend="bruteforce", n_neighbors=8, random_state=8,
                     n_shards=2 if sharded else 1)
    with Index.build(base, spec) as index:
        assert index.last_n_evaluations == 0
        assert index.last_serving_stats is None
        for request in (queries, queries[0], queries[:4]):
            result = index.search(request, K)
            assert index.last_n_evaluations == int(result.evaluations.sum())
            assert index.last_serving_stats is result.stats
        with pytest.raises(AttributeError):
            index.last_n_evaluations = 0
        with pytest.raises(AttributeError):
            index.last_serving_stats = None
