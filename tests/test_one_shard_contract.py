"""A one-shard ``Index`` answers exactly what its one shard's walk answers.

One shard is the ``S = 1`` case of the sharded search: the fan-out hands
the checked batch to the shard, and the merge returns the lone part as it
is — ids, distances (dtype included) and evaluation counts.  Pinned for
every graph backend after the build, after inserts and deletes, and after
compaction, for single vectors and for a batch; and over one ``gkmeans
serve`` daemon, which serves a one-shard index bit for bit like the thread
executor.
"""

import numpy as np
import pytest

from repro.datasets import make_sift_like
from repro.index import Index, IndexSpec
from repro.net import ShardServer

N, D, KAPPA, K = 4000, 24, 16, 10


@pytest.fixture(scope="module")
def corpus():
    data = make_sift_like(N + 200 + 300, D, random_state=3)
    return data[:N], data[N:N + 200], data[N + 200:]


def assert_same(got, want):
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.distances, want.distances)
    assert got.distances.dtype == want.distances.dtype
    assert np.array_equal(got.evaluations, want.evaluations)


def assert_walk_answers(index, queries):
    (shard,) = index.shards
    for query in queries[:5]:
        got, want = index.search(query, K), shard.search(query[None, :], K)
        assert np.array_equal(got.indices, want.indices[0])
        assert np.array_equal(got.distances, want.distances[0])
        assert got.distances.dtype == want.distances.dtype
        assert np.array_equal(got.evaluations, want.evaluations)
    assert_same(index.search(queries, K), shard.search(queries, K))


@pytest.mark.parametrize("backend,dtype", [("gkmeans", "float64"),
                                           ("nndescent", "float64"),
                                           ("bruteforce", "float32")])
def test_one_shard_index_answers_its_shards_walk(corpus, backend, dtype):
    base, extra, queries = corpus
    spec = IndexSpec(backend=backend, n_neighbors=KAPPA, dtype=dtype,
                     random_state=3)
    with Index.build(base, spec) as index:
        assert_walk_answers(index, queries)
        index.insert(extra)
        index.delete(index.ids[::7])
        assert_walk_answers(index, queries)
        index.compact()
        assert_walk_answers(index, queries)


def test_one_shard_index_serves_remotely_bitwise(corpus):
    base, _, queries = corpus
    spec = IndexSpec(backend="bruteforce", n_neighbors=KAPPA,
                     dtype="float32", random_state=3)
    with Index.build(base, spec) as index, \
            ShardServer(index.shards[0]) as server:
        server.start()
        index.endpoints = [server.endpoint]
        for request in (queries, queries[0]):
            remote = index.search(request, K, executor="remote")
            assert remote.stats.executor == "remote"
            assert_same(remote, index.search(request, K, executor="thread"))
