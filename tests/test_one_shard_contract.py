"""A one-shard ``ShardedIndex`` serves bitwise what ``Index`` serves.

``ShardedIndex.build(data, spec.replace(n_shards=1))`` wraps one
``Index.build(data, spec)``; its search adds only the fan-out and the
merge, which for one shard must hand the shard's answer back unchanged.
That is what folding ``Index`` into the sharded index as its one-shard
case relies on, so it is pinned here for every graph backend: after the
build, after inserts and deletes, and after compaction, for single vectors
and for a batch, in ids, distances and evaluation counts.
"""

import numpy as np
import pytest

from repro.datasets import make_sift_like
from repro.index import Index, IndexSpec, ShardedIndex

N, D, KAPPA, K = 4000, 24, 16, 10


@pytest.fixture(scope="module")
def corpus():
    data = make_sift_like(N + 200 + 300, D, random_state=3)
    return data[:N], data[N:N + 200], data[N + 200:]


def assert_same_answers(mono, sharded, queries):
    for query in queries[:5]:
        want, got = mono.search(query, K), sharded.search(query, K)
        assert np.array_equal(got.indices, want.indices)
        assert np.array_equal(got.distances, want.distances)
        assert got.distances.dtype == want.distances.dtype
        assert np.array_equal(got.evaluations, want.evaluations)
    want, got = mono.search(queries, K), sharded.search(queries, K)
    assert np.array_equal(got.indices, want.indices)
    assert np.array_equal(got.distances, want.distances)
    assert np.array_equal(got.evaluations, want.evaluations)


@pytest.mark.parametrize("backend", ["gkmeans", "nndescent", "bruteforce"])
def test_one_shard_serves_what_the_index_serves(corpus, backend):
    base, extra, queries = corpus
    spec = IndexSpec(backend=backend, n_neighbors=KAPPA, dtype="float64",
                     random_state=3)
    mono = Index.build(base, spec)
    with ShardedIndex.build(base, spec.replace(n_shards=1)) as sharded:
        assert_same_answers(mono, sharded, queries)

        new_ids = mono.insert(extra)
        assert np.array_equal(sharded.insert(extra), new_ids)
        victims = mono.ids[::7]
        assert mono.delete(victims) == sharded.delete(victims)
        assert_same_answers(mono, sharded, queries)

        assert mono.compact() == sharded.compact()
        assert_same_answers(mono, sharded, queries)
