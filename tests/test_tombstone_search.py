"""Tombstoned shards walk at their own pool size.

A shard with ``T`` tombstones answers ``k`` live results by fetching
``min(k + T, max(pool, k))`` from its walk, dropping the tombstoned hits,
and walking again — with the whole ``k + T`` request, the row's bound and
the call's pool — only the rows whose full first list held fewer than ``k``
live hits.  The *old rule* is one walk fetching ``k + T`` and the same
filter; it is the oracle here, computed on a :class:`GraphSearcher` over the
shard's own rows, graph and seed partition:

* every search with ``k + T <= pool`` is bitwise the old rule's;
* every re-walked row is bitwise the old rule's, its evaluations counting
  both walks and its group listed in the shard's stats;
* past ``pool - k`` every other row is the normal-pool walk, filtered, and
  every row still holds ``k`` distinct live ids in ascending distance.

Past ``pool - k`` the old rule's pool widened with every delete, so its
recall rose above the pool's own; the new rule holds the pool's recall.
Both halves of that are pinned below.
"""

import numpy as np
import pytest

from repro.datasets import make_sift_like, train_query_split
from repro.index import Index, IndexSpec
from repro.search import GraphSearcher

K, POOL = 10, 16


def _searcher(shard) -> GraphSearcher:
    """A searcher walking exactly as ``shard`` walks."""
    spec = shard.spec
    return GraphSearcher(
        shard.data, shard.graph, pool_size=spec.pool_size,
        n_starts=spec.n_starts, random_state=spec.random_state,
        metric=spec.metric, dtype=spec.dtype, quantize=spec.quantize,
        quantizer=shard.quantizer, seed_labels=shard.seed_labels)


def _live_first(shard, walked, k):
    """The walk's first ``k`` live hits per row in global ids, padded with
    ``(-1, inf)``, and each row's live-hit count."""
    idx, dist = walked
    keep = idx >= 0
    keep &= shard.live_mask[np.where(keep, idx, 0)]
    order = np.argsort(~keep, axis=1, kind="stable")[:, :k]
    kept = np.take_along_axis(keep, order, axis=1)
    ids = np.where(kept, shard.ids[np.take_along_axis(idx, order, axis=1)],
                   -1)
    dists = np.where(kept, np.take_along_axis(dist, order, axis=1), np.inf)
    return ids, dists, keep.sum(axis=1)


def _old_rule(shard, queries, k, **kwargs):
    """One walk fetching ``k + T``, then the tombstone filter."""
    walked = _searcher(shard).batch_query(
        queries, k + shard.n_tombstones, **kwargs)
    ids, dists, _ = _live_first(shard, walked, k)
    return ids, dists, walked.evaluations


def _new_rule(shard, queries, k, pool_size=None, **kwargs):
    """The rule from public searcher calls: the normal-pool walk, filtered,
    and the old rule's answer on every row it left short.  Returns the
    answer, evaluations and the re-walked rows."""
    pool = shard.spec.pool_size if pool_size is None else pool_size
    fetch = min(k + shard.n_tombstones, max(pool, k))
    walked = _searcher(shard).batch_query(queries, fetch,
                                          pool_size=pool_size, **kwargs)
    ids, dists, n_live = _live_first(shard, walked, k)
    short = (walked.indices[:, -1] >= 0) & (n_live < k)
    if fetch == k + shard.n_tombstones:
        short[:] = False
    evaluations = walked.evaluations.copy()
    old_ids, old_dists, old_evaluations = _old_rule(
        shard, queries, k, pool_size=pool_size, **kwargs)
    ids[short], dists[short] = old_ids[short], old_dists[short]
    evaluations[short] += old_evaluations[short]
    return ids, dists, evaluations, short.nonzero()[0]


def _assert_bitwise(result, ids, dists, evaluations):
    np.testing.assert_array_equal(result.indices, ids)
    np.testing.assert_array_equal(result.distances, dists)
    np.testing.assert_array_equal(result.evaluations, evaluations)


def _brute_recall(index, data, queries, found, k):
    """Recall@k of ``found`` against the exact top-k of the live rows."""
    live = index.ids[index.live_mask]
    rows = data[live]
    squared = ((queries[:, None, :] - rows[None, :, :]) ** 2).sum(axis=2)
    truth = live[np.argsort(squared, axis=1, kind="stable")[:, :k]]
    return np.mean([np.isin(mine, true).sum() / k
                    for mine, true in zip(found, truth)])


def _assert_live_rows(index, data, queries, result, k):
    """``k`` distinct live ids per row (the graph reaches every row), at
    their true distances, ascending."""
    live = index.ids[index.live_mask]
    for query, ids, dists in zip(queries, result.indices,
                                 result.distances):
        assert np.isin(ids, live).all(), ids
        assert np.unique(ids).size == k, ids
        assert (np.diff(dists) >= 0).all(), dists
        true = ((data[ids] - query) ** 2).sum(axis=1)
        np.testing.assert_allclose(dists, true, rtol=1e-6)


@pytest.fixture(scope="module")
def corpus():
    """Integer-valued rows, so every distance is exact whatever block the
    walk scores it in and an answer can be compared bitwise across
    batches."""
    data = make_sift_like(2048, 16, random_state=31).astype(np.float64)
    base, queries = train_query_split(data, 48, random_state=31)
    return base, queries


def _index(base, **overrides) -> Index:
    spec = IndexSpec(**{**dict(backend="bruteforce", n_neighbors=10,
                               pool_size=POOL, random_state=4), **overrides})
    return Index.build(base, spec)


@pytest.mark.parametrize("quantize", ["none", "int8"])
def test_a_row_left_short_walks_again_as_the_old_rule(corpus, quantize):
    """Deleting every hit of one query's first walk leaves that row short:
    it walks again and answers the old rule's row, both walks counted."""
    base, queries = corpus
    index = _index(base, quantize=quantize)
    shard = index.shards[0]
    first = _searcher(shard).batch_query(queries[:1], POOL)
    index.delete(shard.ids[first.indices[0]])
    assert index.n_tombstones == POOL > POOL - K

    result = index.search(queries, K)
    ids, dists, evaluations, short = _new_rule(shard, queries, K)
    assert 0 in short
    _assert_bitwise(result, ids, dists, evaluations)
    old_ids, old_dists, old_evaluations = _old_rule(shard, queries, K)
    np.testing.assert_array_equal(result.indices[short], old_ids[short])
    np.testing.assert_array_equal(result.distances[short],
                                  old_dists[short])
    narrow = _searcher(shard).batch_query(queries[:1], POOL)
    assert result.evaluations[0] == (narrow.evaluations[0]
                                     + old_evaluations[0])
    walk_stats = result.stats.shard_stats[0]
    assert sum(walk_stats.group_sizes) == queries.shape[0] + short.size
    assert walk_stats.n_queries == queries.shape[0]


def test_a_row_whose_list_is_not_full_walks_once(corpus):
    """A query that reaches fewer rows than its pool saw everything it
    could reach: it is not walked again, and its answer — short of k live
    ids — is the old rule's."""
    base, queries = corpus
    island = base[:12] + 1e4          # twelve rows only each other reach
    index = _index(np.concatenate([base, island]))
    shard = index.shards[0]
    index.delete(np.arange(base.shape[0], base.shape[0] + 5))
    index.delete(np.random.default_rng(0).choice(base.shape[0], 20,
                                                 replace=False))
    batch = np.concatenate([island[:1] + 1.0, queries])
    result = index.search(batch, K)
    first = _searcher(shard).batch_query(batch[:1], POOL)
    assert (first.indices[0] < 0).any()
    assert result.evaluations[0] == first.evaluations[0]
    old_ids, old_dists, _ = _old_rule(shard, batch[:1], K)
    np.testing.assert_array_equal(result.indices[:1], old_ids)
    np.testing.assert_array_equal(result.distances[:1], old_dists)
    assert (result.indices[0] >= 0).sum() == 7
    _assert_bitwise(result, *_new_rule(shard, batch, K)[:3])


def test_a_re_walk_keeps_the_rows_bounds_and_the_pool_override(corpus):
    """The re-walk passes on the short rows' bounds and the call's pool."""
    base, queries = corpus
    index = _index(base)
    shard = index.shards[0]
    first = _searcher(shard).batch_query(queries[:3], 24)
    index.delete(np.unique(shard.ids[first.indices]))
    exact = _old_rule(shard, queries, K)[1]
    bounds = exact[:, -1] * np.linspace(0.9, 1.5, queries.shape[0])
    bounds[1] = np.inf
    for pool_size in (None, 24):
        result = shard.search(queries, K, pool_size=pool_size,
                              bounds=bounds)
        ids, dists, evaluations, short = _new_rule(
            shard, queries, K, pool_size=pool_size, bounds=bounds)
        assert short.size
        _assert_bitwise(result, ids, dists, evaluations)


def test_a_narrower_pool_override_sets_the_fetch_and_the_re_walk(corpus):
    """``k + T`` fits the searcher's pool but not the call's narrower one:
    the call's pool decides the fetch, so a row left short walks again,
    and the re-walk runs under that pool too."""
    base, queries = corpus
    index = _index(base)
    shard = index.shards[0]
    first = _searcher(shard).batch_query(queries[:1], 12, pool_size=12)
    index.delete(shard.ids[first.indices[0, :4]])
    assert K + index.n_tombstones <= POOL

    result = shard.search(queries, K, pool_size=12)
    ids, dists, evaluations, short = _new_rule(shard, queries, K,
                                               pool_size=12)
    assert 0 in short
    _assert_bitwise(result, ids, dists, evaluations)


def test_a_delete_history_past_the_pool_keeps_rows_live_and_recall(corpus):
    """A seeded history drives T from 0 to six pools: every row holds k
    distinct live ids in ascending distance, and recall@k against brute
    force over the live rows stays within 0.01 of the old rule's."""
    base, queries = corpus
    index = _index(base)
    shard = index.shards[0]
    rng = np.random.default_rng(8)
    n_short = 0
    while index.n_tombstones < 6 * POOL:
        live = index.ids[index.live_mask]
        victims = set(rng.choice(live, size=8, replace=False).tolist())
        # The nearest live rows of a few queries, so some rows come back
        # short and walk again.
        for query in queries[:4]:
            squared = ((base[live] - query) ** 2).sum(axis=1)
            victims.update(live[np.argsort(squared)[:3]].tolist())
        index.delete(np.array(sorted(victims)))

        result = index.search(queries, K)
        ids, dists, evaluations, short = _new_rule(shard, queries, K)
        _assert_bitwise(result, ids, dists, evaluations)
        _assert_live_rows(index, base, queries, result, K)
        n_short += short.size
        old_ids = _old_rule(shard, queries, K)[0]
        assert (_brute_recall(index, base, queries, result.indices, K)
                >= _brute_recall(index, base, queries, old_ids, K) - 0.01)
    assert n_short


def test_past_the_pool_recall_stays_at_the_pools_own():
    """On data where the pool's recall is below 1, deletes past ``pool -
    k`` no longer buy recall with a wider pool: the rule's recall stays
    within 0.01 of the tombstone-free search's at the same pool."""
    rng = np.random.default_rng(11)
    base, queries = rng.normal(size=(2000, 32)), rng.normal(size=(64, 32))
    index = _index(base, n_neighbors=10)
    pristine = _brute_recall(index, base, queries,
                             index.search(queries, K).indices, K)
    assert pristine < 0.99
    while index.n_tombstones < 6 * POOL:
        live = index.ids[index.live_mask]
        index.delete(rng.choice(live, size=16, replace=False))
        found = index.search(queries, K).indices
        assert abs(_brute_recall(index, base, queries, found, K)
                   - pristine) <= 0.01


@pytest.mark.parametrize("n_shards", [1, 2])
def test_within_the_pool_answers_are_the_old_rules(corpus, n_shards):
    """While ``k + T <= pool`` (the call's pool where it overrides it) no
    row walks again and every shard answers bitwise the old rule's."""
    base, queries = corpus
    index = _index(base, n_shards=n_shards, pool_size=24)
    rng = np.random.default_rng(3)
    index.insert(make_sift_like(24, 16, random_state=32))
    while True:
        for shard in index.shards:
            for pool_size, pool in ((None, 24), (40, 40)):
                if K + shard.n_tombstones > pool:
                    continue
                result = shard.search(queries, K, pool_size=pool_size)
                _assert_bitwise(result, *_old_rule(
                    shard, queries, K, pool_size=pool_size))
                assert sum(result.stats.group_sizes) == queries.shape[0]
        if min(shard.n_tombstones for shard in index.shards) >= 24 - K:
            break
        index.delete(rng.choice(index.ids[index.live_mask], size=1))
