"""The walk's reused scratch answers exactly as a fresh one would.

A :class:`~repro.search.greedy.GraphSearcher` keeps its walk scratch — the
dense ``(size · n,)`` int32 visit block plus the ``marked`` / ``column``
rows of the frontier union — in a :class:`~repro.search._walk.WalkScratch`
and hands one block to each group walk.  A block is not zeroed between
walks: a node counts as visited when its stamp is above the block's
``floor``, and the floor moves past every stamp a walk wrote.  The
contract pinned here:

* one searcher answers an interleaved history of batch shapes, worker
  counts, quantize modes and mutations bitwise as a searcher built fresh
  for every call;
* a walk that raises drops its block, so no block left in the pool holds
  a stamp above its floor or a set mark;
* a floor near the int32 limit zeroes the block first and changes no
  answer;
* threads searching one index concurrently answer as serial calls do;
* a repeated same-shape search allocates no new block;
* ``close()`` empties the pool.
"""

from __future__ import annotations

import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from repro.graph.bruteforce import brute_force_knn_graph
from repro.graph.knngraph import KNNGraph
from repro.index import Index, IndexSpec
from repro.search import GraphSearcher
from repro.search._seeding import seed_entry_points
from repro.search._walk import (
    CHUNK,
    STAMP_MAX,
    WalkScratch,
    beam_walk,
    exact_scorer,
)

N, D, K = 1500, 12, 10
BATCHES = (1, 7, 32, 256)


@pytest.fixture(scope="module")
def corpus():
    rng = np.random.default_rng(50)
    centres = rng.normal(scale=4.0, size=(15, D))
    data = centres[rng.integers(0, 15, size=N + 600)] + rng.normal(
        size=(N + 600, D))
    return data[:N], data[N:N + 300], data[N + 300:]


def _fresh(searcher: GraphSearcher) -> GraphSearcher:
    """A new searcher over ``searcher``'s current data, graph and seeds."""
    return GraphSearcher(
        searcher.data, searcher.graph, pool_size=searcher.pool_size,
        n_starts=searcher.n_starts, metric=searcher.metric,
        dtype=searcher.engine_.dtype, quantize=searcher.quantize,
        quantizer=searcher.quantizer, seed_labels=searcher.seed_labels)


def _assert_same(got, want, label=""):
    assert np.array_equal(got.indices, want.indices), label
    assert np.array_equal(got.distances, want.distances), label
    assert np.array_equal(got.evaluations, want.evaluations), label
    assert got.stats.group_rounds == want.stats.group_rounds, label
    assert got.stats.group_gemms == want.stats.group_gemms, label


def _clean(block) -> bool:
    """No stamp above the floor and no set mark: a block fit for reuse."""
    return bool((block.seen <= block.floor).all() and not block.marked.any())


@pytest.mark.parametrize("quantize", ["none", "int8"])
def test_reused_scratch_answers_as_a_fresh_searcher(corpus, quantize):
    base, extra, queries = corpus
    spec = IndexSpec(backend="bruteforce", n_neighbors=12, quantize=quantize,
                     random_state=5)
    index = Index.build(base, spec)
    rng = np.random.default_rng(7)
    history = ["search", "insert", "search", "delete", "search", "compact",
               "search", "insert", "search"]
    inserted = 0
    for step, action in enumerate(history):
        if action == "insert":
            index.insert(extra[inserted:inserted + 40])
            inserted += 40
        elif action == "delete":
            index.delete(rng.choice(N, size=60, replace=False))
        elif action == "compact":
            index.compact()
        else:
            searcher = index.shards[0]._searcher
            for size in BATCHES:
                for workers in (1, 2):
                    batch = queries[rng.integers(0, len(queries), size)]
                    got = searcher.batch_query(batch, K, workers=workers)
                    want = _fresh(searcher).batch_query(batch, K,
                                                        workers=workers)
                    _assert_same(got, want, f"step {step} m={size} "
                                            f"workers={workers}")
            blocks = searcher._scratch._free
            assert blocks and all(_clean(block) for block in blocks)
            # The blocks were reused, not re-zeroed: their floors moved on.
            assert max(block.floor for block in blocks) > 1
    index.close()


def _walk_setup(corpus, size=64):
    """A searcher, a ``size``-query batch and its exact scorer."""
    base, _, queries = corpus
    searcher = GraphSearcher(base, brute_force_knn_graph(base, 12),
                             random_state=0)
    engine = searcher.engine_
    batch = engine.prepare(queries[:size])
    score = exact_scorer(engine, searcher.data, searcher._data_norms, batch,
                         engine.norms(batch))
    return searcher, batch, score


def _walk(searcher, batch, score, scratch, walk_score=None):
    """Walk ``batch`` in 32-query groups on ``scratch``."""
    seeds = seed_entry_points(searcher._partition, batch, score,
                              searcher.n_starts)
    return beam_walk(searcher._adjacency, seeds, K, walk_score or score,
                     None, pool_size=32, max_group=32, workers=1,
                     executor=None, scratch=scratch)


def test_a_walk_that_raises_leaves_no_dirty_block(corpus):
    searcher, batch, score = _walk_setup(corpus)
    scratch = WalkScratch()
    want = _walk(searcher, batch, score, WalkScratch())
    _walk(searcher, batch, score, scratch)
    calls = []

    def failing(rows, ids):
        calls.append(1)
        # Fail in the second group, mid-walk, after the first returned
        # its block.
        if len(calls) == want[3].group_gemms[0] + 2:
            raise RuntimeError("scorer failed")
        return score(rows, ids)

    with pytest.raises(RuntimeError, match="scorer failed"):
        _walk(searcher, batch, score, scratch, failing)
    # The failed group's block was dropped, not returned.
    assert all(_clean(block) for block in scratch._free)
    got = _walk(searcher, batch, score, scratch)
    for mine, theirs in zip(got[:3], want[:3]):
        assert np.array_equal(mine, theirs)


@pytest.mark.parametrize("margin", [0, 1], ids=["zeroed", "kept"])
def test_a_floor_near_the_int32_limit(corpus, margin):
    """A floor past ``STAMP_MAX`` less the group's widest pass zeroes the
    block before the walk; one just below it walks on the old stamps.
    Neither changes an answer."""
    # One group, so the block is taken once.
    searcher, batch, score = _walk_setup(corpus, 32)
    want = _walk(searcher, batch, score, WalkScratch())
    scratch = WalkScratch()
    _walk(searcher, batch, score, scratch)
    (block,) = scratch._free
    n = searcher.data.shape[0]
    limit = STAMP_MAX - 32 * CHUNK * n
    floor = limit + 1 - margin
    # Every entry at the floor: visited nowhere, and nonzero everywhere, so
    # a zeroed block is told apart from a kept one.
    block.seen.fill(floor)
    block.floor = floor
    got = _walk(searcher, batch, score, scratch)
    for mine, theirs in zip(got[:3], want[:3]):
        assert np.array_equal(mine, theirs)
    (block,) = scratch._free
    stale = np.count_nonzero(block.seen == floor)
    if margin == 0:
        assert block.floor < 10 ** 7 and stale == 0
    else:
        # Unvisited entries keep the old stamp; put-back pops read 0.
        assert block.floor > floor and stale > block.seen.size // 2
    assert _clean(block)


def _run_threads(target, count: int) -> None:
    """Run ``target(thread)`` on ``count`` threads with a short switch
    interval; re-raise the first failure."""
    errors = []

    def run(thread: int) -> None:
        try:
            target(thread)
        except BaseException as exc:  # pragma: no cover - re-raised below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(thread,))
                   for thread in range(count)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    if errors:
        raise errors[0]


def test_threads_on_one_index_answer_as_serial_calls(corpus):
    base, _, queries = corpus
    spec = IndexSpec(backend="bruteforce", n_neighbors=12, random_state=5)
    with Index.build(base, spec) as index:
        requests = [queries[start:start + size]
                    for start, size in zip(range(0, 280, 35),
                                           (1, 7, 32, 33, 64, 3, 20, 5))]
        want = [index.search(batch, K) for batch in requests]

        def search(thread: int) -> None:
            # Odd threads run the requests backwards.
            order = range(len(requests))[::1 - 2 * (thread % 2)]
            for turn in range(3):
                for at in order:
                    got = index.search(requests[at], K,
                                       workers=1 + (turn + at) % 2)
                    assert np.array_equal(got.indices, want[at].indices)
                    assert np.array_equal(got.distances, want[at].distances)
                    assert np.array_equal(got.evaluations,
                                          want[at].evaluations)

        _run_threads(search, 4)
        blocks = index.shards[0]._searcher._scratch._free
        assert 1 <= len(blocks) <= 8 and all(_clean(b) for b in blocks)


def test_a_block_is_never_handed_to_two_walks():
    scratch = WalkScratch()

    def hold(thread: int) -> None:
        for turn in range(300):
            block = scratch.take(1 + turn % 3, 50)
            block.column[0] = thread
            time.sleep(0)
            assert block.column[0] == thread
            scratch.give(block)

    _run_threads(hold, 6)
    assert len(scratch._free) <= 6


def test_repeated_search_allocates_no_new_block():
    """The second same-shape search reuses the first one's block: its
    traced peak stays under one ``size · n · 4``-byte visit block, which a
    search that allocates its block per group cannot."""
    n, size = 50000, 32
    rng = np.random.default_rng(3)
    data = rng.normal(size=(n, 4))
    neighbours = (np.arange(n)[:, None] + rng.integers(1, n, size=(n, 8))) % n
    searcher = GraphSearcher(data, KNNGraph(neighbours),
                             seed_labels=np.arange(n) // 50)
    queries = rng.normal(size=(size, 4))
    first = searcher.batch_query(queries, K)
    tracemalloc.start()
    try:
        again = searcher.batch_query(queries, K)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(first.indices, again.indices)
    assert peak < size * n * 4, peak


def test_close_empties_the_pool(corpus):
    base, _, queries = corpus
    searcher = GraphSearcher(base, brute_force_knn_graph(base, 12),
                             random_state=0)
    want = searcher.batch_query(queries[:40], K, workers=2)
    assert searcher._scratch._free
    searcher.close()
    assert searcher._scratch._free == []
    _assert_same(searcher.batch_query(queries[:40], K, workers=2), want)
    searcher.close()
