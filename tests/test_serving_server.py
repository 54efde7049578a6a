"""The coalescing asyncio serving front end.

The core contract: coalescing concurrent single-query requests into batch
walks is invisible in the answers.  When the whole request set fits one
batch (``max_batch >= m``) every response must be **bit-for-bit** row
``i`` of the direct ``index.search(batch, max_k)[:, :k_i]`` call —
including mixed per-request k, which is served by slicing the largest
requested k.  When the budget splits the set into several batches, BLAS
may round differently-shaped gemms apart in the last ulp, so across batch
compositions ids must agree up to permutations of bitwise-tied distances
(the caveat documented in ``repro.serving.server``).

Plus the operational surface: admission control (bounded in-flight count →
``ServerOverloadedError``), clean shutdown (drain admitted work, then
``ServerClosedError``), eager validation, and per-request stats.

And the batch-close contract: a batch closes when it is full, when its
``max_delay_ms`` budget expires, or when every task that rode the previous
batch has submitted again — so closed-loop clients never idle out the
budget, while one-task-per-request traffic still waits for companions.
"""

from __future__ import annotations

import asyncio
import threading
import time

import numpy as np
import pytest

from repro.datasets import make_sift_like, train_query_split
from repro.exceptions import (
    ServerClosedError,
    ServerOverloadedError,
    ValidationError,
)
from repro.index import Index, IndexSpec
from repro.serving import CoalescingServer, RequestStats, serve_concurrently


@pytest.fixture(scope="module")
def serving_corpus():
    corpus = make_sift_like(500, 12, random_state=29)
    return train_query_split(corpus, 48, random_state=29)


@pytest.fixture(scope="module")
def served_index(serving_corpus):
    base, _ = serving_corpus
    spec = IndexSpec(backend="bruteforce", n_neighbors=8, pool_size=32,
                     random_state=7)
    return Index.build(base, spec)


class TestCoalescedExactness:
    def test_single_batch_bitwise_equals_direct_search(self, served_index,
                                                       serving_corpus):
        _, queries = serving_corpus
        m = queries.shape[0]
        direct_idx, direct_dist = served_index.search(queries, 6)
        idx, dist, stats = serve_concurrently(
            served_index, queries, n_results=6, max_batch=m,
            max_delay_ms=200.0)
        assert np.array_equal(idx, direct_idx)
        assert np.array_equal(dist, direct_dist)
        # Everything coalesced into the one full batch.
        assert all(record.batch_size == m for record in stats)

    def test_mixed_k_slices_are_exact(self, served_index, serving_corpus):
        _, queries = serving_corpus
        m = queries.shape[0]
        ks = [2 + (row % 5) for row in range(m)]
        max_k = max(ks)
        direct_idx, direct_dist = served_index.search(queries, max_k)

        async def _run():
            async with CoalescingServer(served_index, max_batch=m,
                                        max_delay_ms=200.0) as server:
                return await asyncio.gather(
                    *(server.search(queries[row], ks[row])
                      for row in range(m)))

        responses = asyncio.run(_run())
        for row, (idx, dist, record) in enumerate(responses):
            k = ks[row]
            assert record.n_results == k
            assert idx.shape == dist.shape == (k,)
            assert np.array_equal(idx, direct_idx[row, :k])
            assert np.array_equal(dist, direct_dist[row, :k])

    def test_sub_batch_coalescing_matches_up_to_ties(self, served_index,
                                                     serving_corpus):
        _, queries = serving_corpus
        direct_idx, direct_dist = served_index.search(queries, 6)
        idx, dist, stats = serve_concurrently(
            served_index, queries, n_results=6, max_batch=16,
            max_delay_ms=50.0)
        assert max(record.batch_size for record in stats) <= 16
        np.testing.assert_allclose(dist, direct_dist, rtol=1e-9, atol=1e-12)
        differs = idx != direct_idx
        assert np.all(np.isclose(dist[differs],
                                 direct_dist[differs],
                                 rtol=1e-9, atol=1e-12)), \
            "coalesced ids diverged at non-tied distances"

    def test_sharded_index_serves_through_the_front_end(self,
                                                        serving_corpus):
        base, queries = serving_corpus
        sharded = Index.build(
            base, IndexSpec(backend="bruteforce", n_neighbors=8,
                            pool_size=32, n_shards=2, random_state=7))
        try:
            m = queries.shape[0]
            direct_idx, direct_dist = sharded.search(queries, 6)
            idx, dist, stats = serve_concurrently(
                sharded, queries, n_results=6, max_batch=m,
                max_delay_ms=200.0, shard_workers=2)
            assert np.array_equal(idx, direct_idx)
            assert np.array_equal(dist, direct_dist)
            assert stats[0].serving_stats.n_shards == 2
        finally:
            sharded.close()


class TestAdmissionAndShutdown:
    def test_overload_rejects_fast(self, served_index, serving_corpus):
        _, queries = serving_corpus

        async def _run():
            # max_delay_ms high enough that the first request is still
            # queued when the second asks for admission.
            async with CoalescingServer(served_index, max_batch=4,
                                        max_delay_ms=200.0,
                                        max_pending=1) as server:
                outcomes = await asyncio.gather(
                    server.search(queries[0], 3),
                    server.search(queries[1], 3),
                    return_exceptions=True)
                return outcomes, server.n_rejected, server.n_served

        outcomes, n_rejected, n_served = asyncio.run(_run())
        rejected = [o for o in outcomes
                    if isinstance(o, ServerOverloadedError)]
        served = [o for o in outcomes if isinstance(o, tuple)]
        assert len(rejected) == 1 and len(served) == 1
        assert n_rejected == 1 and n_served == 1

    def test_close_drains_admitted_then_rejects(self, served_index,
                                                serving_corpus):
        _, queries = serving_corpus

        async def _run():
            server = CoalescingServer(served_index, max_batch=8,
                                      max_delay_ms=50.0)
            pending = asyncio.get_running_loop().create_task(
                server.search(queries[0], 3))
            await asyncio.sleep(0)  # let the request enter the queue
            await server.aclose()
            await server.aclose()  # idempotent
            idx, dist, record = await pending
            with pytest.raises(ServerClosedError):
                await server.search(queries[1], 3)
            return idx, record

        idx, record = asyncio.run(_run())
        direct_idx, _ = served_index.search(queries[:1], 3)
        assert np.array_equal(idx, direct_idx[0])
        assert record.batch_size == 1

    def test_sync_context_manager_closes(self, served_index,
                                         serving_corpus):
        """The synchronous with-block mirrors ``async with`` for servers
        whose requests run inside ``asyncio.run`` calls (or never start)."""
        _, queries = serving_corpus
        with CoalescingServer(served_index, max_batch=4,
                              max_delay_ms=1.0) as server:
            async def _one():
                return await server.search(queries[0], 3)

            idx, _, record = asyncio.run(_one())
            assert record.n_results == 3
        assert server._closed

        async def _rejected():
            return await server.search(queries[1], 3)

        with pytest.raises(ServerClosedError):
            asyncio.run(_rejected())
        server.close()  # idempotent

    def test_search_error_propagates_to_every_rider(self, serving_corpus):
        base, queries = serving_corpus

        class ExplodingIndex:
            spec = IndexSpec(backend="bruteforce", pool_size=32)
            n_features = base.shape[1]
            n_points = base.shape[0]

            def search(self, *args, **kwargs):
                raise RuntimeError("shard on fire")

        async def _run():
            async with CoalescingServer(ExplodingIndex(), max_batch=4,
                                        max_delay_ms=50.0) as server:
                return await asyncio.gather(
                    server.search(queries[0], 3),
                    server.search(queries[1], 3),
                    return_exceptions=True)

        outcomes = asyncio.run(_run())
        assert len(outcomes) == 2
        assert all(isinstance(o, RuntimeError) for o in outcomes)


class TestValidationSurface:
    def test_rejects_batch_queries(self, served_index, serving_corpus):
        _, queries = serving_corpus

        async def _run():
            async with CoalescingServer(served_index) as server:
                with pytest.raises(ValidationError, match="1-D"):
                    await server.search(queries, 3)
                with pytest.raises(ValidationError, match="dimension"):
                    await server.search(queries[0][:-1], 3)

        asyncio.run(_run())

    def test_rejects_k_beyond_pool_size(self, served_index, serving_corpus):
        _, queries = serving_corpus

        async def _run():
            async with CoalescingServer(served_index) as server:
                with pytest.raises(ValidationError, match="n_results"):
                    # pool_size=32: the k-slice is only exact up to there.
                    await server.search(queries[0], 33)

        asyncio.run(_run())

    def test_rejects_managed_search_kwargs(self, served_index):
        with pytest.raises(ValidationError, match="managed"):
            CoalescingServer(served_index, n_results=5)

    def test_rejects_bad_budget_parameters(self, served_index):
        with pytest.raises(ValidationError):
            CoalescingServer(served_index, max_batch=0)
        with pytest.raises(ValidationError):
            CoalescingServer(served_index, max_delay_ms=-1.0)
        with pytest.raises(ValidationError):
            CoalescingServer(served_index, max_pending=0)
        with pytest.raises(ValidationError):
            serve_concurrently(served_index, np.zeros(4), n_results=2)


class TestRequestStats:
    def test_stats_describe_the_ride(self, served_index, serving_corpus):
        _, queries = serving_corpus
        _, _, stats = serve_concurrently(served_index, queries[:8],
                                         n_results=4, max_batch=8,
                                         max_delay_ms=200.0)
        for record in stats:
            assert isinstance(record, RequestStats)
            assert record.n_results == 4
            assert 1 <= record.batch_size <= 8
            assert 0 <= record.queued_seconds <= record.total_seconds
            assert record.serving_stats is not None

    def test_server_counters_add_up(self, served_index, serving_corpus):
        _, queries = serving_corpus

        async def _run():
            async with CoalescingServer(served_index, max_batch=4,
                                        max_delay_ms=50.0) as server:
                await asyncio.gather(
                    *(server.search(q, 3) for q in queries[:12]))
                return server.n_served, server.n_batches, server.n_rejected

        n_served, n_batches, n_rejected = asyncio.run(_run())
        assert n_served == 12
        assert n_rejected == 0
        assert n_batches >= 3  # 12 requests, at most 4 per batch


class _WrappedIndex:
    """Serves through a real index; subclasses hook ``search``."""

    def __init__(self, index) -> None:
        self._inner = index
        self.spec = index.spec
        self.n_features = index.n_features
        self.n_points = index.n_points

    def search(self, queries, n_results, **kwargs):
        return self._inner.search(queries, n_results, **kwargs)


def _run_in_thread(target, timeout: float):
    """Run ``target()`` in a daemon thread joined with ``timeout``: a hang
    fails the test instead of stalling the suite."""
    outcome = {}

    def _body():
        try:
            outcome["value"] = target()
        except BaseException as exc:  # re-raised in the test's thread
            outcome["error"] = exc

    thread = threading.Thread(target=_body, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"still running after {timeout} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class TestBatchClose:
    def test_closed_loop_clients_skip_the_budget(self, served_index,
                                                 serving_corpus):
        """Once every rider of a batch has asked again, the next batch
        leaves at once instead of waiting out a 5 s budget."""
        _, queries = serving_corpus
        n_clients, n_rounds = 6, 4

        async def _run():
            async with CoalescingServer(served_index, max_batch=32,
                                        max_delay_ms=5000.0) as server:
                async def client(c):
                    return [await server.search(
                        queries[r * n_clients + c], 5)
                        for r in range(n_rounds)]

                return await asyncio.gather(
                    *(client(c) for c in range(n_clients)))

        per_client = _run_in_thread(lambda: asyncio.run(_run()), 60.0)
        first = [responses[0][2] for responses in per_client]
        assert all(record.queued_seconds >= 5.0 for record in first)
        for r in range(n_rounds):
            rows = slice(r * n_clients, (r + 1) * n_clients)
            direct_idx, direct_dist = served_index.search(queries[rows], 5)
            for c, responses in enumerate(per_client):
                idx, dist, record = responses[r]
                assert record.batch_size == n_clients
                if r > 0:
                    assert record.queued_seconds < 1.0
                assert np.array_equal(idx, direct_idx[c])
                assert np.array_equal(dist, direct_dist[c])

    def test_fresh_tasks_still_coalesce(self, served_index,
                                        serving_corpus):
        """One task per request (open-loop traffic) never rejoins, so
        requests 10 ms apart still share one batch under a 200 ms budget —
        also right after a batch whose riders have finished."""
        _, queries = serving_corpus

        async def _run():
            async with CoalescingServer(served_index, max_batch=8,
                                        max_delay_ms=200.0) as server:
                await asyncio.gather(server.search(queries[0], 3),
                                     server.search(queries[1], 3))
                loop = asyncio.get_running_loop()
                tasks = []
                for row in range(2, 6):
                    tasks.append(loop.create_task(
                        server.search(queries[row], 3)))
                    await asyncio.sleep(0.01)
                return await asyncio.gather(*tasks), server.n_batches

        responses, n_batches = asyncio.run(_run())
        assert n_batches == 2
        assert all(record.batch_size == 4 for _, _, record in responses)

    def test_a_rider_that_leaves_restores_the_budget(self, served_index,
                                                     serving_corpus):
        _, queries = serving_corpus
        max_delay = 0.1

        async def _run():
            async with CoalescingServer(
                    served_index, max_batch=8,
                    max_delay_ms=max_delay * 1000.0) as server:
                async def client(row, times):
                    return [await server.search(queries[row], 3)
                            for _ in range(times)]

                return await asyncio.gather(client(0, 2), client(1, 2),
                                            client(2, 1))

        stays_0, stays_1, leaves = asyncio.run(_run())
        assert leaves[0][2].batch_size == 3
        for responses in (stays_0, stays_1):
            record = responses[1][2]
            assert record.batch_size == 2
            assert record.queued_seconds >= max_delay

    def test_zero_budget_and_full_batches_dispatch_as_before(
            self, served_index, serving_corpus):
        _, queries = serving_corpus
        direct_idx, direct_dist = served_index.search(queries[:8], 4)
        # A zero budget still coalesces whatever is already queued.
        idx, dist, stats = serve_concurrently(
            served_index, queries[:8], n_results=4, max_batch=16,
            max_delay_ms=0.0)
        assert all(record.batch_size == 8 for record in stats)
        assert np.array_equal(idx, direct_idx)
        assert np.array_equal(dist, direct_dist)

        # A full batch leaves at once, never waiting out its budget.
        async def _run():
            async with CoalescingServer(served_index, max_batch=4,
                                        max_delay_ms=60_000.0) as server:
                return await asyncio.wait_for(asyncio.gather(
                    *(server.search(query, 4) for query in queries[:8])),
                    timeout=10.0)

        responses = asyncio.run(_run())
        for _, _, record in responses:
            assert record.batch_size == 4
            assert record.queued_seconds < 1.0


class TestLoopLifecycle:
    def test_loop_exit_with_a_batch_in_flight_does_not_hang(
            self, served_index, serving_corpus):
        """Leaving ``asyncio.run`` without ``aclose`` while a batch walks
        cancels the batcher; it must end rather than loop on."""
        _, queries = serving_corpus

        class SlowIndex(_WrappedIndex):
            def search(self, queries, n_results, **kwargs):
                time.sleep(0.3)
                return super().search(queries, n_results, **kwargs)

        server = CoalescingServer(SlowIndex(served_index),
                                  max_delay_ms=0.0)

        async def _abandon():
            asyncio.get_running_loop().create_task(
                server.search(queries[0], 3))
            await asyncio.sleep(0.05)  # the batch is walking now

        _run_in_thread(lambda: asyncio.run(_abandon()), 5.0)
        server.close()

    def test_cancelled_request_is_not_walked(self, served_index,
                                             serving_corpus):
        _, queries = serving_corpus

        class CountingIndex(_WrappedIndex):
            def __init__(self, index) -> None:
                super().__init__(index)
                self.rows = []

            def search(self, queries, n_results, **kwargs):
                self.rows.append(len(queries))
                return super().search(queries, n_results, **kwargs)

        counting = CountingIndex(served_index)

        async def _run():
            async with CoalescingServer(counting, max_batch=4,
                                        max_delay_ms=50.0) as server:
                loop = asyncio.get_running_loop()
                doomed = loop.create_task(server.search(queries[0], 3))
                kept = loop.create_task(server.search(queries[1], 3))
                await asyncio.sleep(0)  # both admitted and queued
                doomed.cancel()
                served = await kept
                # A batch whose every rider was cancelled walks nothing.
                lone = loop.create_task(server.search(queries[2], 3))
                await asyncio.sleep(0)
                lone.cancel()
                await asyncio.sleep(0.1)  # past the budget
                return served

        idx, dist, record = asyncio.run(_run())
        assert counting.rows == [1]
        assert record.batch_size == 1
        direct_idx, direct_dist = served_index.search(queries[1:2], 3)
        assert np.array_equal(idx, direct_idx[0])
        assert np.array_equal(dist, direct_dist[0])

    def test_server_serves_a_second_event_loop(self, served_index,
                                               serving_corpus):
        _, queries = serving_corpus
        server = CoalescingServer(served_index, max_batch=4,
                                  max_delay_ms=1.0)

        def _two_loops():
            return [asyncio.run(server.search(queries[row], 3))
                    for row in range(2)]

        answers = _run_in_thread(_two_loops, 10.0)
        server.close()
        for row, (idx, dist, record) in enumerate(answers):
            direct_idx, direct_dist = served_index.search(
                queries[row:row + 1], 3)
            assert record.batch_size == 1
            assert np.array_equal(idx, direct_idx[0])
            assert np.array_equal(dist, direct_dist[0])
