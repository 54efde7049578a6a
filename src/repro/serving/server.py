"""Asyncio request-coalescing server over the batch search path.

Online ANN traffic is single queries; the fast serving path is a batch —
the frontier-merged walk amortises entry-point scoring and gemm dispatch
over the whole batch, and the sharded executors amortise fan-out overhead.
:class:`CoalescingServer` converts one into the other: concurrent
``await server.search(query, k)`` calls are gathered into one
``index.search`` batch call, and each request gets its own top-k slice of
the batch result back.  A batch closes when it is full (``max_batch``
requests), when its budget expires (``max_delay_ms`` after the batcher
picked up its oldest request), or when every rider of the previous batch
has rejoined — whichever comes first.

Why the rejoin rule
-------------------
Closed-loop clients (each awaits its answer before asking again) send
nothing new while they wait, so once every task that rode the previous
batch has submitted again, no companion the budget could still catch is
known to be on its way: the batch is dispatched at once instead of idling
out the budget.  The rule needs the whole previous batch back — a rider
that finished, was cancelled or ran outside a task never rejoins, and the
batch waits its full budget as before.  Open-loop traffic, one task per
request, never rejoins, so it is coalesced exactly as under the budget
alone.

Why coalescing cannot change the answers
----------------------------------------
Batch composition is invisible to the walk: a request's seeds depend on
the query alone — the nearest members of its nearest cluster of the index's
seed partition (see :func:`repro.search._seeding.seed_entry_points`),
scored against that query only — and every request's walk mutates only its
own per-query state.  Per-request ``n_results`` are
served by searching the batch at the *largest* requested k and slicing —
exact because the walk depends on ``pool_size``, not on k, which is why the
server refuses requests with ``n_results > pool_size`` at admission.  A
response is therefore bit-for-bit row ``i`` of
``index.search(batch, max_k)[:, :k_i]`` — the determinism suite pins
exactly that against a direct serial search when the whole request set
coalesces into one batch.

The documented caveat, shared with the batch-vs-sequential parity of the
walk itself: when coalescing splits the request set into *different*
batches than a direct comparison call, BLAS may block the differently
shaped gemms differently, perturbing distances in the last ulp — so across
batch compositions, ids agree up to permutations of bitwise-tied distances
and distances to within a few ulps, never more.  No graph trajectory,
pool update or merge decision depends on batch membership.

Back pressure
-------------
Admission control is a bounded in-flight count: when ``max_pending``
requests are queued or being served, new requests fail fast with
:class:`~repro.exceptions.ServerOverloadedError` instead of growing an
unbounded queue.  Closing the server drains already admitted requests
(FIFO, without waiting out the budget) and then rejects everything new
with :class:`~repro.exceptions.ServerClosedError`.
"""

from __future__ import annotations

import asyncio
import functools
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..exceptions import (
    ServerClosedError,
    ServerOverloadedError,
    ValidationError,
)
from ..validation import check_positive_int

__all__ = ["CoalescingServer", "RequestStats", "serve_concurrently"]


@dataclass(frozen=True)
class RequestStats:
    """Per-request serving record returned alongside the results.

    Attributes
    ----------
    n_results:
        The k this request asked for.
    batch_size:
        Number of requests coalesced into the batch that served this one
        (1 = the latency budget expired before company arrived).
    queued_seconds:
        Time from admission to the batch walk starting — the coalescing
        delay actually paid.
    total_seconds:
        Time from admission to the response being ready.
    serving_stats:
        The batch search's own
        :class:`~repro.index.sharded.ShardedServingStats`, shared by all
        requests of the batch.
    """

    n_results: int
    batch_size: int
    queued_seconds: float
    total_seconds: float
    serving_stats: object | None


class _Request:
    """One admitted query waiting for (or riding in) a batch, with the
    task that asked (``None`` outside a task) for the rejoin rule."""

    __slots__ = ("query", "n_results", "future", "task", "admitted")

    def __init__(self, query: np.ndarray, n_results: int,
                 future: asyncio.Future, task: asyncio.Task | None) -> None:
        self.query = query
        self.n_results = n_results
        self.future = future
        self.task = task
        self.admitted = time.perf_counter()


class CoalescingServer:
    """Coalesce concurrent single-query requests into batch walks.

    Parameters
    ----------
    index:
        The :class:`~repro.index.facade.Index` to serve (anything with its
        ``search``/``spec`` surface).
    max_batch:
        Most requests one batch walk may serve.  A full batch is dispatched
        immediately, before the delay budget expires.
    max_delay_ms:
        Longest a request may wait for companions, in milliseconds, counted
        from when the batcher picks up the batch's oldest request.  A batch
        closes earlier when it is full or when every rider of the previous
        batch has rejoined.  ``0`` still coalesces whatever is already
        queued, but never waits.
    max_pending:
        Admission-control bound on in-flight requests (queued + being
        served); the ``max_pending + 1``-th concurrent request is rejected
        with :class:`~repro.exceptions.ServerOverloadedError`.
    search_kwargs:
        Extra keyword arguments passed verbatim to every ``index.search``
        batch call (``executor="remote"``, ``shard_workers=...``,
        ``pool_size=...``, ...).  ``n_results`` is managed by the server
        and rejected here.

    Use as an async context manager (or call :meth:`aclose` yourself)::

        async with CoalescingServer(index, max_batch=64) as server:
            ids, dists, stats = await server.search(query, n_results=10)

    All ``search`` calls of one run must come from one event loop (the
    normal single-loop asyncio setup); once that loop has ended, a later
    loop (a second ``asyncio.run``) is served by a fresh batcher.  Batches
    run on a dedicated one-thread executor, one at a time; each request's
    :class:`RequestStats` carries the stats of the search result that
    served its batch.
    """

    def __init__(self, index, *, max_batch: int = 32,
                 max_delay_ms: float = 2.0, max_pending: int = 1024,
                 **search_kwargs) -> None:
        self._index = index
        self._max_batch = check_positive_int(max_batch, name="max_batch")
        try:
            self._max_delay = float(max_delay_ms) / 1000.0
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                f"max_delay_ms must be a number, got {max_delay_ms!r}"
            ) from exc
        if self._max_delay < 0:
            raise ValidationError(
                f"max_delay_ms must be >= 0, got {max_delay_ms}")
        self._max_pending = check_positive_int(max_pending,
                                               name="max_pending")
        managed = {"n_results"} & set(search_kwargs)
        if managed:
            raise ValidationError(
                f"search kwargs {sorted(managed)} are managed by the "
                "server and cannot be overridden")
        self._search_kwargs = search_kwargs
        # The k-slice of a batch result is exact only while k <= pool_size
        # (the walk depends on the pool bound, not on k) — enforced per
        # request in search().
        pool = search_kwargs.get("pool_size")
        self._pool_size = index.spec.pool_size if pool is None else pool
        self._waiting: deque[_Request] = deque()
        self._pending = 0
        self._closed = False
        self._batcher: asyncio.Task | None = None
        #: What the batcher sleeps on; resolved by :meth:`_wake`.
        self._wakeup: asyncio.Future | None = None
        #: Tasks that rode the last batch and have not submitted since, or
        #: ``None`` while the rejoin rule is off.  An empty set closes the
        #: gathering batch.
        self._awaited: set[asyncio.Task] | None = None
        self._search_pool = ThreadPoolExecutor(max_workers=1)
        #: Running counters: requests served, rejected at admission, and
        #: batches walked (mean coalesced batch size = served / batches).
        self.n_served = 0
        self.n_rejected = 0
        self.n_batches = 0

    # ------------------------------------------------------------------ #
    # Client surface
    # ------------------------------------------------------------------ #
    async def search(self, query: np.ndarray, n_results: int = 10
                     ) -> tuple[np.ndarray, np.ndarray, RequestStats]:
        """Serve one query; returns ``(indices, distances, stats)``.

        Validates eagerly (shape, k against pool size and corpus size),
        applies admission control, then awaits the coalesced batch walk.
        """
        if self._closed:
            raise ServerClosedError("server is closed")
        query = np.asarray(query)
        if query.ndim != 1:
            raise ValidationError(
                f"server requests are single 1-D queries, got a "
                f"{query.ndim}-D array; batch clients should call "
                "index.search directly")
        if query.shape[0] != self._index.n_features:
            raise ValidationError(
                f"query has dimension {query.shape[0]}, the index serves "
                f"{self._index.n_features}")
        n_results = check_positive_int(
            n_results, name="n_results",
            maximum=min(self._index.n_points, self._pool_size))
        if self._pending >= self._max_pending:
            self.n_rejected += 1
            raise ServerOverloadedError(
                f"server is at its admission limit of {self._max_pending} "
                "in-flight requests; back off and retry")
        loop = asyncio.get_running_loop()
        if self._batcher is None or self._batcher.done():
            self._batcher = loop.create_task(self._run())
        task = asyncio.current_task()
        request = _Request(query, n_results, loop.create_future(), task)
        self._pending += 1
        if self._awaited:
            self._awaited.discard(task)
        self._waiting.append(request)
        # A lone request is the first arrival at an idle batcher (while a
        # batch gathers, its oldest request stays in the deque).
        if len(self._waiting) == 1 or self._batch_closed():
            self._wake()
        try:
            return await request.future
        finally:
            self._pending -= 1

    async def aclose(self) -> None:
        """Drain admitted requests, stop the batcher, release the pool.

        Idempotent.  Requests admitted before the close are still served,
        in FIFO order and without waiting out the budget; later ``search``
        calls raise :class:`~repro.exceptions.ServerClosedError`.
        """
        if self._closed:
            return
        self._closed = True
        if self._batcher is not None and not self._batcher.done():
            self._wake()
            await self._batcher
        self._search_pool.shutdown(wait=True)

    async def __aenter__(self) -> "CoalescingServer":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.aclose()

    def close(self) -> None:
        """Synchronous teardown for servers used outside a running loop.

        Idempotent.  Marks the server closed, signals the batcher (which
        can only still exist if its event loop is gone — a live loop's
        users must ``await aclose()`` instead, which drains admitted
        requests) and releases the search pool.
        """
        if self._closed:
            return
        self._closed = True
        if self._batcher is not None and not self._batcher.done():
            self._wake()
        self._search_pool.shutdown(wait=True)

    def __enter__(self) -> "CoalescingServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Batcher
    # ------------------------------------------------------------------ #
    def _batch_closed(self) -> bool:
        """Whether the gathering batch is dispatched without more waiting:
        the server is closing, the batch is full, or every rider of the
        previous batch has rejoined."""
        return (self._closed or len(self._waiting) >= self._max_batch
                or self._awaited == set())

    def _wake(self) -> None:
        """Resolve the future the batcher sleeps on, if it sleeps."""
        if self._wakeup is not None and not self._wakeup.done():
            self._wakeup.set_result(None)

    async def _sleep(self, deadline: float | None) -> None:
        """Sleep until :meth:`_wake` or the loop-clock ``deadline``."""
        loop = asyncio.get_running_loop()
        self._wakeup = loop.create_future()
        timer = None if deadline is None else loop.call_at(deadline,
                                                           self._wake)
        try:
            await self._wakeup
        finally:
            self._wakeup = None
            if timer is not None:
                timer.cancel()

    async def _serve_batch(self) -> None:
        """Take up to ``max_batch`` waiting requests, run their batch walk
        and resolve every rider's future."""
        batch = []
        while self._waiting and len(batch) < self._max_batch:
            request = self._waiting.popleft()
            if not request.future.done():  # not cancelled while queued
                batch.append(request)
        tasks = {request.task for request in batch}
        self._awaited = tasks if tasks and None not in tasks else None
        if not batch:
            return
        loop = asyncio.get_running_loop()
        queries = np.stack([request.query for request in batch])
        max_k = max(request.n_results for request in batch)
        walk_started = time.perf_counter()
        try:
            result = await loop.run_in_executor(
                self._search_pool,
                functools.partial(self._index.search, queries, max_k,
                                  **self._search_kwargs))
        except Exception as exc:
            for request in batch:
                if not request.future.done():
                    request.future.set_exception(exc)
            return
        except BaseException:
            # The batcher itself is cancelled (its loop is ending), or the
            # process is being interrupted: fail the riders, end the batcher.
            for request in batch:
                request.future.cancel()
            raise
        indices, distances = result
        finished = time.perf_counter()
        self.n_batches += 1
        for row, request in enumerate(batch):
            k = request.n_results
            record = RequestStats(
                n_results=k, batch_size=len(batch),
                queued_seconds=walk_started - request.admitted,
                total_seconds=finished - request.admitted,
                serving_stats=result.stats)
            if not request.future.done():  # rider may have been cancelled
                request.future.set_result(
                    (indices[row, :k].copy(), distances[row, :k].copy(),
                     record))
                self.n_served += 1

    async def _run(self) -> None:
        """Batcher loop: wait for a request → gather under budget → walk →
        respond; once closed, serve what is left and exit."""
        loop = asyncio.get_running_loop()
        while self._waiting or not self._closed:
            if not self._waiting:
                await self._sleep(None)  # first arrival, or close
                continue
            if self._max_delay > 0 and not self._batch_closed():
                await self._sleep(loop.time() + self._max_delay)
            await self._serve_batch()


def serve_concurrently(index, queries: np.ndarray, n_results: int = 10, *,
                       max_batch: int = 32, max_delay_ms: float = 2.0,
                       max_pending: int | None = None, **search_kwargs
                       ) -> tuple[np.ndarray, np.ndarray, list]:
    """Client helper: fire one concurrent request per query row.

    Spins up an event loop and a :class:`CoalescingServer`, submits every
    row of ``queries`` as its own concurrent single-query request, and
    returns ``(indices, distances, stats)`` — the stacked per-request
    results plus the per-request :class:`RequestStats` list.  This is the
    easiest way to exercise (or smoke-test) the coalescing path from
    synchronous code; ``max_pending`` defaults to admitting the whole
    request set.
    """
    queries = np.asarray(queries)
    if queries.ndim != 2:
        raise ValidationError(
            f"queries must be a 2-D batch, got {queries.ndim}-D")
    if max_pending is None:
        max_pending = max(1024, queries.shape[0])

    async def _run():
        async with CoalescingServer(
                index, max_batch=max_batch, max_delay_ms=max_delay_ms,
                max_pending=max_pending, **search_kwargs) as server:
            return await asyncio.gather(
                *(server.search(query, n_results) for query in queries))

    responses = asyncio.run(_run())
    indices = np.stack([response[0] for response in responses])
    distances = np.stack([response[1] for response in responses])
    return indices, distances, [response[2] for response in responses]
