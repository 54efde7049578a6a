"""Pluggable shard-fan-out executors for :class:`~repro.index.sharded.ShardedIndex`.

A sharded search is S independent sub-searches plus a deterministic merge.
*Where* those sub-searches run is a serving decision, not a correctness one,
so this module extracts the fan-out behind a small executor interface:

* :class:`ThreadShardExecutor` — the per-shard walks run on an in-process
  :class:`~concurrent.futures.ThreadPoolExecutor`.  The walk's
  gemms release the GIL inside BLAS, nothing is pickled, and the
  pool is persistent (created lazily, reused across calls) instead of being
  rebuilt per search.
* :class:`RemoteShardExecutor` — the distribution step: each shard lives
  behind a network endpoint (a ``gkmeans serve`` daemon, see
  :mod:`repro.net.server`), and the fan-out sends each task to its shard's
  endpoint over the framed RPC transport of :mod:`repro.net` — pooled
  connections, per-RPC timeouts, bounded exponential-backoff retries, and
  fail-fast :class:`~repro.exceptions.ServingError` surfacing the original
  remote traceback.  Daemons on localhost are also how shard walks run on
  separate cores with nothing shared.

All executors run the *same* per-task search function
(:func:`search_shard_index`) — the shard servers included — collect
results in task order, and surface a failing task's original exception,
so the executor choice is a pure placement knob: results are bit-for-bit
identical between ``thread``, ``remote`` and the serial inline path — a
contract enforced by the determinism suite, not left to hope.

Quantized serving needs no executor-side support: ``spec.quantize``
travels inside each shard's spec (and the ``int8`` parameters inside each
shard's NPZ, which is what remote daemons load), and
every executor funnels into ``Index.search``, so a quantized shard serves
identically — and still bit-for-bit across executors — wherever it runs.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from threading import Lock

import numpy as np

from ..exceptions import ServingError
from ..net.client import EndpointPool
from .facade import Index

__all__ = ["ShardSearchTask", "ShardSearchResult", "search_shard_index",
           "ThreadShardExecutor", "RemoteShardExecutor"]


@dataclass(frozen=True)
class ShardSearchTask:
    """One shard's share of a sharded search, as a picklable message.

    ``queries`` is the 2-D batch the shard must serve (a single query
    travels as a batch of one).  The remaining fields are the per-call
    search knobs.  The field list is part of the wire protocol: changing
    it needs a :data:`~repro.net.framing.PROTOCOL_VERSION` bump.
    """

    shard: int
    queries: np.ndarray
    shard_k: int
    pool_size: int | None = None
    workers: int | None = None


@dataclass(frozen=True)
class ShardSearchResult:
    """One shard's search output, in the shard's ids — the global ids of
    its rows.

    ``indices``/``distances`` carry the 2-D batch shape; unreached entries
    are ``(-1, inf)`` pairs so the parent-side merge can treat every shard
    uniformly.  ``evaluations`` is the per-query distance-evaluation count
    and ``stats`` the shard's :class:`~repro.search.frontier.ServingStats`.
    """

    indices: np.ndarray
    distances: np.ndarray
    evaluations: np.ndarray
    stats: object


def search_shard_index(index: Index, task: ShardSearchTask
                       ) -> ShardSearchResult:
    """Serve ``task`` on ``index`` — the single search path of every executor.

    The thread executor, the shard servers behind the remote one and the
    serial inline fallback all call exactly this function, so a shard's
    walk is byte-identical no matter where it ran.
    """
    idx, dist = index.search(task.queries, task.shard_k,
                             pool_size=task.pool_size, workers=task.workers)
    return ShardSearchResult(
        indices=idx, distances=dist,
        evaluations=index.last_per_query_evaluations.copy(),
        stats=index.last_serving_stats)


class _PooledFanOut:
    """The fan-out loop both executors share: ``_search`` per task.

    The pool is created lazily on the first multi-task ``run`` and reused
    until :meth:`close` — serving traffic must not pay thread start-up per
    search call.  Single-task (or ``max_workers=1``) runs execute inline.
    """

    def __init__(self, max_workers: int) -> None:
        self._max_workers = max(1, int(max_workers))
        self._pool: ThreadPoolExecutor | None = None

    def run(self, tasks: list) -> list:
        """Serve every task; results come back in task order."""
        if self._max_workers == 1 or len(tasks) <= 1:
            return [self._search(task) for task in tasks]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self._max_workers)
        # map() yields in submission order and re-raises a failing task's
        # original exception on iteration.
        return list(self._pool.map(self._search, tasks))

    def close(self) -> None:
        """Shut the pool down (idempotent); ``run`` recreates it if needed."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass


class ThreadShardExecutor(_PooledFanOut):
    """In-process shard fan-out: each task walks its shard on the pool."""

    name = "thread"

    def __init__(self, shards: list, max_workers: int) -> None:
        super().__init__(max_workers)
        self._shards = shards

    def _search(self, task: ShardSearchTask) -> ShardSearchResult:
        return search_shard_index(self._shards[task.shard], task)


class RemoteShardExecutor(_PooledFanOut):
    """Networked shard fan-out: one RPC endpoint per shard.

    ``endpoints[s]`` must serve shard ``s`` (a ``gkmeans serve`` daemon
    that loaded that shard's NPZ) — the ordering comes from the deployment
    manifest and is load-bearing: the handshake checks it, and a daemon
    answers with its own shard's rows only.

    Tasks are dispatched concurrently on a small local thread pool (the
    threads only wait on sockets — the walks run on the servers), each RPC
    through the pooled retrying :class:`~repro.net.client.ShardClient`.
    An endpoint that stays unreachable after the bounded retries fails the
    search with a :class:`~repro.exceptions.ServingError` naming it; a
    task that raises *on* a server comes back as a typed error frame and
    is re-raised here with the original remote traceback.  No silent
    partial results: every shard answers or the search fails.

    Before its first task, every endpoint is validated with an ``info``
    handshake: a daemon answering for the wrong ``shard_id`` — a swapped
    endpoint list would otherwise *silently* return wrong-shard results —
    or (when ``expected_generations`` is given) a daemon still serving a
    stale generation of its shard raises a
    :class:`~repro.exceptions.ServingError` naming the mismatch.  The
    check runs once per endpoint per executor lifetime; a reload-then-new-
    executor cycle re-validates.
    """

    name = "remote"

    def __init__(self, endpoints, max_workers: int, *,
                 connect_timeout: float | None = None,
                 read_timeout: float | None = None,
                 retries: int | None = None,
                 expected_generations=None) -> None:
        client_kwargs = {}
        if connect_timeout is not None:
            client_kwargs["connect_timeout"] = connect_timeout
        if read_timeout is not None:
            client_kwargs["read_timeout"] = read_timeout
        if retries is not None:
            client_kwargs["retries"] = retries
        super().__init__(max_workers)
        self._endpoints = EndpointPool(endpoints, **client_kwargs)
        self._expected_generations = (
            None if expected_generations is None
            else tuple(int(value) for value in expected_generations))
        self._validated: set[int] = set()
        self._validate_lock = Lock()

    def _handshake(self, shard: int) -> None:
        """Validate the daemon behind ``shard``'s endpoint, once."""
        with self._validate_lock:
            if shard in self._validated:
                return
            client = self._endpoints.client(shard)
            info = client.info()
            served = info.get("shard_id")
            if served != shard:
                raise ServingError(
                    f"endpoint {client.endpoint} serves shard {served}, "
                    f"but the deployment manifest maps it to shard "
                    f"{shard} — the endpoint list is misordered or points "
                    "at the wrong daemons")
            if self._expected_generations is not None:
                expected = self._expected_generations[shard]
                generation = info.get("generation")
                if generation != expected:
                    raise ServingError(
                        f"endpoint {client.endpoint} serves generation "
                        f"{generation} of shard {shard}, but the index "
                        f"expects generation {expected} — the daemon is "
                        "stale (tell it to reload) or loaded a different "
                        "build of the index")
            self._validated.add(shard)

    def _search(self, task: ShardSearchTask) -> ShardSearchResult:
        self._handshake(task.shard)
        return self._endpoints.client(task.shard).search(task)

    def check_health(self) -> dict:
        """Ping every endpoint, evicting dead pooled connections.

        Returns ``{endpoint: latency_seconds | None}`` (``None`` = the
        endpoint failed its health check; its pooled connections were
        dropped so the next search reconnects from scratch).
        """
        return self._endpoints.check_health()

    def close(self) -> None:
        """Release the dispatch pool and every pooled connection."""
        super().close()
        self._endpoints.close()
