"""Pluggable shard-fan-out executors for :class:`~repro.index.sharded.ShardedIndex`.

A sharded search is S independent sub-searches plus a deterministic merge.
*Where* those sub-searches run is a serving decision, not a correctness one,
so this module extracts the fan-out behind a small executor interface:

* :class:`ThreadShardExecutor` — the per-shard walks run on an in-process
  :class:`~concurrent.futures.ThreadPoolExecutor`.  The walk's
  gemms release the GIL inside BLAS, nothing is pickled, and the
  pool is persistent (created lazily, reused across calls) instead of being
  rebuilt per search.
* :class:`ProcessShardExecutor` — a persistent
  :class:`~concurrent.futures.ProcessPoolExecutor` whose workers each load
  their shard's saved NPZ **once** and then serve query groups by
  shared-nothing message passing.  This escapes the interpreter lock
  entirely — the Python-side walk bookkeeping of different shards runs on
  different cores — at the cost of pickling the queries out and the top-k
  back.
* :class:`RemoteShardExecutor` — the distribution step: each shard lives
  behind a network endpoint (a ``gkmeans serve`` daemon, see
  :mod:`repro.net.server`), and the fan-out sends each task to its shard's
  endpoint over the framed RPC transport of :mod:`repro.net` — pooled
  connections, per-RPC timeouts, bounded exponential-backoff retries, and
  fail-fast :class:`~repro.exceptions.ServingError` surfacing the original
  remote traceback.

All executors run the *same* per-task search function
(:func:`search_shard_index`) — the shard servers included — collect
results in task order, and surface a failing task's original exception,
so the executor choice is a pure placement knob: results are bit-for-bit
identical between ``thread``, ``process``, ``remote`` and the serial
inline path — a contract enforced by the determinism suite, not left to
hope.

Quantized serving needs no executor-side support: ``spec.quantize``
travels inside each shard's spec (and the ``int8`` parameters inside each
shard's NPZ, which is what process workers and remote daemons load), and
every executor funnels into ``Index.search``, so a quantized shard serves
identically — and still bit-for-bit across executors — wherever it runs.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from multiprocessing import get_context
from threading import Lock

import numpy as np

from ..exceptions import ServingError
from ..net.client import EndpointPool
from .facade import Index

__all__ = ["ShardSearchTask", "ShardSearchResult", "search_shard_index",
           "ThreadShardExecutor", "ProcessShardExecutor",
           "RemoteShardExecutor"]


@dataclass(frozen=True)
class ShardSearchTask:
    """One shard's share of a sharded search, as a picklable message.

    ``queries`` is the 2-D batch the shard must serve (a single query
    travels as a batch of one).  The remaining fields are the per-call
    search knobs, with ``seed`` already resolved (never ``None``) so a
    worker process reproduces the parent's entry-point sample exactly.
    """

    shard: int
    queries: np.ndarray
    shard_k: int
    pool_size: int | None = None
    workers: int | None = None
    seed: int = 0


@dataclass(frozen=True)
class ShardSearchResult:
    """One shard's search output, in *local* row ids.

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

    Thread and process executors (and the serial inline fallback) all call
    exactly this function, so a shard's walk is byte-identical no matter
    where it ran.
    """
    idx, dist = index.search(task.queries, task.shard_k,
                             pool_size=task.pool_size, workers=task.workers,
                             random_state=task.seed)
    return ShardSearchResult(
        indices=idx, distances=dist,
        evaluations=index.last_per_query_evaluations.copy(),
        stats=index.last_serving_stats)


class ThreadShardExecutor:
    """In-process shard fan-out on a persistent thread pool.

    The pool is created lazily on the first multi-task ``run`` and reused
    until :meth:`close` — serving traffic must not pay thread start-up per
    search call.  Single-task (or ``max_workers=1``) runs execute inline.
    """

    name = "thread"

    def __init__(self, shards: list, max_workers: int) -> None:
        self._shards = shards
        self._max_workers = max(1, int(max_workers))
        self._pool: ThreadPoolExecutor | None = None

    def _search(self, task: ShardSearchTask) -> ShardSearchResult:
        return search_shard_index(self._shards[task.shard], task)

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


class RemoteShardExecutor:
    """Networked shard fan-out: one RPC endpoint per shard.

    ``endpoints[s]`` must serve shard ``s`` (a ``gkmeans serve`` daemon
    that loaded that shard's NPZ) — the ordering comes from the deployment
    manifest and is load-bearing, since the parent merge lifts shard-local
    row ids through the shard id maps.

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
        self._endpoints = EndpointPool(endpoints, **client_kwargs)
        self._max_workers = max(1, int(max_workers))
        self._pool: ThreadPoolExecutor | None = None
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

    def run(self, tasks: list) -> list:
        """Serve every task remotely; results come back in task order."""
        if self._max_workers == 1 or len(tasks) <= 1:
            return [self._search(task) for task in tasks]
        if self._pool is None:
            self._pool = ThreadPoolExecutor(max_workers=self._max_workers)
        # map() yields in submission order and re-raises a failing task's
        # exception on iteration — same contract as the local executors.
        return list(self._pool.map(self._search, tasks))

    def check_health(self) -> dict:
        """Ping every endpoint, evicting dead pooled connections.

        Returns ``{endpoint: latency_seconds | None}`` (``None`` = the
        endpoint failed its health check; its pooled connections were
        dropped so the next search reconnects from scratch).
        """
        return self._endpoints.check_health()

    def close(self) -> None:
        """Release the dispatch pool and every pooled connection."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self._endpoints.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass


#: Per-worker-process shard cache: saved-NPZ path -> loaded Index.  Each
#: worker loads a shard at most once and serves every later task against
#: the cached object — the whole point of the persistent process pool.
_WORKER_SHARDS: dict[str, Index] = {}


def _process_search(path: str, task: ShardSearchTask) -> ShardSearchResult:
    """Worker-side task entry point: load-once, then search the cache."""
    index = _WORKER_SHARDS.get(path)
    if index is None:
        index = _WORKER_SHARDS[path] = Index.load(path)
    return search_shard_index(index, task)


class ProcessShardExecutor:
    """Out-of-process shard fan-out on a persistent process pool.

    Workers are spawned (not forked — forking a process with live BLAS
    threads is undefined behaviour) once and reused across search calls;
    each loads the shard NPZs it is handed lazily and keeps them cached.
    Tasks and results cross the process boundary by pickling, which is
    exactly the per-call query/top-k traffic — the shard data itself never
    moves after the initial load.

    A task that raises in a worker surfaces its original (pickled)
    exception here; a worker that dies hard (segfault, OOM-kill) breaks
    the pool, which is reported as a :class:`~repro.exceptions.ServingError`
    and the pool is closed so the next ``run`` cannot hit dead workers.
    """

    name = "process"

    def __init__(self, shard_paths: list, max_workers: int) -> None:
        for path in shard_paths:
            if not os.path.exists(path):
                raise ServingError(
                    f"process executor needs every shard on disk, but "
                    f"{path!r} does not exist")
        self._shard_paths = [os.fspath(path) for path in shard_paths]
        self._max_workers = max(1, int(max_workers))
        self._pool: ProcessPoolExecutor | None = None

    def run(self, tasks: list) -> list:
        """Serve every task; results come back in task order."""
        if not tasks:
            return []
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self._max_workers,
                mp_context=get_context("spawn"))
        futures = [self._pool.submit(_process_search,
                                     self._shard_paths[task.shard], task)
                   for task in tasks]
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            self.close()
            raise ServingError(
                "a shard worker process died; the process pool was shut "
                "down (the next search starts a fresh pool)") from exc

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
