"""Shard server daemon: one shard NPZ behind a framed TCP endpoint.

:class:`ShardServer` loads (or is handed) one shard of an
:class:`~repro.index.facade.Index` — ``index.shards[s]``, a member of a
sharded directory, or the one shard of a single-file index — binds a TCP
listener and answers the framed RPCs of :mod:`repro.net.framing` from a
handler thread pool:

* ``search``  — a pickled :class:`~repro.index.executors.ShardSearchTask`,
  served through exactly the same :func:`~repro.index.executors.\
search_shard_index` path the thread executor uses, so a remotely
  served shard walk is byte-identical to a local one;
* ``ping``    — transport liveness, empty round-trip;
* ``info``    — self-description: shard id, manifest generation, corpus
  shape, metric/dtype and serving counters.

Searches run concurrently, one per handler thread: each returns its own
:class:`~repro.search.SearchResult` and leaves nothing per-call on the
index.  A ``reload`` swaps the served index under searches in flight,
which finish on the index they started on.  Concurrency across shards
comes from one daemon per shard, inside a shard from concurrent clients
and the task's ``workers`` knob.  The serving counters are bumped under a
lock of their own, so concurrent clients never lose an increment.

A request that fails server-side is answered with a typed error frame
carrying the exception class, message and traceback — the client surfaces
the original remote failure instead of a bare "connection lost".  A frame
that violates the protocol (bad magic/version/checksum) gets a
best-effort error frame and the connection is dropped: an out-of-sync
stream cannot be resynchronised.
"""

from __future__ import annotations

import dataclasses
import os
import socket
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor

from ..exceptions import ProtocolError, ServingError, ValidationError
from ..validation import check_positive_int
from .framing import (
    FRAME_ERROR,
    FRAME_INFO,
    FRAME_INFO_REPLY,
    FRAME_PING,
    FRAME_PONG,
    FRAME_RELOAD,
    FRAME_RELOAD_REPLY,
    FRAME_RESULT,
    FRAME_SEARCH,
    PROTOCOL_VERSION,
    encode_frame,
    loads,
    read_frame,
)

__all__ = ["ShardServer", "load_shard_for_serving"]


def load_shard_for_serving(path, shard: int = 0):
    """Load one shard (plus its deployment metadata) for a server.

    ``path`` is either a sharded index directory — ``shard`` selects which
    member file to load, and the shard's generation counter is the
    manifest's ``shard_generations`` entry — or a single-file index, whose
    one shard is shard 0 and whose generation is the file's own.  Returns
    ``(shard index, shard_id, generation, n_shards)``.
    """
    # Runtime import: repro.index pulls in the executor seam, which
    # imports the net client — a module-level import here would cycle.
    from ..index._shard import _Shard
    from ..index.sharded import _shard_name, read_manifest

    path = os.fspath(path)
    if not os.path.exists(path):
        raise ValidationError(f"index path {path!r} does not exist")
    if os.path.isdir(path):
        manifest = read_manifest(path)
        n_shards = manifest.spec.n_shards
        shard = check_positive_int(shard + 1, name="shard + 1",
                                   maximum=n_shards) - 1
        index = _Shard.load(os.path.join(path, _shard_name(shard)))
        return index, shard, manifest.shard_generations[shard], n_shards
    if shard != 0:
        raise ValidationError(
            f"{path!r} is a single-file index; only --shard 0 exists")
    index = _Shard.load(path)
    return index, 0, index.generation, 1


class ShardServer:
    """Serve one shard's search RPCs over framed TCP.

    Parameters
    ----------
    index:
        The shard to serve: ``shards[s]`` of an
        :class:`~repro.index.facade.Index`.
    host, port:
        Bind address.  ``port=0`` picks an ephemeral port; the bound
        address is available as :attr:`host`/:attr:`port` after
        construction (the listener binds eagerly, so a client may connect
        as soon as ``start``/``serve_forever`` runs).
    shard_id, generation:
        Deployment identity reported by the ``info`` RPC: which shard of
        the directory this daemon serves, and the manifest generation it
        was loaded from.
    source_path:
        The on-disk index the daemon was loaded from (sharded directory or
        single-file index).  Enables the ``reload`` RPC: the daemon keeps
        answering from its in-memory state while mutations are saved over
        the path (the atomic directory rename never disturbs open state —
        copy-on-write from the daemon's perspective), and re-reads the
        path, adopting the new generation, when told to.  ``None``
        disables reload with a clear error.
    max_handlers:
        Handler thread-pool size — the number of client connections served
        concurrently, searches included.

    Use as a context manager, or pair :meth:`start` with :meth:`close`::

        with ShardServer(index, port=0) as server:
            server.start()
            ...  # connect to (server.host, server.port)
    """

    def __init__(self, index, *, host: str = "127.0.0.1", port: int = 0,
                 shard_id: int = 0, generation: int = 0,
                 source_path=None, max_handlers: int = 8) -> None:
        self._index = index
        self.shard_id = int(shard_id)
        self.generation = int(generation)
        self._source_path = (None if source_path is None
                             else os.fspath(source_path))
        self._max_handlers = check_positive_int(max_handlers,
                                                name="max_handlers")
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(128)
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()[:2]
        self._pool = ThreadPoolExecutor(max_workers=self._max_handlers)
        self._accept_thread: threading.Thread | None = None
        self._closed = threading.Event()
        self._counter_lock = threading.Lock()
        self._conn_lock = threading.Lock()
        self._connections: set = set()
        self._started = time.monotonic()
        #: Serving counters reported by the ``info`` RPC.
        self.n_searches = 0
        self.n_queries = 0
        self.n_pings = 0
        self.n_errors = 0
        self.n_reloads = 0

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def endpoint(self) -> str:
        """The bound address as a ``host:port`` string."""
        return f"{self.host}:{self.port}"

    def start(self) -> None:
        """Run the accept loop on a background thread (for embedding)."""
        if self._accept_thread is None and not self._closed.is_set():
            self._accept_thread = threading.Thread(
                target=self._accept_loop, name=f"shard-server-{self.port}",
                daemon=True)
            self._accept_thread.start()

    def serve_forever(self) -> None:
        """Run the accept loop on the calling thread until :meth:`close`."""
        self._accept_loop()

    def close(self) -> None:
        """Stop accepting, abort live connections, reap the handler pool.

        Idempotent.  In-flight handlers see their connection socket close
        underneath them and exit; a client mid-RPC observes a transport
        error and runs its retry path.
        """
        if self._closed.is_set():
            return
        self._closed.set()
        self._listener.close()
        with self._conn_lock:
            connections = list(self._connections)
        for conn in connections:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            conn.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
            self._accept_thread = None
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "ShardServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Accept / dispatch
    # ------------------------------------------------------------------ #
    def _accept_loop(self) -> None:
        while not self._closed.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed underneath us
            with self._conn_lock:
                if self._closed.is_set():
                    conn.close()
                    continue
                self._connections.add(conn)
            self._pool.submit(self._handle_connection, conn)

    def _handle_connection(self, conn: socket.socket) -> None:
        """Serve framed requests on one connection until it closes."""
        try:
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:                        # pragma: no cover - platform
            pass
        try:
            while not self._closed.is_set():
                try:
                    kind, payload = read_frame(conn)
                except (ConnectionError, OSError):
                    return  # client went away (or close() aborted us)
                except ProtocolError as exc:
                    # The stream is out of sync: answer (best-effort) with
                    # a typed error naming the violation, then drop it.
                    self._count(n_errors=1)
                    self._send_error(conn, exc)
                    return
                try:
                    response = self._dispatch(kind, payload)
                except (ConnectionError, OSError):
                    return
                except BaseException as exc:
                    self._count(n_errors=1)
                    if not self._send_error(conn, exc):
                        return
                    continue
                try:
                    conn.sendall(response)
                except OSError:
                    return
        finally:
            with self._conn_lock:
                self._connections.discard(conn)
            conn.close()

    def _send_error(self, conn: socket.socket, exc: BaseException) -> bool:
        """Send a typed error frame; returns False when the send failed."""
        detail = {
            "error_type": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(),
        }
        try:
            conn.sendall(encode_frame(FRAME_ERROR, detail))
            return True
        except OSError:
            return False

    def _dispatch(self, kind: int, payload: bytes) -> bytes:
        if kind == FRAME_SEARCH:
            from ..index.executors import search_shard_index
            task = loads(payload)
            index = self._index
            # The batch and its bounds come off the network: check them
            # here, once, as Index.search checks a caller's batch.
            queries, bounds = index.check_batch(task.queries, task.bounds)
            result = search_shard_index(index, dataclasses.replace(
                task, queries=queries, bounds=bounds))
            self._count(n_searches=1, n_queries=queries.shape[0])
            return encode_frame(FRAME_RESULT, result)
        if kind == FRAME_PING:
            self._count(n_pings=1)
            return encode_frame(FRAME_PONG)
        if kind == FRAME_INFO:
            return encode_frame(FRAME_INFO_REPLY, self._info())
        if kind == FRAME_RELOAD:
            return encode_frame(FRAME_RELOAD_REPLY, self._reload())
        raise ProtocolError(
            f"frame kind {kind} is not a request the shard server answers")

    def _reload(self) -> dict:
        """Swap in the current on-disk generation of the served shard.

        The swap is a pointer exchange: searches in flight finish on the
        old index they hold, and its walk pools are released with its last
        reference — never closed under a running walk.  Returns the
        post-reload :meth:`_info`.
        """
        if self._source_path is None:
            raise ServingError(
                "this server was not started from an on-disk index "
                "(no source path) — reload has nothing to re-read")
        index, _, generation, _ = load_shard_for_serving(
            self._source_path, self.shard_id)
        self._index, self.generation = index, generation
        self._count(n_reloads=1)
        return self._info()

    def _count(self, **increments: int) -> None:
        """Add ``increments`` to the named serving counters atomically."""
        with self._counter_lock:
            for name, amount in increments.items():
                setattr(self, name, getattr(self, name) + amount)

    def _info(self) -> dict:
        """Self-description served by the ``info`` RPC.

        ``shard_id``/``generation`` are the staleness signal the remote
        executor's handshake and the rebalancer's ``inspect`` compare
        against the manifest; ``n_points``/``n_rows``/``n_tombstones``
        give an operator the per-shard row counts without loading the
        shard locally.
        """
        with self._counter_lock:
            counters = {name: getattr(self, name) for name in (
                "n_searches", "n_queries", "n_pings", "n_errors",
                "n_reloads")}
        return {
            "shard_id": self.shard_id,
            "generation": self.generation,
            "protocol_version": PROTOCOL_VERSION,
            "n_points": self._index.n_points,
            "n_rows": self._index.n_rows,
            "n_tombstones": self._index.n_tombstones,
            "source_path": self._source_path,
            "n_features": self._index.n_features,
            "metric": self._index.metric,
            "dtype": self._index.spec.dtype,
            "backend": self._index.spec.backend,
            "uptime_seconds": time.monotonic() - self._started,
            **counters,
        }
