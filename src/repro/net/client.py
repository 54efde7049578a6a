"""Client side of networked shard serving: pooled, retrying RPC stubs.

:class:`ShardClient` speaks the framed protocol of
:mod:`repro.net.framing` to one shard server.  Connections are pooled —
a small stack of idle sockets is kept per client and reused across RPCs,
so steady-state serving pays no TCP handshake per search — and every RPC
carries bounded-exponential-backoff retries over transient transport
failures (connect refused, reset, timeout, mid-frame close).  Retrying a
search is always safe: shard searches are pure seeded functions of the
request, so replaying one cannot change the answer.

Failure taxonomy, mapped onto the exception hierarchy:

* transient transport errors exhaust their retry budget →
  :class:`~repro.exceptions.ServingError` naming the endpoint;
* a typed error frame from the server → fail fast (no retry):
  :class:`~repro.exceptions.ServingError` carrying the original remote
  traceback, or the remote validation error replayed as a local
  :class:`~repro.exceptions.ValidationError`;
* a frame violating the protocol (bad magic/version/checksum) →
  :class:`~repro.exceptions.ProtocolError`, fail fast — a corrupt stream
  must not be resynchronised or blindly replayed.

:class:`EndpointPool` groups one client per shard and adds
health-check-driven maintenance: :meth:`EndpointPool.check_health` pings
every endpoint, evicts the pooled connections of unhealthy ones (so the
next RPC reconnects from scratch instead of inheriting a dead socket) and
reports per-endpoint status.
"""

from __future__ import annotations

import random
import socket
import threading
import time

from ..exceptions import ProtocolError, ServingError, ValidationError
from ..validation import check_positive_int
from .endpoints import Endpoint, parse_endpoint, parse_endpoints
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
    encode_frame,
    loads,
    read_frame,
)

__all__ = ["ShardClient", "EndpointPool"]

#: Default per-RPC transport timeouts and retry budget.  Connect is short
#: (a down endpoint should fail fast), read is generous (a large batch walk
#: takes real time), and two retries with exponential backoff ride out a
#: restarting server without masking a dead one.
DEFAULT_CONNECT_TIMEOUT = 5.0
DEFAULT_READ_TIMEOUT = 60.0
DEFAULT_RETRIES = 2
DEFAULT_BACKOFF = 0.05


def _raise_remote(endpoint: Endpoint, payload: bytes) -> None:
    """Re-raise a typed error frame as the matching local exception."""
    try:
        detail = loads(payload)
    except Exception:                         # pragma: no cover - defensive
        detail = {}
    error_type = detail.get("error_type", "Exception")
    message = detail.get("message", "unknown remote failure")
    remote_traceback = detail.get("traceback") or ""
    if error_type == "ProtocolError":
        raise ProtocolError(
            f"endpoint {endpoint} rejected the request: {message}")
    if error_type == "ValidationError":
        # The remote rejected the request's *arguments*; replay it as the
        # validation error the caller would have seen locally.
        raise ValidationError(
            f"endpoint {endpoint} rejected the request: {message}")
    raise ServingError(
        f"endpoint {endpoint} failed serving the request: "
        f"{error_type}: {message}\n--- remote traceback ---\n"
        f"{remote_traceback}")


class ShardClient:
    """RPC stub for one shard server, with pooling and retries.

    Thread-safe: concurrent RPCs each check a socket out of the idle pool
    (or dial a fresh one) and return it afterwards, so the client serves
    parallel fan-out traffic without locking around the wire exchange.
    """

    def __init__(self, endpoint, *,
                 connect_timeout: float = DEFAULT_CONNECT_TIMEOUT,
                 read_timeout: float = DEFAULT_READ_TIMEOUT,
                 retries: int = DEFAULT_RETRIES,
                 backoff_seconds: float = DEFAULT_BACKOFF,
                 max_idle: int = 2) -> None:
        self.endpoint = parse_endpoint(endpoint)
        self._connect_timeout = float(connect_timeout)
        self._read_timeout = float(read_timeout)
        if retries < 0:
            raise ValidationError(
                f"retries must be >= 0, got {retries!r}")
        self._retries = int(retries)
        self._backoff = float(backoff_seconds)
        self._max_idle = check_positive_int(max_idle, name="max_idle")
        self._idle: list[socket.socket] = []
        self._lock = threading.Lock()
        # Backoff jitter source.  Per-client and unseeded on purpose:
        # determinism governs *results*, not retry timing, and shared
        # timing is exactly the thundering-herd failure jitter prevents.
        self._rng = random.Random()
        #: Consecutive transport-level RPC failures (reset on success);
        #: the health surface EndpointPool reports and evicts on.
        self.consecutive_failures = 0

    # ------------------------------------------------------------------ #
    # Connection pool
    # ------------------------------------------------------------------ #
    def _dial(self) -> socket.socket:
        sock = socket.create_connection(self.endpoint.address,
                                        timeout=self._connect_timeout)
        sock.settimeout(self._read_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        except OSError:                        # pragma: no cover - platform
            pass
        return sock

    def _checkout(self) -> tuple[socket.socket, bool]:
        """An idle pooled socket (``reused=True``) or a fresh dial."""
        with self._lock:
            if self._idle:
                return self._idle.pop(), True
        return self._dial(), False

    def _checkin(self, sock: socket.socket) -> None:
        with self._lock:
            if len(self._idle) < self._max_idle:
                self._idle.append(sock)
                return
        sock.close()

    def evict(self) -> None:
        """Drop every pooled connection (the next RPC redials).

        The health-maintenance hook: after an endpoint misbehaves, its
        pooled sockets are not trustworthy — a later RPC must reconnect
        from scratch instead of inheriting a half-dead stream.
        """
        with self._lock:
            idle, self._idle = self._idle, []
        for sock in idle:
            sock.close()

    def close(self) -> None:
        """Alias of :meth:`evict`; the client itself is stateless."""
        self.evict()

    # ------------------------------------------------------------------ #
    # RPC core
    # ------------------------------------------------------------------ #
    def _sleep_backoff(self, attempt: int) -> None:
        """Jittered exponential backoff before retry ``attempt + 1``.

        The jitter factor (uniform in ``[0.5, 1.5)``) decorrelates clients
        that failed at the same instant — e.g. every fan-out worker when a
        shard server restarts — so they do not redial in lockstep and
        re-overload the recovering endpoint.
        """
        time.sleep(self._backoff * (2 ** (attempt - 1))
                   * (0.5 + self._rng.random()))

    def _call(self, request: bytes, expected_kind: int):
        """One RPC with pooled-connection reuse and bounded retries.

        A transient failure on a *reused* socket gets one free redial —
        the server may simply have dropped an idle connection — while
        failures on fresh connections consume the retry budget with
        jittered exponential backoff between attempts.  Protocol
        violations (bad magic/version/checksum, unexpected frame kind)
        are permanent, not transient: the peer is mis-speaking, and
        replaying the request would burn the whole retry budget against
        a failure retrying cannot fix — they fail fast instead.
        """
        attempts = self._retries + 1
        last_error: Exception | None = None
        attempt = 0
        while attempt < attempts:
            try:
                sock, reused = self._checkout()
            except OSError as exc:
                last_error = exc
                attempt += 1
                if attempt < attempts:
                    self._sleep_backoff(attempt)
                continue
            try:
                sock.sendall(request)
                kind, payload = read_frame(sock)
            except ProtocolError as exc:
                # A corrupt or mismatched frame: the stream is unusable
                # and the bytes cannot be trusted — fail fast, no retry.
                sock.close()
                self.consecutive_failures += 1
                raise ProtocolError(f"endpoint {self.endpoint}: {exc}") \
                    from exc
            except (OSError, ConnectionError) as exc:
                sock.close()
                last_error = exc
                if reused:
                    # A dropped idle connection is routine, not an
                    # endpoint failure: redial without burning a retry.
                    continue
                self.consecutive_failures += 1
                attempt += 1
                if attempt < attempts:
                    self._sleep_backoff(attempt)
                continue
            if kind == FRAME_ERROR:
                # The transport worked; the server reports a typed
                # failure.  Pool the socket again and fail fast.
                self._checkin(sock)
                self.consecutive_failures = 0
                _raise_remote(self.endpoint, payload)
            if kind != expected_kind:
                sock.close()
                self.consecutive_failures += 1
                raise ProtocolError(
                    f"endpoint {self.endpoint} answered with frame kind "
                    f"{kind}, expected {expected_kind}")
            self._checkin(sock)
            self.consecutive_failures = 0
            return loads(payload) if payload else None
        raise ServingError(
            f"endpoint {self.endpoint} is unreachable after {attempts} "
            f"attempt(s): {last_error}") from last_error

    # ------------------------------------------------------------------ #
    # RPC surface
    # ------------------------------------------------------------------ #
    def search(self, task):
        """Serve one :class:`~repro.index.executors.ShardSearchTask`
        remotely; returns the shard's
        :class:`~repro.search.SearchResult`."""
        return self._call(encode_frame(FRAME_SEARCH, task), FRAME_RESULT)

    def ping(self) -> float:
        """Round-trip a health-check frame; returns the latency in
        seconds."""
        started = time.perf_counter()
        self._call(encode_frame(FRAME_PING), FRAME_PONG)
        return time.perf_counter() - started

    def info(self) -> dict:
        """The server's self-description: shard id, manifest generation,
        corpus shape and serving counters."""
        return self._call(encode_frame(FRAME_INFO), FRAME_INFO_REPLY)

    def reload(self) -> dict:
        """Tell the server to re-read its shard from disk and serve the
        new generation; returns the post-reload server info."""
        return self._call(encode_frame(FRAME_RELOAD), FRAME_RELOAD_REPLY)


class EndpointPool:
    """One :class:`ShardClient` per shard, plus health maintenance.

    ``clients[s]`` serves shard ``s``; the ordering comes from the
    deployment manifest's endpoint list and must match the index's shard
    order — each daemon answers with its own shard's rows only.
    """

    def __init__(self, endpoints, **client_kwargs) -> None:
        self.endpoints = parse_endpoints(endpoints)
        self.clients = [ShardClient(endpoint, **client_kwargs)
                        for endpoint in self.endpoints]

    def __len__(self) -> int:
        return len(self.clients)

    def client(self, shard: int) -> ShardClient:
        """The client serving ``shard``."""
        return self.clients[shard]

    def check_health(self) -> dict:
        """Ping every endpoint; evict the connections of unhealthy ones.

        Returns ``{endpoint_string: latency_seconds | None}`` — ``None``
        marks an endpoint that failed its health check.  Its pooled
        connections are dropped so the next RPC reconnects from scratch
        (and the retry/backoff path governs whether that succeeds).
        """
        report = {}
        for client in self.clients:
            try:
                report[str(client.endpoint)] = client.ping()
            except ServingError:
                client.evict()
                report[str(client.endpoint)] = None
        return report

    def collect_info(self) -> list:
        """``info`` from every endpoint, in shard order.

        Returns one entry per endpoint: the daemon's info dict, or
        ``None`` for an endpoint that failed (its pooled connections are
        evicted, like :meth:`check_health`).  The rebalancer's staleness
        sweep: comparing each entry's ``shard_id``/``generation`` against
        the manifest tells which daemons lag the on-disk index without
        sending a single search frame.
        """
        report = []
        for client in self.clients:
            try:
                report.append(client.info())
            except ServingError:
                client.evict()
                report.append(None)
        return report

    def close(self) -> None:
        """Drop every pooled connection of every client (idempotent)."""
        for client in self.clients:
            client.close()
