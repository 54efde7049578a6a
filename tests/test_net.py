"""The ``repro.net`` subsystem: framing, endpoints, client, server, faults.

The serving-path contract under test: a shard behind a TCP endpoint is
*exactly* a shard behind a thread — same task messages, same
``search_shard_index`` path, bit-for-bit identical answers (that half
lives in ``test_serving_determinism.py``) — and every way the network can
betray that contract fails loudly and boundedly:

* a frame that is corrupt, truncated, mis-versioned or foreign raises
  :class:`~repro.exceptions.ProtocolError` and the connection is dropped;
* a refused or dying endpoint exhausts its bounded retry budget and
  raises :class:`~repro.exceptions.ServingError` *naming the endpoint* —
  no hangs, no silent partial results;
* a server-side exception crosses back as a typed error frame carrying
  the original remote traceback.

All servers here run on ephemeral localhost ports.
"""

from __future__ import annotations

import os
import socket
import sys
import threading

import numpy as np
import pytest
from _legacy_formats import write_manifest_version

from repro.datasets import make_sift_like, train_query_split
from repro.exceptions import ProtocolError, ServingError, ValidationError
from repro.index import Index, IndexSpec, ShardSearchTask
from repro.index.sharded import migrate
from repro.net import (
    Endpoint,
    EndpointPool,
    ShardClient,
    ShardServer,
    load_shard_for_serving,
    parse_endpoint,
    parse_endpoints,
)
from repro.net.framing import (
    FRAME_PING,
    FRAME_PONG,
    FRAME_RESULT,
    FRAME_SEARCH,
    HEADER,
    MAX_PAYLOAD,
    PROTOCOL_VERSION,
    encode_frame,
    pack_frame,
    read_frame,
)

#: Fast-failing transport knobs so fault tests are bounded in wall time.
FAST = dict(connect_timeout=0.5, read_timeout=2.0, retries=1,
            backoff_seconds=0.01)


@pytest.fixture(scope="module")
def served_shard():
    """A small index's one shard plus a live server on an ephemeral
    port."""
    base = make_sift_like(300, 10, random_state=4)
    spec = IndexSpec(backend="bruteforce", n_neighbors=8, random_state=4)
    (index,) = Index.build(base, spec).shards
    with ShardServer(index, shard_id=0, generation=7) as server:
        server.start()
        yield index, server


def _free_port() -> int:
    """A port that was just free (nothing listens on it afterwards)."""
    probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    return port


class TestFraming:
    def _roundtrip(self, raw: bytes):
        """Feed raw bytes through a socket pair into ``read_frame``."""
        left, right = socket.socketpair()
        try:
            left.sendall(raw)
            left.shutdown(socket.SHUT_WR)
            return read_frame(right)
        finally:
            left.close()
            right.close()

    def test_frame_roundtrip(self):
        value = {"answer": np.arange(5), "k": 3}
        kind, payload = self._roundtrip(encode_frame(FRAME_RESULT, value))
        assert kind == FRAME_RESULT
        from repro.net.framing import loads
        decoded = loads(payload)
        assert decoded["k"] == 3
        assert np.array_equal(decoded["answer"], np.arange(5))

    def test_empty_payload_roundtrip(self):
        kind, payload = self._roundtrip(encode_frame(FRAME_PING))
        assert kind == FRAME_PING
        assert payload == b""

    def test_truncated_frame_is_connection_error(self):
        raw = encode_frame(FRAME_RESULT, {"big": list(range(100))})
        with pytest.raises(ConnectionError, match="mid-frame"):
            self._roundtrip(raw[:-7])

    def test_corrupted_payload_fails_checksum(self):
        raw = bytearray(encode_frame(FRAME_RESULT, {"x": 1}))
        raw[-1] ^= 0xFF  # flip one payload byte; header checksum disagrees
        with pytest.raises(ProtocolError, match="checksum mismatch"):
            self._roundtrip(bytes(raw))

    def test_version_mismatch_rejected(self):
        raw = encode_frame(FRAME_PING, version=PROTOCOL_VERSION + 1)
        with pytest.raises(ProtocolError, match="version mismatch"):
            self._roundtrip(raw)

    @pytest.mark.parametrize("version", [1, 2, 3, 4])
    def test_previous_protocol_version_rejected(self, version):
        """A version-1 peer still pickles ``ShardSearchTask`` with the
        ``single``/``strategy`` fields, a version-2 one with ``seed`` and
        answers in shard-local ids, a version-3 one answers with the
        retired ``ShardSearchResult``, a version-4 one pickles the task
        without ``bounds``; each must be refused at the frame header,
        before any payload is unpickled."""
        assert PROTOCOL_VERSION == 5
        raw = encode_frame(FRAME_PING, version=version)
        with pytest.raises(ProtocolError, match="version mismatch"):
            self._roundtrip(raw)

    def test_foreign_magic_rejected(self):
        raw = b"HTTP" + encode_frame(FRAME_PING)[4:]
        with pytest.raises(ProtocolError, match="magic"):
            self._roundtrip(raw)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ProtocolError, match="frame kind"):
            pack_frame(42)
        raw = HEADER.pack(b"RNET", PROTOCOL_VERSION, 42, 0, 0)
        with pytest.raises(ProtocolError, match="frame kind"):
            self._roundtrip(raw)

    def test_oversized_length_refused_before_allocation(self):
        raw = HEADER.pack(b"RNET", PROTOCOL_VERSION, FRAME_RESULT,
                          MAX_PAYLOAD + 1, 0)
        with pytest.raises(ProtocolError, match="refusing to allocate"):
            self._roundtrip(raw)


class TestEndpoints:
    def test_parse_endpoint_string(self):
        endpoint = parse_endpoint("localhost:8080")
        assert endpoint == Endpoint("localhost", 8080)
        assert str(endpoint) == "localhost:8080"
        assert endpoint.address == ("localhost", 8080)

    def test_parse_endpoint_passthrough(self):
        endpoint = Endpoint("10.0.0.1", 9000)
        assert parse_endpoint(endpoint) is endpoint

    def test_parse_endpoints_comma_list(self):
        parsed = parse_endpoints("a:1,b:2, c:3")
        assert parsed == (Endpoint("a", 1), Endpoint("b", 2),
                          Endpoint("c", 3))

    def test_parse_endpoints_iterable(self):
        parsed = parse_endpoints(["a:1", Endpoint("b", 2)])
        assert parsed == (Endpoint("a", 1), Endpoint("b", 2))

    @pytest.mark.parametrize("bad", ["nohost", "host:", "host:notaport",
                                     "host:0", "host:70000", ":9"])
    def test_invalid_endpoints_rejected(self, bad):
        with pytest.raises(ValidationError):
            parse_endpoint(bad)


class TestShardServerRPCs:
    def test_ping(self, served_shard):
        _, server = served_shard
        client = ShardClient(server.endpoint, **FAST)
        try:
            assert client.ping() >= 0.0
        finally:
            client.close()

    def test_info_reports_identity_and_stats(self, served_shard):
        index, server = served_shard
        client = ShardClient(server.endpoint, **FAST)
        try:
            client.ping()
            info = client.info()
        finally:
            client.close()
        assert info["shard_id"] == 0
        assert info["generation"] == 7
        assert info["protocol_version"] == PROTOCOL_VERSION
        assert info["n_points"] == index.n_points
        assert info["n_features"] == index.n_features
        assert info["metric"] == index.metric
        assert info["backend"] == "bruteforce"
        assert info["n_pings"] >= 1
        assert info["uptime_seconds"] > 0

    def test_counters_exact_under_concurrent_clients(self, served_shard):
        """Handler threads bump the counters concurrently; none is lost."""
        index, _ = served_shard
        n_clients, n_rounds = 8, 200
        query = make_sift_like(2, 10, random_state=9)
        task = ShardSearchTask(shard=0, queries=query, shard_k=3)
        failures = []

        def client_loop(server):
            client = ShardClient(server.endpoint, **FAST)
            try:
                for _ in range(n_rounds):
                    client.ping()
                    client.search(task)
            except BaseException as exc:    # surfaced on the main thread
                failures.append(exc)
            finally:
                client.close()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            with ShardServer(index, max_handlers=n_clients) as server:
                server.start()
                threads = [threading.Thread(target=client_loop,
                                            args=(server,))
                           for _ in range(n_clients)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                    assert not thread.is_alive()
                assert not failures, failures
                client = ShardClient(server.endpoint, **FAST)
                try:
                    info = client.info()
                finally:
                    client.close()
        finally:
            sys.setswitchinterval(interval)
        total = n_clients * n_rounds
        assert info["n_pings"] == total
        assert info["n_searches"] == total
        assert info["n_queries"] == total * query.shape[0]
        assert info["n_errors"] == 0

    def test_search_matches_local(self, served_shard):
        index, server = served_shard
        queries = make_sift_like(8, 10, random_state=9)
        task = ShardSearchTask(shard=0, queries=queries, shard_k=5)
        client = ShardClient(server.endpoint, **FAST)
        try:
            remote = client.search(task)
        finally:
            client.close()
        from repro.index.executors import search_shard_index
        local = search_shard_index(index, task)
        assert np.array_equal(remote.indices, local.indices)
        assert np.array_equal(remote.distances, local.distances)
        assert np.array_equal(remote.evaluations, local.evaluations)

    def test_remote_validation_error_replayed_locally(self, served_shard):
        _, server = served_shard
        bad = ShardSearchTask(shard=0, queries=np.zeros((2, 10)),
                              shard_k=0)  # k must be positive
        client = ShardClient(server.endpoint, **FAST)
        try:
            with pytest.raises(ValidationError, match=str(server.endpoint)):
                client.search(bad)
            # The error frame did not poison the connection: the same
            # client keeps serving.
            assert client.ping() >= 0.0
        finally:
            client.close()

    @pytest.mark.parametrize("bounds,match", [
        (np.zeros(3), "shape"),
        (np.array([0.5, np.nan]), "NaN"),
        (np.array([1, 2]), "floating"),
    ], ids=["wrong-shape", "nan", "int-dtype"])
    def test_malformed_bounds_draw_a_typed_error(self, served_shard, bounds,
                                                 match):
        """A task whose ``bounds`` are malformed is refused by the shard's
        own validation: the daemon answers with a typed error frame, the
        client raises ``ValidationError``, and the daemon keeps serving."""
        _, server = served_shard
        queries = make_sift_like(2, 10, random_state=9)
        bad = ShardSearchTask(shard=0, queries=queries, shard_k=3,
                              bounds=bounds)
        client = ShardClient(server.endpoint, **FAST)
        try:
            with pytest.raises(ValidationError, match=match):
                client.search(bad)
            good = ShardSearchTask(shard=0, queries=queries, shard_k=3,
                                   bounds=np.full(2, np.inf))
            assert client.search(good).indices.shape == (2, 3)
        finally:
            client.close()

    @pytest.mark.parametrize("queries,bounds,error,match", [
        (np.full((2, 10), np.nan), None, ValidationError, "NaN"),
        (np.zeros((2, 9)), None, ServingError, "GraphError.*dimension"),
        (np.full((2, 10), 1e300), None, ValidationError, "overflow"),
        (np.zeros((2, 10)), np.array([np.nan, 1.0]), ValidationError, "NaN"),
    ], ids=["nan-query", "wrong-dimension", "overflow-range", "nan-bounds"])
    def test_malformed_batch_draws_a_typed_error(self, served_shard, queries,
                                                 bounds, error, match):
        """The daemon checks a task's batch and bounds before the walk,
        since they arrive off the network: a bad one draws a typed error
        frame, and the daemon keeps serving."""
        _, server = served_shard
        bad = ShardSearchTask(shard=0, queries=queries, shard_k=3,
                              bounds=bounds)
        client = ShardClient(server.endpoint, **FAST)
        try:
            with pytest.raises(error, match=match):
                client.search(bad)
            good = ShardSearchTask(shard=0, queries=np.zeros((2, 10)),
                                   shard_k=3)
            assert (client.search(good).indices >= 0).all()
        finally:
            client.close()

    def test_remote_failure_carries_traceback(self, served_shard):
        _, server = served_shard
        client = ShardClient(server.endpoint, **FAST)
        try:
            # A garbage payload the dispatcher cannot even unpickle into a
            # task → generic typed error frame with the remote traceback.
            with pytest.raises(ServingError,
                               match="remote traceback") as excinfo:
                client._call(encode_frame(FRAME_SEARCH, "not a task"),
                             FRAME_RESULT)
            assert str(server.endpoint) in str(excinfo.value)
        finally:
            client.close()

    def test_version_mismatch_handshake_rejected(self, served_shard):
        """A mis-versioned request draws a typed error frame, then the
        server drops the out-of-sync connection."""
        _, server = served_shard
        with socket.create_connection((server.host, server.port),
                                      timeout=2.0) as sock:
            sock.sendall(encode_frame(FRAME_PING,
                                      version=PROTOCOL_VERSION + 1))
            kind, payload = read_frame(sock)
            from repro.net.framing import FRAME_ERROR, loads
            assert kind == FRAME_ERROR
            detail = loads(payload)
            assert detail["error_type"] == "ProtocolError"
            assert "version mismatch" in detail["message"]
            # ... and the connection is closed afterwards.
            assert sock.recv(1) == b""

    def test_close_is_idempotent(self):
        base = make_sift_like(60, 8, random_state=1)
        index = Index.build(base, IndexSpec(backend="bruteforce",
                                            n_neighbors=6, random_state=1))
        server = ShardServer(index.shards[0])
        server.start()
        server.close()
        server.close()


class TestClientFaults:
    def test_connection_refused_names_endpoint(self):
        endpoint = f"127.0.0.1:{_free_port()}"
        client = ShardClient(endpoint, **FAST)
        with pytest.raises(ServingError, match=endpoint) as excinfo:
            client.ping()
        assert "attempt(s)" in str(excinfo.value)

    def test_server_killed_mid_query_retries_then_fails(self):
        """The acceptance scenario: an endpoint that dies mid-RPC is
        retried within the bounded budget and then surfaces a
        ``ServingError`` naming it — no hang, no partial result."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(8)
        endpoint = "127.0.0.1:%d" % listener.getsockname()[1]
        accepted = []

        def _kill_mid_query():
            # Accept each attempt, read the request header (the query is
            # in flight), then close without answering — exactly a shard
            # server dying mid-search.
            while True:
                try:
                    conn, _ = listener.accept()
                except OSError:
                    return
                accepted.append(1)
                try:
                    conn.recv(HEADER.size)
                finally:
                    conn.close()

        killer = threading.Thread(target=_kill_mid_query, daemon=True)
        killer.start()
        client = ShardClient(endpoint, **FAST)
        task = ShardSearchTask(shard=0, queries=np.zeros((2, 4)),
                               shard_k=3)
        try:
            with pytest.raises(ServingError, match=endpoint):
                client.search(task)
            # retries=1 → exactly two dials, both killed.
            assert len(accepted) == FAST["retries"] + 1
        finally:
            listener.close()
            killer.join(timeout=2.0)
            client.close()

    def test_stale_pooled_socket_gets_free_redial(self, served_shard):
        """A pooled connection the server dropped is routine: the RPC
        redials and succeeds without burning its retry budget."""
        _, server = served_shard
        client = ShardClient(server.endpoint, **FAST)
        try:
            client.ping()                      # pools one live socket
            assert len(client._idle) == 1
            client._idle[0].close()            # server "dropped" the idle
            assert client.ping() >= 0.0        # reused-socket free redial
            assert client.consecutive_failures == 0
        finally:
            client.close()

    def test_mismatched_response_kind_fails_fast(self, served_shard):
        _, server = served_shard
        client = ShardClient(server.endpoint, **FAST)
        try:
            with pytest.raises(ProtocolError, match="frame kind"):
                client._call(encode_frame(FRAME_PING), FRAME_RESULT)
        finally:
            client.close()

    def test_negative_retries_rejected(self):
        with pytest.raises(ValidationError, match="retries"):
            ShardClient("h:1", retries=-1)

    def test_backoff_is_exponential_with_jitter(self, monkeypatch):
        """Each retry sleeps ``backoff * 2^(attempt-1)`` scaled by a
        uniform jitter in [0.5, 1.5) — never zero, never synchronized."""
        client = ShardClient("h:1", backoff_seconds=0.1)
        slept = []
        monkeypatch.setattr("repro.net.client.time.sleep", slept.append)
        try:
            for _ in range(200):
                client._sleep_backoff(1)
            client._sleep_backoff(2)
            client._sleep_backoff(3)
        finally:
            client.close()
        first = np.asarray(slept[:200])
        assert np.all(first >= 0.05) and np.all(first < 0.15)
        assert np.unique(first).size > 1          # actually jittered
        assert 0.1 <= slept[200] < 0.3            # 2x base window
        assert 0.2 <= slept[201] < 0.6            # 4x base window

    def test_reload_without_source_path_is_serving_error(self):
        base = make_sift_like(60, 8, random_state=1)
        index = Index.build(base, IndexSpec(backend="bruteforce",
                                            n_neighbors=6, random_state=1))
        server = ShardServer(index.shards[0])     # no source_path
        server.start()
        client = ShardClient(server.endpoint, **FAST)
        try:
            with pytest.raises(ServingError, match="source path"):
                client.reload()
        finally:
            client.close()
            server.close()


class TestConcurrentServing:
    def test_concurrent_searches_survive_reloads(self, tmp_path,
                                                 monkeypatch):
        """Six clients search one daemon at mixed ``workers`` while a
        seventh reloads it every 10 ms: searches run concurrently, none
        finds its walk pool shut down under it, and every reply is the
        serial answer."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        base = make_sift_like(300, 10, random_state=4)
        path = tmp_path / "served.idx"
        Index.build(base, IndexSpec(backend="bruteforce", n_neighbors=8,
                                    random_state=4)).save(path)
        queries = make_sift_like(40, 10, random_state=9)
        with Index.load(path) as reference:
            want = reference.search(queries, 5)
        index, _, generation, _ = load_shard_for_serving(path)
        failures, replies = [], []
        stop_reloading = threading.Event()

        def search_loop(workers):
            client = ShardClient(server.endpoint, **FAST)
            task = ShardSearchTask(shard=0, queries=queries, shard_k=5,
                                   workers=workers)
            try:
                for _ in range(40):
                    reply = client.search(task)
                    assert type(reply) is type(want)
                    for got, expected in zip(
                            (*reply, reply.evaluations),
                            (*want, want.evaluations)):
                        assert got.tobytes() == expected.tobytes()
                    replies.append(workers)
            except BaseException as exc:    # surfaced on the main thread
                failures.append(exc)
            finally:
                client.close()

        def reload_loop():
            client = ShardClient(server.endpoint, **FAST)
            try:
                while not stop_reloading.wait(0.01):
                    client.reload()
            except BaseException as exc:
                failures.append(exc)
            finally:
                client.close()

        with ShardServer(index, generation=generation, source_path=path,
                         max_handlers=8) as server:
            server.start()
            reloader = threading.Thread(target=reload_loop)
            reloader.start()
            threads = [threading.Thread(target=search_loop, args=(workers,))
                       for workers in (1, 2, 3, 4, 2, 3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
            stop_reloading.set()
            reloader.join(timeout=30)
            assert not reloader.is_alive()
            n_reloads = server.n_reloads
        assert not failures, failures
        assert len(replies) == 6 * 40
        assert n_reloads > 0


class TestEndpointPoolHealth:
    def test_check_health_reports_and_evicts(self, served_shard):
        _, server = served_shard
        dead = f"127.0.0.1:{_free_port()}"
        pool = EndpointPool([server.endpoint, dead], **FAST)
        try:
            pool.clients[1]._idle.append(socket.socket())  # fake pooled sock
            report = pool.check_health()
            assert report[server.endpoint] is not None
            assert report[server.endpoint] >= 0.0
            assert report[dead] is None
            # The dead endpoint's pooled connections were evicted.
            assert pool.clients[1]._idle == []
        finally:
            pool.close()


class TestRemoteExecutorFaults:
    """Remote fan-out failure semantics at the Index surface."""

    @pytest.fixture()
    def sharded(self):
        base = make_sift_like(300, 10, random_state=6)
        spec = IndexSpec(backend="bruteforce", n_neighbors=8, n_shards=2,
                         random_state=6)
        index = Index.build(base, spec)
        index.remote_options = FAST.copy()
        index.remote_options.pop("backoff_seconds")
        yield index
        index.close()

    def test_remote_without_endpoints_is_clear_error(self, sharded):
        queries = make_sift_like(4, 10, random_state=8)
        with pytest.raises(ServingError, match="endpoint per shard"):
            sharded.search(queries, 5, executor="remote")

    def test_endpoint_count_must_match_shards(self, sharded):
        with pytest.raises(ValidationError, match="one endpoint per shard"):
            sharded.endpoints = ["127.0.0.1:1024"]

    def test_killed_shard_server_surfaces_serving_error(self, sharded):
        """Kill one of two shard servers; the next remote search must
        fail with a ServingError naming the dead endpoint — never hang,
        never return a partial merge."""
        queries = make_sift_like(8, 10, random_state=8)
        servers = [ShardServer(sharded.shards[s], shard_id=s)
                   for s in range(2)]
        try:
            for server in servers:
                server.start()
            sharded.endpoints = [server.endpoint for server in servers]
            baseline, _ = sharded.search(queries, 5, executor="remote")
            dead = servers[1].endpoint
            servers[1].close()
            with pytest.raises(ServingError, match=dead):
                sharded.search(queries, 5, executor="remote")
            # The surviving local path still answers identically.
            after, _ = sharded.search(queries, 5)
            assert np.array_equal(after, baseline)
        finally:
            for server in servers:
                server.close()

    def test_restarted_server_resumes_serving(self, sharded):
        """An endpoint that comes back keeps the same deployment: the
        client's redial path reconnects transparently."""
        queries = make_sift_like(8, 10, random_state=8)
        with ShardServer(sharded.shards[0], shard_id=0) as first, \
                ShardServer(sharded.shards[1], shard_id=1) as second:
            first.start()
            second.start()
            sharded.endpoints = [first.endpoint, second.endpoint]
            baseline, _ = sharded.search(queries, 5, executor="remote")
            port = second.port
            second.close()
            with ShardServer(sharded.shards[1], shard_id=1,
                             port=port) as revived:
                revived.start()
                again, _ = sharded.search(queries, 5, executor="remote")
                assert np.array_equal(again, baseline)


class TestLoadShardForServing:
    def test_loads_one_member_of_a_sharded_directory(self, tmp_path):
        base = make_sift_like(200, 8, random_state=2)
        spec = IndexSpec(backend="bruteforce", n_neighbors=6, n_shards=2,
                         random_state=2)
        sharded = Index.build(base, spec)
        sharded.shards[1].generation = 3
        path = tmp_path / "deploy.shards"
        sharded.save(path)
        index, shard_id, generation, n_shards = load_shard_for_serving(
            path, shard=1)
        assert shard_id == 1 and generation == 3 and n_shards == 2
        assert index.n_points == sharded.shards[1].n_points
        with pytest.raises(ValidationError):
            load_shard_for_serving(path, shard=2)

    def test_shard_served_alone_answers_in_global_ids(self, tmp_path):
        """A shard file carries its rows' global ids, so a daemon serving
        it alone answers what the parent's merge returns for the queries
        routed to that shard only."""
        base, queries = train_query_split(make_sift_like(260, 8,
                                                         random_state=2),
                                          60, random_state=2)
        spec = IndexSpec(backend="bruteforce", n_neighbors=6, n_shards=2,
                         partitioner="gkmeans", random_state=2)
        with Index.build(base, spec) as sharded:
            sharded.save(tmp_path / "deploy.shards")
            routed = queries[sharded._route(queries, 1)[:, 0] == 1]
            expected, _ = sharded.search(routed, 5, shard_probe=1)
        index, shard_id, generation, _ = load_shard_for_serving(
            tmp_path / "deploy.shards", shard=1)
        assert routed.shape[0] > 0
        assert not np.array_equal(index.ids, np.arange(index.n_rows))
        with ShardServer(index, shard_id=shard_id,
                         generation=generation) as server:
            server.start()
            client = ShardClient(server.endpoint, **FAST)
            try:
                got = client.search(ShardSearchTask(shard=1, queries=routed,
                                                    shard_k=5))
            finally:
                client.close()
        assert np.array_equal(got.indices, expected)

    def test_pre_v4_manifest_migrates_to_global_generation(self,
                                                           tmp_path):
        """A manifest without per-shard generations (format <= 3) is
        refused; migrated, it serves its shards at the manifest's single
        global generation."""
        base = make_sift_like(200, 8, random_state=2)
        spec = IndexSpec(backend="bruteforce", n_neighbors=6, n_shards=2,
                         random_state=2)
        sharded = Index.build(base, spec)
        sharded.generation = 5
        path = tmp_path / "deploy.shards"
        sharded.save(path)
        write_manifest_version(path, 3)
        with pytest.raises(ValidationError, match="gkmeans migrate"):
            load_shard_for_serving(path, shard=1)
        assert migrate(path)
        _, _, generation, _ = load_shard_for_serving(path, shard=1)
        assert generation == 5

    def test_loads_single_file_index(self, tmp_path):
        base = make_sift_like(100, 8, random_state=2)
        built = Index.build(base, IndexSpec(backend="bruteforce",
                                            n_neighbors=6, random_state=2))
        path = tmp_path / "mono.idx"
        built.save(path)
        index, shard_id, generation, n_shards = load_shard_for_serving(path)
        assert (shard_id, generation, n_shards) == (0, 0, 1)
        assert index.n_points == 100
        with pytest.raises(ValidationError, match="single-file"):
            load_shard_for_serving(path, shard=1)

    def test_missing_path_is_clear_error(self, tmp_path):
        with pytest.raises(ValidationError, match="does not exist"):
            load_shard_for_serving(tmp_path / "nope.idx")
