"""Tests for the command-line interface."""

import os

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.index import Index


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_experiment_command_parses(self):
        args = build_parser().parse_args(["experiment", "fig2",
                                          "--preset", "small"])
        assert args.name == "fig2"
        assert args.preset == "small"

    def test_ablations_is_an_experiment(self):
        args = build_parser().parse_args(["experiment", "ablations"])
        assert args.name == "ablations"

    def test_experiment_aliases_are_gone(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1"])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "fig99"])

    def test_cluster_defaults(self):
        args = build_parser().parse_args(["cluster"])
        assert args.method == "GK-means"
        assert args.dataset == "sift1m"


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "GK-means" in out
        assert "sift1m" in out

    def test_table1(self, capsys):
        assert main(["experiment", "table1"]) == 0
        out = capsys.readouterr().out
        assert "sift1m" in out
        assert "1,000,000" in out
        assert "holds: table1.four_datasets" in out

    def test_cluster_small_run(self, capsys):
        code = main(["cluster", "--dataset", "sift1m", "--n-samples", "400",
                     "--n-features", "8", "--k", "10", "--max-iter", "3",
                     "--method", "BKM", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "BKM" in out
        assert "distortion" in out

    def test_fig2_tiny_run(self, capsys):
        code = main(["experiment", "fig2", "--preset", "small",
                     "--n-samples", "500"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recall" in out
        assert "distortion" in out


class TestIndexCommands:
    def test_build_parser_defaults(self):
        args = build_parser().parse_args(["build", "--out", "x.idx"])
        assert args.backend == "gkmeans"
        assert args.n_neighbors == 16

    def test_search_parser(self):
        args = build_parser().parse_args(["search", "x.idx", "--k", "5"])
        assert args.index == "x.idx"
        assert args.k == 5
        assert args.workers is None  # defaults to the index spec's setting

    def test_workers_parse(self):
        args = build_parser().parse_args(["build", "--out", "x.idx",
                                          "--workers", "4"])
        assert args.workers == 4
        args = build_parser().parse_args(["search", "x.idx",
                                          "--workers", "2"])
        assert args.workers == 2

    def test_build_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["build"])

    def test_build_search_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "cli.idx")
        code = main(["build", "--out", path, "--dataset", "sift1m",
                     "--n-samples", "500", "--n-features", "8",
                     "--backend", "nndescent", "--n-neighbors", "6",
                     "--seed", "1"])
        assert code == 0
        assert "build_seconds" in capsys.readouterr().out

        code = main(["search", path, "--n-queries", "20", "--k", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "recall@1" in out
        assert "distance_evals" in out

    def test_search_with_query_file(self, tmp_path, capsys):
        import numpy as np
        path = str(tmp_path / "cli.idx")
        main(["build", "--out", path, "--dataset", "sift1m",
              "--n-samples", "400", "--n-features", "8",
              "--backend", "random", "--n-neighbors", "5", "--seed", "1"])
        capsys.readouterr()
        queries = np.random.default_rng(0).normal(size=(12, 8))
        query_path = str(tmp_path / "queries.npy")
        np.save(query_path, queries)
        assert main(["search", path, "--queries", query_path,
                     "--k", "3"]) == 0
        assert "recall@3" in capsys.readouterr().out

    def test_parallel_search_round_trip(self, tmp_path, capsys):
        """``--workers`` builds a parallel-serving index and searches it.

        The worker count is a pure throughput knob, so the parallel search
        must report the same recall/eval numbers as the sequential one.
        """
        path = str(tmp_path / "parallel.idx")
        code = main(["build", "--out", path, "--dataset", "sift1m",
                     "--n-samples", "500", "--n-features", "8",
                     "--backend", "nndescent", "--n-neighbors", "6",
                     "--workers", "4", "--seed", "1"])
        assert code == 0
        capsys.readouterr()

        assert main(["search", path, "--n-queries", "40", "--k", "5",
                     "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert "workers" in parallel
        assert "qps" in parallel
        assert main(["search", path, "--n-queries", "40", "--k", "5",
                     "--workers", "1"]) == 0
        sequential = capsys.readouterr().out

        def fetch(text, column):
            lines = text.splitlines()
            header, row = lines[-3].split(), lines[-1].split()
            return row[header.index(column)]

        for column in ("recall@1", "recall@5", "distance_evals"):
            assert fetch(parallel, column) == fetch(sequential, column)
        # (--workers 2 is clamped to the CPU budget on a 1-core box)
        import os
        assert fetch(parallel, "workers") == str(min(2, os.cpu_count() or 1))
        assert fetch(sequential, "workers") == "1"

    def test_list_mentions_backends(self, capsys):
        assert main(["list"]) == 0
        assert "backends" in capsys.readouterr().out

    def test_shards_parse(self):
        args = build_parser().parse_args(["build", "--out", "x.shards",
                                          "--shards", "4",
                                          "--partitioner", "gkmeans"])
        assert args.shards == 4
        assert args.partitioner == "gkmeans"
        args = build_parser().parse_args(["search", "x.shards",
                                          "--shard-workers", "2",
                                          "--shard-probe", "1"])
        assert args.shard_workers == 2
        assert args.shard_probe == 1

    def test_sharded_build_search_round_trip(self, tmp_path, capsys):
        """``--shards`` builds a sharded directory and serves it back.

        Shard fan-out is a pure throughput knob, so the fanned-out search
        must report the same recall/eval numbers as the sequential one.
        """
        path = str(tmp_path / "cli.shards")
        code = main(["build", "--out", path, "--dataset", "sift1m",
                     "--n-samples", "600", "--n-features", "8",
                     "--backend", "nndescent", "--n-neighbors", "6",
                     "--shards", "3", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "shards" in out and "round_robin" in out
        import os
        assert os.path.isdir(path)

        assert main(["search", path, "--n-queries", "30", "--k", "5",
                     "--shard-workers", "2"]) == 0
        fanned = capsys.readouterr().out
        assert "n_shards=3" in fanned
        assert main(["search", path, "--n-queries", "30", "--k", "5",
                     "--shard-workers", "1"]) == 0
        sequential = capsys.readouterr().out

        def fetch(text, column):
            lines = text.splitlines()
            header, row = lines[-3].split(), lines[-1].split()
            return row[header.index(column)]

        for column in ("recall@1", "recall@5", "distance_evals"):
            assert fetch(fanned, column) == fetch(sequential, column)
        # (--shard-workers 2 is clamped to the CPU budget on a 1-core box)
        assert fetch(fanned, "shard_workers") == \
            str(min(2, os.cpu_count() or 1))

    def test_routed_search_round_trip(self, tmp_path, capsys):
        """``--shard-probe`` serves a gkmeans-partitioned index routed."""
        path = str(tmp_path / "routed.shards")
        assert main(["build", "--out", path, "--dataset", "sift1m",
                     "--n-samples", "600", "--n-features", "8",
                     "--backend", "nndescent", "--n-neighbors", "6",
                     "--shards", "3", "--partitioner", "gkmeans",
                     "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["search", path, "--n-queries", "30", "--k", "5",
                     "--shard-probe", "1", "--shard-workers", "2"]) == 0
        routed = capsys.readouterr().out
        assert "shard_probe" in routed

        def fetch(text, column):
            lines = text.splitlines()
            header, row = lines[-3].split(), lines[-1].split()
            return row[header.index(column)]

        assert fetch(routed, "shard_probe") == "1"
        # The full probe is the plain fan-out.
        assert main(["search", path, "--n-queries", "30", "--k", "5",
                     "--shard-probe", "3"]) == 0
        assert fetch(capsys.readouterr().out, "shard_probe") == "3"

    def test_serve_parser(self):
        args = build_parser().parse_args(["serve", "x.shards", "--shard",
                                          "1", "--host", "0.0.0.0",
                                          "--port", "9100",
                                          "--max-handlers", "4"])
        assert args.index == "x.shards"
        assert args.shard == 1
        assert args.host == "0.0.0.0"
        assert args.port == 9100
        assert args.max_handlers == 4
        args = build_parser().parse_args(["search", "x.shards",
                                          "--executor", "remote",
                                          "--endpoints", "a:1,b:2",
                                          "--dump", "out.npz"])
        assert args.executor == "remote"
        assert args.endpoints == "a:1,b:2"
        assert args.dump == "out.npz"

    def test_serve_missing_index_exits_cleanly(self, tmp_path, capsys):
        code = main(["serve", str(tmp_path / "nope.shards")])
        assert code == 2
        assert "cannot load shard" in capsys.readouterr().err

    def test_remote_search_round_trip(self, tmp_path, capsys):
        """serve two shards in-process, search --executor remote, and the
        --dump files match the thread executor bit-for-bit."""
        from repro.net import ShardServer

        path = str(tmp_path / "remote.shards")
        assert main(["build", "--out", path, "--dataset", "sift1m",
                     "--n-samples", "600", "--n-features", "8",
                     "--backend", "nndescent", "--n-neighbors", "6",
                     "--shards", "2", "--partitioner", "gkmeans",
                     "--seed", "1"]) == 0
        capsys.readouterr()
        sharded = Index.load(path)
        with sharded, \
                ShardServer(sharded.shards[0], shard_id=0) as first, \
                ShardServer(sharded.shards[1], shard_id=1) as second:
            first.start()
            second.start()
            endpoints = f"{first.endpoint},{second.endpoint}"
            remote_dump = str(tmp_path / "remote.npz")
            thread_dump = str(tmp_path / "thread.npz")
            assert main(["search", path, "--n-queries", "30", "--k", "5",
                         "--executor", "remote", "--endpoints", endpoints,
                         "--dump", remote_dump]) == 0
            assert "remote" in capsys.readouterr().out
            assert main(["search", path, "--n-queries", "30", "--k", "5",
                         "--executor", "thread",
                         "--dump", thread_dump]) == 0
            capsys.readouterr()
            remote = np.load(remote_dump)
            thread = np.load(thread_dump)
            assert np.array_equal(remote["indices"], thread["indices"])
            assert np.array_equal(remote["distances"],
                                  thread["distances"])

    def test_remote_search_dead_endpoints_exits_cleanly(self, tmp_path,
                                                        capsys):
        path = str(tmp_path / "dead.shards")
        assert main(["build", "--out", path, "--dataset", "sift1m",
                     "--n-samples", "400", "--n-features", "8",
                     "--backend", "bruteforce", "--n-neighbors", "6",
                     "--shards", "2", "--seed", "1"]) == 0
        capsys.readouterr()
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        code = main(["search", path, "--n-queries", "10", "--k", "5",
                     "--executor", "remote",
                     "--endpoints",
                     f"127.0.0.1:{port},127.0.0.1:{port}"])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot search index" in err and str(port) in err

    def test_build_replaces_either_layout(self, tmp_path, capsys):
        """``build --out`` over an existing index of the other layout
        replaces it, and ``search`` serves the new one."""
        path = str(tmp_path / "corpus")
        common = ["--dataset", "sift1m", "--n-samples", "300",
                  "--n-features", "8", "--backend", "bruteforce",
                  "--n-neighbors", "6", "--seed", "1"]
        for shards, is_layout in (("2", os.path.isdir), ("1", os.path.isfile),
                                  ("3", os.path.isdir)):
            assert main(["build", "--out", path, "--shards", shards,
                         *common]) == 0
            assert is_layout(path)
            assert main(["search", path, "--n-queries", "10",
                         "--k", "5"]) == 0
            assert f"n_shards={shards}" in capsys.readouterr().out

    def test_single_file_index_serves_remotely(self, tmp_path, capsys):
        """A single-file index is a one-shard index: behind one ``gkmeans
        serve`` daemon, ``--executor remote --endpoints`` serves it, the
        preflight passes, and the answers are the thread executor's."""
        from repro.net import ShardServer, load_shard_for_serving

        path = str(tmp_path / "mono.idx")
        assert main(["build", "--out", path, "--dataset", "sift1m",
                     "--n-samples", "200", "--n-features", "8",
                     "--backend", "bruteforce", "--n-neighbors", "6",
                     "--seed", "1"]) == 0
        capsys.readouterr()
        shard, shard_id, generation, n_shards = load_shard_for_serving(path)
        assert (shard_id, n_shards) == (0, 1)
        with shard, ShardServer(shard, shard_id=shard_id,
                                generation=generation) as server:
            server.start()
            remote_dump = str(tmp_path / "remote.npz")
            thread_dump = str(tmp_path / "thread.npz")
            assert main(["search", path, "--n-queries", "10", "--k", "5",
                         "--executor", "remote", "--endpoints",
                         server.endpoint, "--preflight",
                         "--dump", remote_dump]) == 0
            assert "remote" in capsys.readouterr().out
            assert main(["search", path, "--n-queries", "10", "--k", "5",
                         "--dump", thread_dump]) == 0
            capsys.readouterr()
        remote, thread = np.load(remote_dump), np.load(thread_dump)
        assert np.array_equal(remote["indices"], thread["indices"])
        assert np.array_equal(remote["distances"], thread["distances"])

    def test_shard_probe_on_round_robin_exits_cleanly(self, tmp_path,
                                                      capsys):
        """Routing a non-geometric index is a one-line error, exit 2."""
        path = str(tmp_path / "rr.shards")
        assert main(["build", "--out", path, "--dataset", "sift1m",
                     "--n-samples", "600", "--n-features", "8",
                     "--backend", "random", "--n-neighbors", "5",
                     "--shards", "3", "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["search", path, "--n-queries", "10", "--k", "3",
                     "--shard-probe", "1"]) == 2
        captured = capsys.readouterr()
        error = captured.err.strip()
        assert error.startswith("error:")
        assert "round_robin" in error
        assert "\n" not in error

    def test_shard_workers_ignored_for_single_file_index(self, tmp_path,
                                                         capsys):
        path = str(tmp_path / "mono.idx")
        main(["build", "--out", path, "--dataset", "sift1m",
              "--n-samples", "400", "--n-features", "8",
              "--backend", "random", "--n-neighbors", "5", "--seed", "1"])
        capsys.readouterr()
        assert main(["search", path, "--n-queries", "10", "--k", "3",
                     "--shard-workers", "4"]) == 0

    def test_search_missing_index_exits_cleanly(self, tmp_path, capsys):
        """A bad index path is a one-line error, not a traceback."""
        missing = str(tmp_path / "nope.idx")
        assert main(["search", missing, "--k", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = captured.err.strip()
        assert error.startswith("error:")
        assert "\n" not in error

    def test_search_corrupt_index_exits_cleanly(self, tmp_path, capsys):
        corrupt = tmp_path / "corrupt.idx"
        corrupt.write_bytes(b"this is not an index")
        assert main(["search", str(corrupt), "--k", "3"]) == 2
        error = capsys.readouterr().err.strip()
        assert error.startswith("error:")
        assert "\n" not in error

    @pytest.mark.parametrize("command,flag", [("search", "--queries"),
                                              ("insert", "--vectors")])
    @pytest.mark.parametrize("input_file", ["missing", "pickled"])
    def test_bad_vector_file_exits_cleanly(self, tmp_path, capsys, command,
                                           flag, input_file):
        """A missing or pickled ``.npy`` is a one-line error, exit 2."""
        path = str(tmp_path / "cli.idx")
        main(["build", "--out", path, "--dataset", "sift1m",
              "--n-samples", "300", "--n-features", "8",
              "--backend", "random", "--n-neighbors", "5", "--seed", "1"])
        capsys.readouterr()
        vectors = tmp_path / "vectors.npy"
        if input_file == "pickled":
            np.save(vectors, np.array([{"row": 1}], dtype=object),
                    allow_pickle=True)
        assert main([command, path, flag, str(vectors)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = captured.err.strip()
        assert error.startswith("error:") and "cannot read vectors" in error
        assert "\n" not in error

    def test_serve_truncated_manifest_exits_cleanly(self, tmp_path, capsys):
        path = tmp_path / "cut.shards"
        assert main(["build", "--out", str(path), "--dataset", "sift1m",
                     "--n-samples", "300", "--n-features", "8",
                     "--backend", "random", "--n-neighbors", "5",
                     "--shards", "2", "--seed", "1"]) == 0
        capsys.readouterr()
        manifest = path / "manifest.npz"
        manifest.write_bytes(manifest.read_bytes()[:100])
        assert main(["serve", str(path), "--shard", "0"]) == 2
        error = capsys.readouterr().err.strip()
        assert error.startswith("error:") and "\n" not in error

    def test_gkmeans_build_round_trip(self, tmp_path, capsys):
        path = str(tmp_path / "alg3.idx")
        code = main(["build", "--out", path, "--n-samples", "400",
                     "--n-features", "8", "--backend", "gkmeans",
                     "--n-neighbors", "5", "--tau", "2",
                     "--cluster-size", "30", "--seed", "1"])
        assert code == 0
        capsys.readouterr()
        assert main(["search", path, "--n-queries", "10", "--k", "3"]) == 0

    def test_build_rejects_wrong_backend_knob(self, tmp_path):
        from repro.exceptions import ValidationError
        with pytest.raises(ValidationError, match="params"):
            main(["build", "--out", str(tmp_path / "x.idx"),
                  "--n-samples", "300", "--n-features", "8",
                  "--backend", "nndescent", "--n-neighbors", "5",
                  "--tau", "4"])


class TestMutationCommands:
    """insert/delete/compact/reload subcommands, end to end."""

    def _build(self, tmp_path, name="mut.idx", extra=()):
        path = str(tmp_path / name)
        assert main(["build", "--out", path, "--dataset", "sift1m",
                     "--n-samples", "300", "--n-features", "8",
                     "--backend", "bruteforce", "--n-neighbors", "6",
                     "--seed", "1", *extra]) == 0
        return path

    def test_insert_delete_compact_round_trip(self, tmp_path, capsys):

        path = self._build(tmp_path)
        capsys.readouterr()
        assert main(["insert", path, "--n-new", "7", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "n_points" in out and "generation" in out
        assert main(["delete", path, "--ids", "0,5,299"]) == 0
        capsys.readouterr()
        index = Index.load(path)
        assert index.n_points == 300 + 7 - 3
        assert index.n_tombstones == 3
        assert index.generation == 2
        assert main(["compact", path]) == 0
        capsys.readouterr()
        index = Index.load(path)
        assert index.n_tombstones == 0
        assert index.generation == 3
        # The mutated index still serves searches through the CLI.
        assert main(["search", path, "--n-queries", "10", "--k", "3"]) == 0

    def test_insert_from_vector_file(self, tmp_path, capsys):

        path = self._build(tmp_path)
        vectors = np.random.default_rng(9).normal(size=(4, 8))
        vector_path = str(tmp_path / "new.npy")
        np.save(vector_path, vectors)
        assert main(["insert", path, "--vectors", vector_path]) == 0
        capsys.readouterr()
        index = Index.load(path)
        assert index.n_points == 304
        idx, _ = index.search(np.ascontiguousarray(vectors), 1)
        assert np.array_equal(np.sort(idx.ravel()),
                              np.arange(300, 304))

    def test_sharded_mutation_round_trip(self, tmp_path, capsys):

        path = self._build(tmp_path, name="mut.shards",
                           extra=("--shards", "2",
                                  "--partitioner", "gkmeans"))
        capsys.readouterr()
        assert main(["insert", path, "--n-new", "5", "--seed", "3"]) == 0
        assert main(["delete", path, "--ids", "1,2"]) == 0
        assert main(["compact", path]) == 0
        capsys.readouterr()
        sharded = Index.load(path)
        try:
            assert sharded.n_points == 303
            assert sharded.n_tombstones == 0
        finally:
            sharded.close()

    def test_delete_unknown_id_exits_cleanly(self, tmp_path, capsys):
        path = self._build(tmp_path)
        capsys.readouterr()
        assert main(["delete", path, "--ids", "99999"]) == 2
        error = capsys.readouterr().err.strip()
        assert error.startswith("error:")
        assert "\n" not in error

    def test_reload_command_round_trip(self, tmp_path, capsys):
        from repro.net import ShardServer, load_shard_for_serving

        path = self._build(tmp_path, name="serve.shards",
                           extra=("--shards", "2",
                                  "--partitioner", "gkmeans"))
        capsys.readouterr()
        servers = []
        try:
            for shard in range(2):
                index, shard_id, generation, _ = load_shard_for_serving(
                    path, shard)
                server = ShardServer(index, shard_id=shard_id,
                                     generation=generation,
                                     source_path=path)
                server.start()
                servers.append(server)
            endpoints = ",".join(server.endpoint for server in servers)
            assert main(["insert", path, "--n-new", "4", "--seed", "2"]) \
                == 0
            capsys.readouterr()
            assert main(["reload", "--endpoints", endpoints]) == 0
            out = capsys.readouterr().out
            assert "reloads" in out
            for server in servers:
                assert server.n_reloads == 1
            # The daemons now serve the inserted generation: a routed
            # remote search agrees with the local thread executor.
            remote_dump = str(tmp_path / "remote.npz")
            thread_dump = str(tmp_path / "thread.npz")
            assert main(["search", path, "--n-queries", "12", "--k", "4",
                         "--executor", "remote", "--endpoints", endpoints,
                         "--dump", remote_dump]) == 0
            assert main(["search", path, "--n-queries", "12", "--k", "4",
                         "--executor", "thread",
                         "--dump", thread_dump]) == 0
            capsys.readouterr()
            remote = np.load(remote_dump)
            thread = np.load(thread_dump)
            assert np.array_equal(remote["indices"], thread["indices"])
            assert np.array_equal(remote["distances"],
                                  thread["distances"])
        finally:
            for server in servers:
                server.close()

    def test_reload_dead_endpoint_exits_cleanly(self, capsys):
        import socket
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()
        assert main(["reload", "--endpoints", f"127.0.0.1:{port}"]) == 2
        error = capsys.readouterr().err.strip()
        assert error.startswith("error:")

    def test_dump_write_is_atomic(self, tmp_path, capsys, monkeypatch):
        """--dump lands via rename: a crash mid-write never leaves a
        truncated NPZ at the destination."""
        import os

        path = self._build(tmp_path)
        capsys.readouterr()
        dump = tmp_path / "out.npz"
        real_replace = os.replace
        monkeypatch.setattr(os, "replace",
                            lambda src, dst: (_ for _ in ()).throw(
                                OSError("disk gone")))
        with pytest.raises(OSError, match="disk gone"):
            main(["search", path, "--n-queries", "5", "--k", "3",
                  "--dump", str(dump)])
        capsys.readouterr()
        assert not dump.exists()          # nothing half-written
        leftovers = [p for p in tmp_path.iterdir()
                     if p.name.endswith(".npz.tmp")]
        assert leftovers == []            # temp file cleaned up
        monkeypatch.setattr(os, "replace", real_replace)
        assert main(["search", path, "--n-queries", "5", "--k", "3",
                     "--dump", str(dump)]) == 0
        capsys.readouterr()
        assert dump.exists()

    def test_dump_writes_the_scored_results_without_searching_again(
            self, tmp_path, capsys, monkeypatch):

        path = self._build(tmp_path)
        capsys.readouterr()
        calls = []
        search = Index.search

        def counted(self, *args, **kwargs):
            result = search(self, *args, **kwargs)
            calls.append(result)
            return result

        monkeypatch.setattr(Index, "search", counted)
        dump = tmp_path / "out.npz"
        assert main(["search", path, "--n-queries", "5", "--k", "3",
                     "--dump", str(dump)]) == 0
        capsys.readouterr()
        assert len(calls) == 1
        dumped = np.load(dump)
        assert np.array_equal(dumped["indices"], calls[0].indices)
        assert np.array_equal(dumped["distances"], calls[0].distances)


class TestRebalanceCommands:
    """rebalance subcommand and the search --preflight health check."""

    def _build_sharded(self, tmp_path, name="rebal.shards", shards="2"):
        path = str(tmp_path / name)
        assert main(["build", "--out", path, "--dataset", "sift1m",
                     "--n-samples", "300", "--n-features", "8",
                     "--backend", "bruteforce", "--n-neighbors", "6",
                     "--shards", shards, "--partitioner", "gkmeans",
                     "--seed", "1"]) == 0
        return path

    def test_rebalance_after_drift(self, tmp_path, capsys):

        path = self._build_sharded(tmp_path)
        assert main(["insert", path, "--n-new", "9", "--seed", "4"]) == 0
        assert main(["delete", path, "--ids", "3,5"]) == 0
        capsys.readouterr()
        assert main(["rebalance", path]) == 0
        out = capsys.readouterr().out
        assert "shard_sizes" in out and "generation" in out
        # A second pass finds nothing to do and says so.
        assert main(["rebalance", path]) == 0
        out = capsys.readouterr().out
        assert "balanced; nothing to do" in out
        sharded = Index.load(path)
        try:
            assert sharded.n_shards == 2       # the shard count is kept
            assert sharded.n_tombstones == 0
            assert sharded.n_points == 300 + 9 - 2
        finally:
            sharded.close()

    @pytest.mark.parametrize("flag", [["--max-shard-rows", "100"],
                                      ["--min-shard-rows", "10"],
                                      ["--no-refresh-centroids"]])
    def test_rebalance_has_no_policy_flags(self, tmp_path, capsys, flag):
        # argparse refuses the flag before the index is read.
        with pytest.raises(SystemExit) as exc:
            main(["rebalance", str(tmp_path / "any.shards"), *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_rebalance_reloads_stale_daemons(self, tmp_path, capsys):
        from repro.net import ShardServer, load_shard_for_serving

        path = self._build_sharded(tmp_path)
        capsys.readouterr()
        servers = []
        try:
            for shard in range(2):
                index, shard_id, generation, _ = load_shard_for_serving(
                    path, shard)
                server = ShardServer(index, shard_id=shard_id,
                                     generation=generation,
                                     source_path=path)
                server.start()
                servers.append(server)
            endpoints = ",".join(server.endpoint for server in servers)
            assert main(["insert", path, "--n-new", "6", "--seed", "2"]) \
                == 0
            capsys.readouterr()
            assert main(["rebalance", path,
                         "--endpoints", endpoints]) == 0
            out = capsys.readouterr().out
            assert "reloaded" in out
            assert sum(server.n_reloads for server in servers) >= 1
            # Post-reload, remote answers match the thread executor
            # bit-for-bit (the CI smoke flow asserts the same via --dump).
            remote_dump = str(tmp_path / "remote.npz")
            thread_dump = str(tmp_path / "thread.npz")
            assert main(["search", path, "--n-queries", "10", "--k", "4",
                         "--executor", "remote", "--endpoints", endpoints,
                         "--preflight", "--dump", remote_dump]) == 0
            assert main(["search", path, "--n-queries", "10", "--k", "4",
                         "--executor", "thread",
                         "--dump", thread_dump]) == 0
            capsys.readouterr()
            remote, thread = np.load(remote_dump), np.load(thread_dump)
            assert np.array_equal(remote["indices"], thread["indices"])
            assert np.array_equal(remote["distances"],
                                  thread["distances"])
        finally:
            for server in servers:
                server.close()

    def test_rebalance_single_file_index(self, tmp_path, capsys):
        """A single-file index is a one-shard index: a fresh build is
        balanced, and after deletes the pass rewrites the file."""
        path = str(tmp_path / "mono.idx")
        assert main(["build", "--out", path, "--dataset", "sift1m",
                     "--n-samples", "200", "--n-features", "8",
                     "--backend", "bruteforce", "--n-neighbors", "6",
                     "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["rebalance", path]) == 0
        assert "nothing to do" in capsys.readouterr().out
        assert main(["delete", path, "--ids", "4,5,6"]) == 0
        assert main(["rebalance", path]) == 0
        assert "[197] -> [197]" in capsys.readouterr().out
        with Index.load(path) as index:
            assert index.n_tombstones == 0 and index.n_points == 197

    def test_preflight_dead_daemon_blocks_queries(self, tmp_path, capsys):
        import socket

        from repro.net import ShardServer, load_shard_for_serving

        path = self._build_sharded(tmp_path)
        capsys.readouterr()
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        dead = "127.0.0.1:%d" % probe.getsockname()[1]
        probe.close()
        index, shard_id, generation, _ = load_shard_for_serving(path, 0)
        server = ShardServer(index, shard_id=shard_id,
                             generation=generation, source_path=path)
        try:
            server.start()
            endpoints = f"{server.endpoint},{dead}"
            assert main(["search", path, "--n-queries", "10", "--k", "4",
                         "--executor", "remote", "--endpoints", endpoints,
                         "--preflight"]) == 2
            captured = capsys.readouterr()
            assert "DEAD" in captured.out and dead in captured.out
            assert "no queries were sent" in captured.err
            # The live daemon really received no query.
            assert server.n_searches == 0
        finally:
            server.close()

    def test_preflight_on_mono_index_exits_cleanly(self, tmp_path,
                                                   capsys):
        path = str(tmp_path / "mono.idx")
        assert main(["build", "--out", path, "--dataset", "sift1m",
                     "--n-samples", "200", "--n-features", "8",
                     "--backend", "bruteforce", "--n-neighbors", "6",
                     "--seed", "1"]) == 0
        capsys.readouterr()
        assert main(["search", path, "--preflight"]) == 2
        assert "error:" in capsys.readouterr().err
