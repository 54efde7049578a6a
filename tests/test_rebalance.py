"""Shard rebalancing contract: rebalanced == a fresh build of the live rows.

``Index.rebalance()`` runs the live rows through the build's own
partition and shard builds, so after any insert/delete/compact drift its
searches must be bitwise those of ``Index.build`` over the same rows
(ids mapped back through the live ids): across metric × dtype, both
partitioners, every executor and hypothesis-generated drift, and still equal
to a rebuild-from-scratch exhaustive oracle up to bitwise distance ties.  A
second pass changes nothing; a pass that cannot run changes nothing either.
The maintenance cycle must be copy-on-write end to end — a crash between
shard writes and the manifest rename leaves the old generation servable —
retired manifests must be refused until ``migrate`` rewrites them, and the
:class:`~repro.index.rebalance.Rebalancer` driver must reload exactly the
daemons whose reported generation lags the manifest, without blocking
serving.
"""

import os

import numpy as np
import pytest
from _legacy_formats import write_manifest_version
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.datasets import make_sift_like, train_query_split
from repro.exceptions import ServingError, ValidationError
from repro.index import Index, IndexSpec, Rebalancer
from repro.index._shard import _Shard
from repro.index.sharded import MANIFEST_NAME, SHARDED_FORMAT_VERSION, migrate
from repro.search import evaluate_search

ENGINE_CONFIGS = [("sqeuclidean", "float64"), ("sqeuclidean", "float32"),
                  ("cosine", "float64"), ("cosine", "float32")]


def _exhaustive_spec(n_base, metric, dtype, **overrides):
    """A spec whose greedy walk provably returns the true top-k (see
    test_serving_determinism)."""
    return IndexSpec(backend="bruteforce", n_neighbors=12, n_starts=8,
                     pool_size=n_base, seed_sample=n_base, metric=metric,
                     dtype=dtype, random_state=5, **overrides)


def _assert_rows_match_up_to_ties(s_idx, s_dist, o_idx, o_dist, *,
                                  rtol, label):
    """Per-row id equality, permitting permutations of tied distances."""
    s_idx, o_idx = np.atleast_2d(s_idx), np.atleast_2d(o_idx)
    s_dist, o_dist = np.atleast_2d(s_dist), np.atleast_2d(o_dist)
    for row in range(s_idx.shape[0]):
        if np.array_equal(s_idx[row], o_idx[row]):
            continue
        np.testing.assert_allclose(
            s_dist[row], o_dist[row], rtol=rtol, atol=rtol,
            err_msg=f"{label} row {row}: rebalanced index diverged from "
                    "the rebuild oracle")
        differs = s_idx[row] != o_idx[row]
        tied = np.isclose(s_dist[row][differs], o_dist[row][differs],
                          rtol=rtol, atol=rtol)
        assert np.all(tied), \
            f"{label} row {row}: ids differ at non-tied distances"


def _rebuild_oracle(full_data, live_ids, metric, dtype):
    """A from-scratch exhaustive index over the live rows, searching in
    external-id terms: returns a ``search(queries, k)`` callable."""
    data = np.ascontiguousarray(full_data[live_ids])
    spec = _exhaustive_spec(data.shape[0], metric, dtype)
    oracle = Index.build(data, spec)

    def search(queries, k):
        idx, dist = oracle.search(queries, k)
        reached = idx >= 0
        return np.where(reached,
                        live_ids[np.where(reached, idx, 0)], -1), dist

    return search


def _assert_matches_fresh_build(sharded, queries, k=8):
    """``sharded`` answers bitwise as ``Index.build`` over its live
    rows does — routed at one probe and at full fan-out — with the fresh
    build's positional ids mapped back through the live ids."""
    rows, live_ids = sharded.evaluation_corpus
    with Index.build(rows, sharded.spec) as fresh:
        assert fresh.shard_sizes == sharded.shard_sizes
        probes = [None] if sharded.centroids is None else [1, None]
        for probe in probes:
            got = sharded.search(queries, k, shard_probe=probe)
            want = fresh.search(queries, k, shard_probe=probe)
            mapped = np.where(want.indices >= 0,
                              live_ids[np.maximum(want.indices, 0)], -1)
            assert got.indices.tobytes() == mapped.tobytes(), \
                f"probe={probe}: ids differ from the fresh build"
            assert got.distances.tobytes() == want.distances.tobytes(), \
                f"probe={probe}: distances differ from the fresh build"


def _state(sharded):
    """Everything a failed rebalance must leave as it was."""
    return (list(sharded.shards), sharded.ids.tobytes(),
            sharded.shard_generations, sharded.generation,
            None if sharded.centroids is None
            else sharded.centroids.tobytes(), sharded._next_id)


@pytest.fixture(scope="module")
def corpus():
    data = make_sift_like(300, 10, random_state=21)
    base, queries = train_query_split(data, 24, random_state=21)
    extra = make_sift_like(40, 10, random_state=22)[:13]
    return base, extra, queries


def _drifted(corpus, metric, dtype, **spec_overrides):
    """A 3-shard index after insert/delete drift, plus the oracle inputs."""
    base, extra, queries = corpus
    deleted = [11, 140, 285]
    spec_overrides.setdefault("partitioner", "gkmeans")
    spec = _exhaustive_spec(base.shape[0], metric, dtype, n_shards=3,
                            **spec_overrides)
    sharded = Index.build(base, spec)
    sharded.insert(extra)
    sharded.delete(deleted)
    full = np.vstack([base, extra])
    live_ids = np.setdiff1d(np.arange(full.shape[0]),
                            np.asarray(deleted))
    return sharded, full, live_ids, queries


def _starved(corpus):
    """A 3-shard index with one live row per shard — 3 live rows, fewer
    than the 2 per shard a partition needs.  Deletes refuse to get here,
    so the shards carry their tombstones from construction."""
    base, _, _ = corpus
    spec = _exhaustive_spec(base.shape[0], "sqeuclidean", "float64",
                            n_shards=3, partitioner="gkmeans")
    built = Index.build(base, spec)
    shards = []
    for index in built.shards:
        tombstones = np.ones(index.n_rows, dtype=bool)
        tombstones[0] = False
        shards.append(_Shard(index.data, index.graph, index.spec,
                             ids=index.ids, tombstones=tombstones,
                             seed_labels=index.seed_labels))
    return Index._from_shards(shards, spec, centroids=built.centroids,
                              generation=4)


class TestRebalanceOracle:
    """Rebalanced searches == a fresh build == the rebuild oracle."""

    @pytest.mark.parametrize("metric,dtype", ENGINE_CONFIGS)
    def test_drift_rebalance_matches_rebuild(self, corpus, metric, dtype,
                                             tmp_path):
        rtol = 1e-9 if dtype == "float64" else 1e-5
        sharded, full, live_ids, queries = _drifted(corpus, metric, dtype)
        spec = sharded.spec
        report = sharded.rebalance()
        assert report.changed
        assert sharded.n_shards == 3 and sharded.spec == spec
        assert sum(report.shard_sizes_after) == live_ids.size
        assert sharded.n_tombstones == 0
        _assert_matches_fresh_build(sharded, queries)

        oracle = _rebuild_oracle(full, live_ids, metric, dtype)
        o_idx, o_dist = oracle(queries, 10)
        s_idx, s_dist = sharded.search(queries, 10)
        label = f"rebalanced/{metric}/{dtype}"
        _assert_rows_match_up_to_ties(s_idx, s_dist, o_idx, o_dist,
                                      rtol=rtol, label=label)
        assert not np.any(np.isin(s_idx, [11, 140, 285]))

        # Ids are preserved exactly — rebalancing moves rows, not names.
        assert np.array_equal(sharded.ids, live_ids)

        # The save/load round-trip serves the rebalanced state verbatim.
        path = tmp_path / f"{metric}-{dtype}.shards"
        sharded.save(path)
        restored = Index.load(path)
        try:
            r_idx, r_dist = restored.search(queries, 10)
            assert r_idx.tobytes() == s_idx.tobytes()
            assert r_dist.tobytes() == s_dist.tobytes()
            assert restored.shard_generations == sharded.shard_generations
            assert restored.generation == sharded.generation
        finally:
            restored.close()
        sharded.close()

    def test_round_robin_rebalance_matches_fresh_build(self, corpus):
        # round_robin re-deals the live rows by rank; after compaction
        # and further deletes the shards are no longer a deal of anything.
        sharded, _, _, queries = _drifted(corpus, "sqeuclidean", "float32",
                                          partitioner="round_robin")
        try:
            sharded.compact()
            sharded.delete([0, 1, 2, 3, 4, 5])
            assert sharded.centroids is None
            assert sharded.rebalance().changed
            assert sharded.centroids is None
            sizes = sharded.shard_sizes
            assert max(sizes) - min(sizes) <= 1
            _assert_matches_fresh_build(sharded, queries)
        finally:
            sharded.close()

    def test_executors_bitwise_identical_after_rebalance(self, corpus):
        sharded, _, _, queries = _drifted(corpus, "sqeuclidean", "float64")
        sharded.rebalance()
        try:
            t_idx, t_dist = sharded.search(queries, 8, executor="thread",
                                           shard_workers=2)
            s_idx, s_dist = sharded.search(queries, 8, shard_workers=1)
            assert s_idx.tobytes() == t_idx.tobytes()
            assert s_dist.tobytes() == t_dist.tobytes()
        finally:
            sharded.close()

    def test_remote_bitwise_identical_after_rebalance(self, corpus):
        from repro.net import ShardServer

        sharded, _, _, queries = _drifted(corpus, "sqeuclidean", "float64")
        assert sharded.rebalance().changed
        # One daemon per shard serving the rebalanced generation.
        servers = [ShardServer(sharded.shards[shard], shard_id=shard,
                               generation=sharded.shards[shard].generation)
                   for shard in range(sharded.n_shards)]
        try:
            for server in servers:
                server.start()
            sharded.endpoints = [server.endpoint for server in servers]
            t_idx, t_dist = sharded.search(queries, 8, executor="thread")
            r_idx, r_dist = sharded.search(queries, 8, executor="remote",
                                           shard_workers=2)
            assert r_idx.tobytes() == t_idx.tobytes()
            assert r_dist.tobytes() == t_dist.tobytes()
        finally:
            sharded.close()
            for server in servers:
                server.close()


_DRIFT_BASE = make_sift_like(90, 6, random_state=31)
_DRIFT_EXTRA = make_sift_like(60, 6, random_state=32)
_DRIFT_QUERIES = make_sift_like(12, 6, random_state=33)

_DRIFT_OPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), st.integers(1, 12)),
    st.tuples(st.just("delete"), st.integers(1, 20),
              st.integers(0, 2 ** 16)),
    st.tuples(st.just("compact"))), max_size=6)


class TestGeneratedDrift:
    """Any insert/delete/compact history rebalances to a fresh build."""

    @settings(max_examples=30, deadline=None)
    @given(partitioner=st.sampled_from(["gkmeans", "round_robin"]),
           engine=st.sampled_from([("sqeuclidean", "float64"),
                                   ("cosine", "float32")]),
           ops=_DRIFT_OPS)
    def test_rebalance_after_generated_drift_is_a_fresh_build(
            self, partitioner, engine, ops):
        metric, dtype = engine
        # A narrow pool and one start keep the walk approximate, so its
        # answers depend on each shard's graph and seed partition.
        spec = IndexSpec(backend="bruteforce", n_neighbors=3, pool_size=4,
                         n_starts=1, n_shards=3, partitioner=partitioner,
                         metric=metric, dtype=dtype, random_state=3)
        with Index.build(_DRIFT_BASE, spec) as sharded:
            cursor = 0
            for op in ops:
                floor = sharded._next_id
                if op[0] == "insert":
                    sharded.insert(_DRIFT_EXTRA[cursor:cursor + op[1]])
                    cursor += op[1]
                elif op[0] == "delete":
                    live = sharded.evaluation_corpus[1]
                    doomed = np.random.default_rng(op[2]).choice(
                        live, size=min(op[1], live.size), replace=False)
                    try:
                        sharded.delete(doomed)
                    except ValidationError:
                        pass    # would starve a shard; refused atomically
                else:
                    sharded.compact()
                assert sharded._next_id >= floor

            rows, live_ids = sharded.evaluation_corpus
            next_id = sharded._next_id
            try:
                Index.build(rows, spec).close()
            except ValidationError:
                # The partition starves a shard: the pass must refuse the
                # same way and leave every piece of state where it was.
                before = _state(sharded)
                with pytest.raises(ValidationError):
                    sharded.rebalance()
                assert _state(sharded) == before
                return
            generations = sharded.shard_generations
            bump = int(sharded.rebalance().changed)
            assert np.array_equal(sharded.ids, live_ids)
            assert sharded._next_id == next_id
            assert sharded.shard_generations == tuple(
                old + bump for old in generations)
            _assert_matches_fresh_build(sharded, _DRIFT_QUERIES, k=4)

            generation = sharded.generation
            generations = sharded.shard_generations
            assert not sharded.rebalance().changed
            assert sharded.generation == generation
            assert sharded.shard_generations == generations


class TestRebalanceContract:
    """What a pass keeps, bumps and refuses."""

    def test_rebalance_never_loses_routed_recall(self):
        """Starve one shard of four by deletes and query with the deleted
        vectors (they still route to its build-time centroid): routed
        recall after the pass is at least the drifted value and exactly
        that of a fresh build of the live rows at the same shard count."""
        base = make_sift_like(4000, 24, random_state=7)
        spec = IndexSpec(backend="gkmeans", n_neighbors=20, pool_size=64,
                         n_shards=4, partitioner="gkmeans", random_state=7,
                         params={"tau": 6, "cluster_size": 50})
        with Index.build(base, spec) as sharded:
            victim_ids = sharded.shard_ids[0][sharded.shards[0].live_mask]
            deleted = victim_ids[20:]
            sharded.delete(deleted.tolist())
            rng = np.random.default_rng(7)
            queries = np.ascontiguousarray(
                base[rng.choice(deleted, size=256, replace=False)])
            n_live = sharded.n_points

            def routed_recall(index):
                return evaluate_search(index, queries, n_results=10,
                                       shard_probe=1).recall_at_k

            drifted = routed_recall(sharded)
            assert sharded.rebalance().changed
            assert sum(sharded.shard_sizes) == n_live
            rebalanced = routed_recall(sharded)
            assert rebalanced >= drifted, \
                f"rebalance lost routed recall: {drifted:.3f} -> " \
                f"{rebalanced:.3f}"
            rows, _ = sharded.evaluation_corpus
            with Index.build(rows, spec) as fresh:
                rebuilt = routed_recall(fresh)
            assert rebalanced == rebuilt, \
                f"rebalanced recall {rebalanced:.3f} != fresh build " \
                f"{rebuilt:.3f}"
            full = evaluate_search(sharded, queries, n_results=10)
            assert full.recall_at_k >= 0.95

    def test_keeps_ids_and_bumps_every_generation(self, corpus):
        sharded, _, live_ids, _ = _drifted(corpus, "sqeuclidean", "float64")
        try:
            endpoints = ["127.0.0.1:9001", "127.0.0.1:9002",
                         "127.0.0.1:9003"]
            sharded.endpoints = endpoints
            sharded.delete([live_ids[-1]])
            generations = sharded.shard_generations
            generation = sharded.generation
            next_id = sharded._next_id
            report = sharded.rebalance()
            assert report.changed
            assert report.generation == generation + 1
            assert sharded.generation == generation + 1
            assert sharded.shard_generations == tuple(
                old + 1 for old in generations)
            # The deleted top id is never handed out again.
            assert sharded._next_id == next_id
            assert sharded.insert(corpus[1][:1])[0] == next_id
            assert np.array_equal(sharded.ids[:-1], live_ids[:-1])
            # Same shard count, so the deployment stays attached.
            assert sharded.endpoints == tuple(endpoints)
        finally:
            sharded.close()

    def test_second_pass_is_noop_without_generation_bump(self, corpus):
        sharded, _, _, _ = _drifted(corpus, "sqeuclidean", "float64")
        try:
            first = sharded.rebalance()
            assert first.changed
            generation = sharded.generation
            generations = sharded.shard_generations
            shards = list(sharded.shards)
            second = sharded.rebalance()
            assert not second.changed
            assert second.shard_sizes_after == first.shard_sizes_after
            assert sharded.generation == generation
            assert second.generation == generation
            assert sharded.shard_generations == generations
            assert all(new is old for new, old in zip(sharded.shards,
                                                      shards))
        finally:
            sharded.close()

    def test_fresh_build_is_already_balanced(self, corpus):
        base, _, _ = corpus
        for partitioner in ("gkmeans", "round_robin"):
            spec = _exhaustive_spec(base.shape[0], "sqeuclidean", "float64",
                                    n_shards=3, partitioner=partitioner)
            with Index.build(base, spec) as sharded:
                report = sharded.rebalance()
                assert not report.changed
                assert sharded.generation == 0
                assert sharded.shard_generations == (0, 0, 0)

    def test_too_few_live_rows_raise_and_leave_index_untouched(self,
                                                               corpus):
        sharded = _starved(corpus)
        try:
            assert sharded.n_points == 3
            before = _state(sharded)
            with pytest.raises(ValidationError, match="at least 2"):
                sharded.rebalance()
            assert _state(sharded) == before
        finally:
            sharded.close()

    def test_too_few_live_rows_cli_exits_2(self, corpus, tmp_path, capsys):
        sharded = _starved(corpus)
        path = str(tmp_path / "starved.shards")
        sharded.save(path)
        sharded.close()
        manifest = open(os.path.join(path, MANIFEST_NAME), "rb").read()
        assert main(["rebalance", path]) == 2
        error = capsys.readouterr().err.strip()
        assert error.startswith("error:") and "at least 2" in error
        assert "\n" not in error
        assert open(os.path.join(path, MANIFEST_NAME), "rb").read() \
            == manifest

    def test_one_shard_rebalance_equals_a_fresh_build(self, corpus):
        """One shard is the S = 1 case of the same pass: after drift its
        searches are bitwise a fresh build's over the live rows, and a
        second pass changes nothing."""
        base, extra, queries = corpus
        index = Index.build(base, _exhaustive_spec(base.shape[0],
                                                   "sqeuclidean",
                                                   "float64"))
        assert not index.rebalance().changed
        index.insert(extra, ids=np.arange(1000, 1000 + extra.shape[0])[::-1])
        index.delete([11, 140, 275])
        report = index.rebalance()
        assert report.changed and index.n_tombstones == 0
        assert report.shard_sizes_after == (base.shape[0] + extra.shape[0]
                                            - 3,)
        assert index.generation == index.shard_generations[0] == 3
        _assert_matches_fresh_build(index, queries)
        assert not index.rebalance().changed


class TestManifestCompat:
    """Retired manifests rebalance once migrated."""

    def _saved(self, corpus, tmp_path, name):
        base, extra, _ = corpus
        spec = _exhaustive_spec(base.shape[0], "sqeuclidean", "float64",
                                n_shards=3, partitioner="gkmeans")
        sharded = Index.build(base, spec)
        sharded.insert(extra)
        path = tmp_path / name
        sharded.save(path)
        sharded.close()
        return path

    @pytest.mark.parametrize("version", [2, 3])
    def test_pre_v4_manifest_rebalances_after_migrate(self, corpus,
                                                      tmp_path, version):
        path = self._saved(corpus, tmp_path, f"v{version}.shards")
        write_manifest_version(path, version)
        rebalancer = Rebalancer(path)
        with pytest.raises(ValidationError, match="gkmeans migrate"):
            rebalancer.run()
        assert migrate(path)
        report, reloads = rebalancer.run()
        assert report.changed
        assert reloads == []
        with np.load(os.path.join(path, MANIFEST_NAME),
                     allow_pickle=False) as archive:
            assert int(archive["sharded_format_version"]) \
                == SHARDED_FORMAT_VERSION
            assert "shard_generations" in archive.files
        restored = Index.load(path)
        try:
            assert restored.n_shards == 3
            _assert_matches_fresh_build(restored, corpus[2])
        finally:
            restored.close()

    def test_index_without_centroids_gets_them_back(self, corpus,
                                                    tmp_path):
        path = self._saved(corpus, tmp_path, "v1.shards")
        write_manifest_version(path, 1)
        assert migrate(path)
        restored = Index.load(path)    # loads and serves
        try:
            assert restored.centroids is None
            assert restored.rebalance().changed
            assert restored.centroids is not None
            _assert_matches_fresh_build(restored, corpus[2])
        finally:
            restored.close()

    def test_crash_before_rename_leaves_old_generation_servable(
            self, corpus, tmp_path, monkeypatch):
        base, extra, queries = corpus
        path = self._saved(corpus, tmp_path, "crash.shards")
        original = Index.load(path)
        baseline_idx, baseline_dist = original.search(queries, 8)
        manifest_before = open(os.path.join(path, MANIFEST_NAME),
                               "rb").read()
        original.close()

        victim = Index.load(path)
        victim.delete([0, 1, 2])
        report = victim.rebalance()
        assert report.changed
        # Crash after the new shard NPZs are written into the temp
        # directory but before the rename publishes them.
        real_rename = os.rename

        def exploding_rename(src, dst):
            raise OSError("simulated crash at publish time")

        monkeypatch.setattr(os, "rename", exploding_rename)
        with pytest.raises(OSError, match="simulated crash"):
            victim.save(path)
        monkeypatch.setattr(os, "rename", real_rename)
        victim.close()

        # The published directory is byte-identical to the old generation
        # and serves exactly the pre-crash answers.
        assert open(os.path.join(path, MANIFEST_NAME), "rb").read() \
            == manifest_before
        survivor = Index.load(path)
        try:
            s_idx, s_dist = survivor.search(queries, 8)
            assert s_idx.tobytes() == baseline_idx.tobytes()
            assert s_dist.tobytes() == baseline_dist.tobytes()
        finally:
            survivor.close()


class TestRebalancerDriver:
    """The background driver: inspect staleness, rebalance, reload."""

    @pytest.fixture()
    def deployment(self, corpus, tmp_path):
        from repro.net import ShardServer, load_shard_for_serving

        base, extra, queries = corpus
        spec = _exhaustive_spec(base.shape[0], "sqeuclidean", "float64",
                                n_shards=2, partitioner="gkmeans")
        sharded = Index.build(base, spec)
        path = tmp_path / "deployed.shards"
        sharded.save(path)
        servers = []
        for shard in range(sharded.n_shards):
            index, shard_id, generation, _ = load_shard_for_serving(
                path, shard)
            servers.append(ShardServer(index, shard_id=shard_id,
                                       generation=generation,
                                       source_path=path))
            servers[-1].start()
        endpoints = [server.endpoint for server in servers]
        yield sharded, servers, endpoints, path, extra, queries
        sharded.close()
        for server in servers:
            server.close()

    def test_run_reloads_only_stale_daemons(self, deployment):
        sharded, servers, endpoints, path, extra, queries = deployment
        # Drift: route-targeted inserts bump only the generations of the
        # shards that received rows, so only their daemons go stale.
        before_generations = sharded.shard_generations
        sharded.insert(extra)
        sharded.save(path)
        stale_shards = [
            shard for shard in range(sharded.n_shards)
            if sharded.shards[shard].generation > before_generations[shard]]
        assert stale_shards, "drift placed no rows -- fixture broken"

        rebalancer = Rebalancer(path, endpoints=endpoints)
        before = rebalancer.inspect()
        assert [row["shard"] for row in before if row["stale"]] \
            == stale_shards

        # The pass rebuilds every shard, so every daemon lags the new
        # manifest and is reloaded once.
        report, reloads = rebalancer.run()
        assert report.changed
        assert [row["status"] for row in reloads] == ["reloaded"] * 2
        assert all(server.n_reloads == 1 for server in servers)

        # A second pass is a no-op: every daemon is fresh, none reloads.
        report, reloads = rebalancer.run()
        assert not report.changed
        assert [row["status"] for row in reloads] == ["fresh"] * 2
        assert all(server.n_reloads == 1 for server in servers)

        # Post-reload the full remote path answers bit-for-bit again —
        # rebalance() on our in-memory copy replays the same pass.
        assert sharded.rebalance().changed
        sharded.endpoints = endpoints
        t_idx, t_dist = sharded.search(queries, 8, executor="thread")
        r_idx, r_dist = sharded.search(queries, 8, executor="remote")
        assert r_idx.tobytes() == t_idx.tobytes()
        assert r_dist.tobytes() == t_dist.tobytes()
        after = rebalancer.inspect()
        assert not any(row["stale"] for row in after)

    def test_dead_endpoint_is_reported_not_raised(self, deployment):
        sharded, servers, endpoints, path, extra, queries = deployment
        dead = list(endpoints)
        dead[1] = "127.0.0.1:1"
        rows = Rebalancer(path, endpoints=dead,
                          client_options={"retries": 0}).inspect()
        assert rows[0]["error"] is None
        assert rows[1]["error"] is not None and "unreachable" \
            in rows[1]["error"]

    def test_single_file_index_rebalances_in_place(self, corpus, tmp_path):
        """A single-file index rebalances like a directory, stays one file,
        and its one daemon is reloaded onto the new generation."""
        from repro.net import ShardServer, load_shard_for_serving

        base, _, queries = corpus
        index = Index.build(base, _exhaustive_spec(base.shape[0],
                                                   "sqeuclidean",
                                                   "float64"))
        index.delete([3, 57])
        path = tmp_path / "mono.idx"
        index.save(path)
        shard, _, generation, _ = load_shard_for_serving(path)
        with ShardServer(shard, generation=generation,
                         source_path=path) as server:
            server.start()
            rebalancer = Rebalancer(path, endpoints=[server.endpoint])
            assert [row["stale"] for row in rebalancer.inspect()] == [False]
            report, reloads = rebalancer.run()
            assert report.changed
            assert [row["status"] for row in reloads] == ["reloaded"]
            assert server.generation == generation + 1
        assert path.is_file()
        with Index.load(path) as loaded:
            assert loaded.n_tombstones == 0
            _assert_matches_fresh_build(loaded, queries)


class TestPreflight:
    """check_endpoints() reports a dead daemon before any query is sent."""

    def test_dead_daemon_reported_before_any_query(self, corpus):
        from repro.net import ShardServer

        base, _, queries = corpus
        spec = _exhaustive_spec(base.shape[0], "sqeuclidean", "float64",
                                n_shards=2, partitioner="gkmeans")
        sharded = Index.build(base, spec)
        server = ShardServer(sharded.shards[0], shard_id=0,
                             generation=sharded.shards[0].generation)
        try:
            server.start()
            sharded.endpoints = [server.endpoint, "127.0.0.1:1"]
            health = sharded.check_endpoints()
            assert health[server.endpoint] is not None
            assert health["127.0.0.1:1"] is None
            # The health sweep pings; it never runs a search.
            assert server.n_searches == 0
        finally:
            sharded.close()
            server.close()

    def test_check_endpoints_requires_deployment(self, corpus):
        base, _, _ = corpus
        spec = _exhaustive_spec(base.shape[0], "sqeuclidean", "float64",
                                n_shards=2, partitioner="gkmeans")
        sharded = Index.build(base, spec)
        try:
            with pytest.raises(ServingError, match="endpoint"):
                sharded.check_endpoints()
        finally:
            sharded.close()
