"""Shard rebalancing contract: drifted-then-rebalanced == rebuilt.

Splits, merges and centroid refreshes reorganise *where* rows live, never
*what* the index answers: after insert/delete drift followed by a
``rebalance()`` pass that forces splits and merges, searches must equal a
rebuild-from-scratch exhaustive oracle over the same live rows up to
bitwise distance ties, across metric × dtype and every executor.  The
maintenance cycle must be copy-on-write end to end — a crash between
shard writes and the manifest rename leaves the old generation servable —
pre-v4 manifests must be refused until ``migrate`` rewrites them, and the
:class:`~repro.index.rebalance.Rebalancer` driver must reload exactly the
daemons whose reported generation lags the manifest, without blocking
serving.
"""

import os

import numpy as np
import pytest
from _legacy_formats import write_manifest_version

from repro.datasets import make_sift_like, train_query_split
from repro.exceptions import ServingError, ValidationError
from repro.index import (Index, IndexSpec, RebalancePolicy, Rebalancer,
                         ShardedIndex)
from repro.index.sharded import migrate
from repro.index.rebalance import _centroid_of, _coarse_engine
from repro.index.sharded import MANIFEST_NAME, SHARDED_FORMAT_VERSION
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
    spec = _exhaustive_spec(base.shape[0], metric, dtype, n_shards=3,
                            partitioner="gkmeans", **spec_overrides)
    sharded = ShardedIndex.build(base, spec)
    sharded.insert(extra)
    sharded.delete(deleted)
    full = np.vstack([base, extra])
    live_ids = np.setdiff1d(np.arange(full.shape[0]),
                            np.asarray(deleted))
    return sharded, full, live_ids, queries


def _forcing_policy(sharded):
    """A policy guaranteed to split the largest and merge the smallest
    shard of ``sharded`` in one pass."""
    sizes = sorted(sharded.shard_sizes)
    return RebalancePolicy(max_shard_rows=max(sizes[-1] - 20, sizes[0] + 2),
                           min_shard_rows=sizes[0] + 1)


class TestRebalanceOracle:
    """Rebalanced searches == rebuild oracle, metric × dtype × executor."""

    @pytest.mark.parametrize("metric,dtype", ENGINE_CONFIGS)
    def test_drift_rebalance_matches_rebuild(self, corpus, metric, dtype,
                                             tmp_path):
        rtol = 1e-9 if dtype == "float64" else 1e-5
        sharded, full, live_ids, queries = _drifted(corpus, metric, dtype)
        report = sharded.rebalance(_forcing_policy(sharded))
        assert report.changed and report.topology_changed
        assert report.n_splits >= 1 and report.n_merges >= 1
        assert report.n_shards_after == sharded.n_shards
        assert sharded.spec.n_shards == sharded.n_shards
        assert sum(report.shard_sizes_after) == live_ids.size

        oracle = _rebuild_oracle(full, live_ids, metric, dtype)
        o_idx, o_dist = oracle(queries, 10)
        s_idx, s_dist = sharded.search(queries, 10)
        label = f"rebalanced/{metric}/{dtype}"
        _assert_rows_match_up_to_ties(s_idx, s_dist, o_idx, o_dist,
                                      rtol=rtol, label=label)
        assert not np.any(np.isin(s_idx, [11, 140, 285]))

        # Ids are preserved exactly — rebalancing moves rows, not names.
        assert np.array_equal(np.sort(np.concatenate(sharded.shard_ids)),
                              live_ids)

        # The save/load round-trip serves the rebalanced state verbatim.
        path = tmp_path / f"{metric}-{dtype}.shards"
        sharded.save(path)
        restored = ShardedIndex.load(path)
        try:
            r_idx, r_dist = restored.search(queries, 10)
            assert r_idx.tobytes() == s_idx.tobytes()
            assert r_dist.tobytes() == s_dist.tobytes()
            assert restored.shard_generations == sharded.shard_generations
            assert restored.generation == sharded.generation
        finally:
            restored.close()
        sharded.close()

    def test_executors_bitwise_identical_after_rebalance(self, corpus):
        sharded, _, _, queries = _drifted(corpus, "sqeuclidean", "float64")
        sharded.rebalance(_forcing_policy(sharded))
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
        report = sharded.rebalance(_forcing_policy(sharded))
        assert report.topology_changed
        # The new topology must be re-served: one daemon per new shard.
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


class TestRebalancePrimitives:
    """Split/merge/refresh mechanics and policy validation."""

    def test_split_partitions_ids_and_bumps_generations(self, corpus):
        sharded, _, _, _ = _drifted(corpus, "sqeuclidean", "float64")
        sizes = sharded.shard_sizes
        biggest = int(np.argmax(sizes))
        parent_generation = sharded.shards[biggest].generation
        parent_ids = set(sharded.shard_ids[biggest][
            sharded.shards[biggest].live_mask].tolist())
        try:
            report = sharded.rebalance(max_shard_rows=max(sizes) - 1,
                                       min_shard_rows=None)
            assert report.n_splits == 1 and report.n_merges == 0
            first = next(a for a in report.actions if a.kind == "split")
            left, right = first.shards
            assert right == left + 1
            child_ids = set(sharded.shard_ids[left].tolist()) \
                | set(sharded.shard_ids[right].tolist())
            assert child_ids == parent_ids
            assert sharded.shards[left].generation \
                == parent_generation + 1
            assert sharded.shards[right].generation \
                == parent_generation + 1
            assert sharded.n_shards == report.n_shards_after
        finally:
            sharded.close()

    def test_merge_folds_into_nearest_centroid_sibling(self, corpus):
        sharded, _, _, _ = _drifted(corpus, "sqeuclidean", "float64")
        try:
            # Starve shard 0 down to a handful of live rows.
            victim_ids = sharded.shard_ids[0][
                sharded.shards[0].live_mask][:-3]
            sharded.delete(victim_ids.tolist())
            centroids = np.array(sharded.centroids, copy=True)
            engine = _coarse_engine(sharded.metric, sharded.spec.dtype)
            scores = engine.clustering_engine().cross(
                centroids[0][None, :], centroids)[0]
            scores[0] = np.inf
            expected_sibling = int(np.argmin(scores))
            before = sharded.n_shards
            starving_ids = set(sharded.shard_ids[0][
                sharded.shards[0].live_mask].tolist())

            report = sharded.rebalance(
                RebalancePolicy(min_shard_rows=10,
                                refresh_centroids=False))
            merge = next(a for a in report.actions if a.kind == "merge")
            assert merge.shards == (0, expected_sibling)
            assert sharded.n_shards == before - 1
            # The starved shard's survivors now live in the merged shard.
            merged_slot = expected_sibling - 1
            merged_ids = set(sharded.shard_ids[merged_slot].tolist())
            assert starving_ids <= merged_ids
            # Merging drops both shards' tombstones physically.
            assert sharded.shards[merged_slot].n_tombstones == 0
        finally:
            sharded.close()

    def test_rebalance_never_loses_routed_recall(self):
        """Starve one shard of four by deletes, query with the deleted
        vectors (they still route to its build-time centroid), and merge it
        away: routed recall after the pass is at least the drifted value,
        and the live set — hence the exact oracle — is unchanged."""
        base = make_sift_like(4000, 24, random_state=7)
        spec = IndexSpec(backend="gkmeans", n_neighbors=20, pool_size=64,
                         n_shards=4, partitioner="gkmeans", random_state=7,
                         params={"tau": 6, "cluster_size": 50})
        with ShardedIndex.build(base, spec) as sharded:
            victim_ids = sharded.shard_ids[0][sharded.shards[0].live_mask]
            deleted = victim_ids[20:]
            sharded.delete(deleted.tolist())
            rng = np.random.default_rng(7)
            queries = np.ascontiguousarray(
                base[rng.choice(deleted, size=256, replace=False)])
            n_live = sharded.n_points

            def routed_recall():
                return evaluate_search(sharded, queries, n_results=10,
                                       shard_probe=1).recall_at_k

            drifted = routed_recall()
            report = sharded.rebalance(RebalancePolicy(min_shard_rows=50))
            assert report.n_merges >= 1
            assert sum(sharded.shard_sizes) == n_live
            rebalanced = routed_recall()
            assert rebalanced >= drifted, \
                f"rebalance lost routed recall: {drifted:.3f} -> " \
                f"{rebalanced:.3f}"
            full = evaluate_search(sharded, queries, n_results=10)
            assert full.recall_at_k >= 0.95

    def test_refresh_recomputes_live_row_means(self, corpus):
        base, extra, _ = corpus
        for metric, dtype in [("sqeuclidean", "float64"),
                              ("cosine", "float32")]:
            spec = _exhaustive_spec(base.shape[0], metric, dtype,
                                    n_shards=3, partitioner="gkmeans")
            sharded = ShardedIndex.build(base, spec)
            sharded.insert(extra)
            generations = sharded.shard_generations
            try:
                report = sharded.rebalance()   # default: refresh only
                assert report.refreshed and not report.topology_changed
                assert not report.endpoints_detached
                # Shard contents are untouched by a refresh-only pass.
                assert sharded.shard_generations == generations
                engine = _coarse_engine(metric, dtype)
                for shard in range(sharded.n_shards):
                    index = sharded.shards[shard]
                    live = np.ascontiguousarray(
                        index.data[index.live_mask])
                    expected = _centroid_of(engine, live, dtype)
                    assert sharded.centroids[shard].tobytes() \
                        == expected.tobytes()
            finally:
                sharded.close()

    def test_second_pass_is_noop_without_generation_bump(self, corpus):
        sharded, _, _, _ = _drifted(corpus, "sqeuclidean", "float64")
        try:
            policy = RebalancePolicy(
                max_shard_rows=max(sharded.shard_sizes) - 1)
            first = sharded.rebalance(policy)
            assert first.changed
            generation = sharded.generation
            second = sharded.rebalance(policy)
            assert not second.changed
            assert second.actions == ()
            assert sharded.generation == generation
            assert second.generation == generation
        finally:
            sharded.close()

    def test_repeated_passes_reach_a_fixpoint(self, corpus):
        # Merges run before splits, so one pass may leave a split child
        # below min_shard_rows; repeated passes must converge to a state
        # no further pass touches (and then stop bumping the generation).
        sharded, _, _, _ = _drifted(corpus, "sqeuclidean", "float64")
        try:
            policy = _forcing_policy(sharded)
            for _ in range(5):
                if not sharded.rebalance(policy).changed:
                    break
            generation = sharded.generation
            settled = sharded.rebalance(policy)
            assert not settled.changed
            assert sharded.generation == generation
        finally:
            sharded.close()

    def test_topology_change_detaches_endpoints_and_clamps_probe(
            self, corpus):
        base, extra, _ = corpus
        spec = _exhaustive_spec(base.shape[0], "sqeuclidean", "float64",
                                n_shards=4, partitioner="gkmeans",
                                shard_probe=4)
        sharded = ShardedIndex.build(base, spec)
        try:
            sharded.endpoints = ["127.0.0.1:9001", "127.0.0.1:9002",
                                 "127.0.0.1:9003", "127.0.0.1:9004"]
            smallest = min(sharded.shard_sizes)
            report = sharded.rebalance(min_shard_rows=smallest + 1,
                                       refresh_centroids=False)
            assert report.n_merges >= 1
            assert report.endpoints_detached
            assert sharded.endpoints is None
            # shard_probe may not exceed the shrunken shard count.
            assert sharded.spec.shard_probe == sharded.n_shards
            assert sharded.spec.n_shards == sharded.n_shards
        finally:
            sharded.close()

    def test_round_robin_sharding_is_rejected(self, corpus):
        base, _, _ = corpus
        spec = _exhaustive_spec(base.shape[0], "sqeuclidean", "float64",
                                n_shards=3, partitioner="round_robin")
        sharded = ShardedIndex.build(base, spec)
        try:
            with pytest.raises(ValidationError, match="gkmeans"):
                sharded.rebalance()
        finally:
            sharded.close()

    def test_policy_validation(self, corpus):
        with pytest.raises(ValidationError, match="greater"):
            RebalancePolicy(max_shard_rows=10, min_shard_rows=10)
        with pytest.raises(ValidationError, match="empty policy"):
            RebalancePolicy(refresh_centroids=False)
        with pytest.raises(ValidationError):
            RebalancePolicy(max_shard_rows=0)
        base, _, _ = corpus
        spec = _exhaustive_spec(base.shape[0], "sqeuclidean", "float64",
                                n_shards=2, partitioner="gkmeans")
        sharded = ShardedIndex.build(base, spec)
        try:
            with pytest.raises(ValidationError, match="not both"):
                sharded.rebalance(RebalancePolicy(), max_shard_rows=10)
            with pytest.raises(ValidationError, match="RebalancePolicy"):
                sharded.rebalance({"max_shard_rows": 10})
        finally:
            sharded.close()

    def test_mono_index_has_no_rebalance(self, corpus):
        base, _, _ = corpus
        index = Index.build(base, _exhaustive_spec(base.shape[0],
                                                   "sqeuclidean",
                                                   "float64"))
        assert not hasattr(index, "rebalance")


class TestManifestCompat:
    """Pre-v4 manifests rebalance once migrated."""

    def _saved(self, corpus, tmp_path, name):
        base, extra, _ = corpus
        spec = _exhaustive_spec(base.shape[0], "sqeuclidean", "float64",
                                n_shards=3, partitioner="gkmeans")
        sharded = ShardedIndex.build(base, spec)
        path = tmp_path / name
        sharded.save(path)
        sharded.close()
        return path

    @pytest.mark.parametrize("version", [2, 3])
    def test_pre_v4_manifest_rebalances_after_migrate(self, corpus,
                                                      tmp_path, version):
        path = self._saved(corpus, tmp_path, f"v{version}.shards")
        write_manifest_version(path, version)
        rebalancer = Rebalancer(path, RebalancePolicy(min_shard_rows=500))
        with pytest.raises(ValidationError, match="gkmeans migrate"):
            rebalancer.run()
        assert migrate(path)
        report, reloads = rebalancer.run()
        assert report.changed and report.topology_changed
        assert reloads == []
        with np.load(os.path.join(path, MANIFEST_NAME),
                     allow_pickle=False) as archive:
            assert int(archive["sharded_format_version"]) \
                == SHARDED_FORMAT_VERSION
            assert "shard_generations" in archive.files
        restored = ShardedIndex.load(path)
        try:
            assert restored.n_shards == 1   # everything merged
        finally:
            restored.close()

    def test_v1_manifest_without_centroids_refuses_rebalance(
            self, corpus, tmp_path):
        path = self._saved(corpus, tmp_path, "v1.shards")
        write_manifest_version(path, 1)
        assert migrate(path)
        restored = ShardedIndex.load(path)    # loads and serves
        try:
            assert restored.centroids is None
            with pytest.raises(ValidationError, match="centroids"):
                restored.rebalance()
        finally:
            restored.close()

    def test_crash_before_rename_leaves_old_generation_servable(
            self, corpus, tmp_path, monkeypatch):
        base, extra, queries = corpus
        path = self._saved(corpus, tmp_path, "crash.shards")
        original = ShardedIndex.load(path)
        baseline_idx, baseline_dist = original.search(queries, 8)
        manifest_before = open(os.path.join(path, MANIFEST_NAME),
                               "rb").read()
        original.close()

        victim = ShardedIndex.load(path)
        victim.insert(extra)
        report = victim.rebalance(_forcing_policy(victim))
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
        survivor = ShardedIndex.load(path)
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
        sharded = ShardedIndex.build(base, spec)
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

        rebalancer = Rebalancer(path, RebalancePolicy(),
                                endpoints=endpoints)
        before = rebalancer.inspect()
        assert [row["shard"] for row in before if row["stale"]] \
            == stale_shards

        report, reloads = rebalancer.run()
        assert report.changed and not report.topology_changed
        statuses = {row["shard"]: row["status"] for row in reloads}
        for shard in range(sharded.n_shards):
            expected = "reloaded" if shard in stale_shards else "fresh"
            assert statuses[shard] == expected
        for shard in stale_shards:
            assert servers[shard].n_reloads == 1

        # Post-reload the full remote path answers bit-for-bit again —
        # rebalance().save() on our in-memory copy replays the same pass.
        assert sharded.rebalance(RebalancePolicy()).changed
        sharded.endpoints = endpoints
        t_idx, t_dist = sharded.search(queries, 8, executor="thread")
        r_idx, r_dist = sharded.search(queries, 8, executor="remote")
        assert r_idx.tobytes() == t_idx.tobytes()
        assert r_dist.tobytes() == t_dist.tobytes()
        after = rebalancer.inspect()
        assert not any(row["stale"] for row in after)

    def test_topology_change_reports_detached_deployment(self, deployment):
        sharded, servers, endpoints, path, extra, queries = deployment
        report, reloads = Rebalancer(
            path, RebalancePolicy(min_shard_rows=500),
            endpoints=endpoints).run()
        assert report.topology_changed
        assert all(row["status"] == "detached" for row in reloads)
        # No daemon was reloaded out from under the old deployment.
        assert all(server.n_reloads == 0 for server in servers)
        restored = ShardedIndex.load(path)
        try:
            assert restored.n_shards == 1
            assert restored.endpoints is None
        finally:
            restored.close()

    def test_dead_endpoint_is_reported_not_raised(self, deployment):
        sharded, servers, endpoints, path, extra, queries = deployment
        dead = list(endpoints)
        dead[1] = "127.0.0.1:1"
        rows = Rebalancer(path, endpoints=dead,
                          client_options={"retries": 0}).inspect()
        assert rows[0]["error"] is None
        assert rows[1]["error"] is not None and "unreachable" \
            in rows[1]["error"]

    def test_single_file_index_is_rejected(self, corpus, tmp_path):
        base, _, _ = corpus
        index = Index.build(base, _exhaustive_spec(base.shape[0],
                                                   "sqeuclidean",
                                                   "float64"))
        path = tmp_path / "mono.idx"
        index.save(path)
        with pytest.raises(ValidationError, match="sharded"):
            Rebalancer(path).run()


class TestPreflight:
    """check_endpoints() reports a dead daemon before any query is sent."""

    def test_dead_daemon_reported_before_any_query(self, corpus):
        from repro.net import ShardServer

        base, _, queries = corpus
        spec = _exhaustive_spec(base.shape[0], "sqeuclidean", "float64",
                                n_shards=2, partitioner="gkmeans")
        sharded = ShardedIndex.build(base, spec)
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
        sharded = ShardedIndex.build(base, spec)
        try:
            with pytest.raises(ServingError, match="endpoint"):
                sharded.check_endpoints()
        finally:
            sharded.close()
