"""Tests for the sharded index layer (build / search / persist / validate)."""

import os

import numpy as np
import pytest
from _legacy_formats import write_manifest_version

from repro.datasets import make_sift_like, train_query_split
from repro.exceptions import ValidationError
from repro.graph.bruteforce import brute_force_neighbors
from repro.index import (
    Index,
    IndexSpec,
    ShardedIndex,
    ShardedServingStats,
    build_index,
    load_index,
    partition_dataset,
)
from repro.index.sharded import SHARDED_FORMAT_VERSION, migrate
from repro.search import evaluate_search

N_BASE = 360
N_QUERIES = 40
N_FEATURES = 12


@pytest.fixture(scope="module")
def shard_setup():
    corpus = make_sift_like(N_BASE + N_QUERIES, N_FEATURES, random_state=3)
    return train_query_split(corpus, N_QUERIES, random_state=3)


@pytest.fixture(scope="module")
def sharded_index(shard_setup):
    base, _ = shard_setup
    spec = IndexSpec(backend="bruteforce", n_neighbors=8, n_shards=4,
                     random_state=5)
    return ShardedIndex.build(base, spec)


class TestPartitioners:
    def test_round_robin_balanced_permutation(self, shard_setup):
        base, _ = shard_setup
        groups = partition_dataset(base, 4, "round_robin")
        assert [g.size for g in groups] == [N_BASE // 4] * 4
        merged = np.sort(np.concatenate(groups))
        assert np.array_equal(merged, np.arange(N_BASE))
        assert np.array_equal(groups[1][:3], [1, 5, 9])

    def test_gkmeans_partition_covers_dataset(self, shard_setup):
        base, _ = shard_setup
        groups = partition_dataset(base, 3, "gkmeans", random_state=0)
        assert len(groups) == 3
        assert all(g.size >= 2 for g in groups)
        merged = np.sort(np.concatenate(groups))
        assert np.array_equal(merged, np.arange(N_BASE))

    def test_gkmeans_partition_deterministic(self, shard_setup):
        base, _ = shard_setup
        a = partition_dataset(base, 3, "gkmeans", random_state=7)
        b = partition_dataset(base, 3, "gkmeans", random_state=7)
        for left, right in zip(a, b):
            assert np.array_equal(left, right)

    def test_gkmeans_partition_accepts_dot_metric(self, shard_setup):
        """The coarse split falls back to sqeuclidean for dot indexes."""
        base, queries = shard_setup
        sharded = ShardedIndex.build(base, backend="bruteforce",
                                     n_neighbors=6, metric="dot",
                                     n_shards=2, partitioner="gkmeans")
        assert sharded.metric == "dot"
        idx, dist = sharded.search(queries[:5], 4)
        assert idx.shape == (5, 4)

    def test_partition_returns_centroids_when_asked(self, shard_setup):
        base, _ = shard_setup
        groups, centroids = partition_dataset(base, 3, "gkmeans",
                                              random_state=0,
                                              return_centroids=True)
        assert centroids.shape == (3, N_FEATURES)
        plain = partition_dataset(base, 3, "gkmeans", random_state=0)
        for with_c, without in zip(groups, plain):
            assert np.array_equal(with_c, without)
        _, rr_centroids = partition_dataset(base, 3, "round_robin",
                                            return_centroids=True)
        assert rr_centroids is None

    def test_single_shard_is_identity(self, shard_setup):
        base, _ = shard_setup
        (group,) = partition_dataset(base, 1, "round_robin")
        assert np.array_equal(group, np.arange(N_BASE))

    def test_unknown_partitioner_rejected(self, shard_setup):
        base, _ = shard_setup
        with pytest.raises(ValidationError, match="partitioner"):
            partition_dataset(base, 2, "hashring")

    def test_too_many_shards_rejected(self, shard_setup):
        base, _ = shard_setup
        with pytest.raises(ValidationError, match="n_shards"):
            partition_dataset(base, N_BASE, "round_robin")


class TestSpecSurface:
    def test_spec_shard_fields_roundtrip_json(self):
        spec = IndexSpec(backend="bruteforce", n_shards=4,
                         partitioner="gkmeans", shard_probe=2)
        restored = IndexSpec.from_json(spec.to_json())
        assert restored.n_shards == 4
        assert restored.partitioner == "gkmeans"
        assert restored.shard_probe == 2

    def test_spec_without_shard_probe_defaults_to_full_fanout(self):
        payload = IndexSpec(backend="bruteforce", n_shards=2).to_dict()
        del payload["shard_probe"]      # a pre-routing index file
        assert IndexSpec.from_dict(payload).shard_probe is None

    def test_spec_rejects_bad_shard_probe(self):
        with pytest.raises(ValidationError, match="shard_probe"):
            IndexSpec(backend="bruteforce", n_shards=4,
                      partitioner="gkmeans", shard_probe=0)
        with pytest.raises(ValidationError, match="shard_probe"):
            IndexSpec(backend="bruteforce", n_shards=4,
                      partitioner="gkmeans", shard_probe=5)
        with pytest.raises(ValidationError, match="round_robin"):
            IndexSpec(backend="bruteforce", n_shards=4, shard_probe=2)

    def test_spec_without_shard_keys_defaults_to_monolithic(self):
        payload = IndexSpec(backend="bruteforce").to_dict()
        del payload["n_shards"]     # a pre-sharding index file
        del payload["partitioner"]
        spec = IndexSpec.from_dict(payload)
        assert spec.n_shards == 1
        assert spec.partitioner == "round_robin"

    def test_spec_rejects_bad_shard_fields(self):
        with pytest.raises(ValidationError):
            IndexSpec(backend="bruteforce", n_shards=0)
        with pytest.raises(ValidationError, match="partitioner"):
            IndexSpec(backend="bruteforce", partitioner="modulo")

    def test_monolithic_build_rejects_sharded_spec(self, shard_setup):
        base, _ = shard_setup
        with pytest.raises(ValidationError, match="ShardedIndex"):
            Index.build(base, backend="bruteforce", n_shards=2)

    def test_build_index_dispatches_on_n_shards(self, shard_setup):
        base, _ = shard_setup
        mono = build_index(base, backend="bruteforce", n_neighbors=6)
        assert isinstance(mono, Index)
        sharded = build_index(base, backend="bruteforce", n_neighbors=6,
                              n_shards=2)
        assert isinstance(sharded, ShardedIndex)
        assert sharded.n_shards == 2


class TestBuildAndSearch:
    def test_build_surface(self, sharded_index):
        assert sharded_index.n_shards == 4
        assert sharded_index.n_points == N_BASE
        assert sharded_index.n_features == N_FEATURES
        assert len(sharded_index) == N_BASE
        assert sharded_index.build_seconds > 0
        assert sharded_index.shard_sizes == (90, 90, 90, 90)
        assert "n_shards=4" in repr(sharded_index)

    def test_data_reassembled_in_original_order(self, sharded_index,
                                                shard_setup):
        base, _ = shard_setup
        assert np.array_equal(sharded_index.data, base)

    def test_build_workers_do_not_change_the_index(self, shard_setup):
        base, _ = shard_setup
        spec = IndexSpec(backend="bruteforce", n_neighbors=6, n_shards=3,
                         random_state=2)
        serial = ShardedIndex.build(base, spec, build_workers=1)
        pooled = ShardedIndex.build(base, spec, build_workers=3)
        for left, right in zip(serial.shards, pooled.shards):
            assert np.array_equal(left.graph.indices, right.graph.indices)

    def test_search_merges_global_ids(self, sharded_index, shard_setup):
        base, queries = shard_setup
        idx, dist = sharded_index.search(queries, 10)
        assert idx.shape == dist.shape == (N_QUERIES, 10)
        assert idx.min() >= 0 and idx.max() < N_BASE
        # Distances ascend within each row.
        assert np.all(np.diff(dist, axis=1) >= 0)
        evals = sharded_index.last_per_query_evaluations
        assert evals.shape == (N_QUERIES,)
        assert sharded_index.last_n_evaluations == evals.sum()

    def test_search_exact_in_exhaustive_regime(self, shard_setup):
        """With the pool covering each shard, the merge is the true top-k."""
        base, queries = shard_setup
        spec = IndexSpec(backend="bruteforce", n_neighbors=12, n_starts=8,
                         pool_size=N_BASE, seed_sample=N_BASE, n_shards=4,
                         random_state=5)
        sharded = ShardedIndex.build(base, spec)
        idx, dist = sharded.search(queries, 10)
        exact_idx, exact_dist = brute_force_neighbors(queries, base, 10)
        np.testing.assert_allclose(dist, exact_dist, rtol=1e-9)

    def test_single_query_matches_batch_row(self, sharded_index,
                                            shard_setup):
        _, queries = shard_setup
        single_idx, single_dist = sharded_index.search(queries[0], 5)
        assert single_idx.shape == single_dist.shape == (5,)
        batch_idx, batch_dist = sharded_index.search(queries[:1], 5)
        assert np.array_equal(single_idx, batch_idx[0])
        assert np.array_equal(single_dist, batch_dist[0])

    def test_n_results_larger_than_any_shard(self, shard_setup):
        base, queries = shard_setup
        spec = IndexSpec(backend="bruteforce", n_neighbors=6, n_shards=4,
                         pool_size=N_BASE, random_state=5)
        sharded = ShardedIndex.build(base, spec)
        k = min(N_BASE, 120)            # > the 90-point shards
        idx, dist = sharded.search(queries[:4], k)
        assert idx.shape == (4, k)

    def test_n_results_validated_against_total(self, sharded_index,
                                               shard_setup):
        _, queries = shard_setup
        with pytest.raises(ValidationError):
            sharded_index.search(queries, N_BASE + 1)

    def test_shard_workers_validated(self, sharded_index, shard_setup):
        _, queries = shard_setup
        with pytest.raises(ValidationError):
            sharded_index.search(queries, 5, shard_workers=0)

    def test_clamped_n_neighbors_for_tiny_shards(self):
        data = make_sift_like(24, 6, random_state=0)
        sharded = ShardedIndex.build(data, backend="bruteforce",
                                     n_neighbors=16, n_shards=4)
        assert all(index.graph.n_neighbors == 5
                   for index in sharded.shards)  # 6-point shards -> kappa 5


class TestRoutedSearch:
    """``shard_probe`` routes queries to their nearest shards only."""

    @pytest.fixture(scope="class")
    def routed_index(self, shard_setup):
        base, _ = shard_setup
        spec = IndexSpec(backend="bruteforce", n_neighbors=8, n_shards=4,
                         partitioner="gkmeans", random_state=5)
        return ShardedIndex.build(base, spec)

    def test_build_exposes_routing_centroids(self, routed_index):
        assert routed_index.centroids is not None
        assert routed_index.centroids.shape == (4, N_FEATURES)

    def test_round_robin_build_has_no_centroids(self, sharded_index):
        assert sharded_index.centroids is None

    def test_routed_results_come_from_probed_shards_only(self, routed_index,
                                                         shard_setup):
        _, queries = shard_setup
        routes = routed_index._route(queries, 1)[:, 0]
        idx, dist = routed_index.search(queries, 5, shard_probe=1)
        for row in range(queries.shape[0]):
            shard_members = set(
                map(int, routed_index.shard_ids[routes[row]]))
            returned = {int(i) for i in idx[row] if i >= 0}
            assert returned <= shard_members
        assert np.all(np.diff(np.where(np.isfinite(dist), dist, np.inf),
                              axis=1) >= 0)

    def test_routed_stats_surface(self, routed_index, shard_setup):
        _, queries = shard_setup
        routed_index.search(queries, 6, shard_probe=2, shard_workers=2)
        stats = routed_index.last_serving_stats
        assert isinstance(stats, ShardedServingStats)
        assert stats.shard_probe == 2
        assert stats.routing_gemms == 1
        assert stats.n_queries == N_QUERIES
        assert sum(stats.queries_per_shard) == 2 * N_QUERIES
        assert stats.probed_shards_per_query == 2.0
        assert len(stats.queries_per_shard) == 4
        assert stats.total_seconds > 0

    def test_full_fanout_stats_report_no_routing(self, routed_index,
                                                 shard_setup):
        _, queries = shard_setup
        routed_index.search(queries, 6)
        stats = routed_index.last_serving_stats
        assert stats.shard_probe == 4
        assert stats.routing_gemms == 0
        assert stats.queries_per_shard == (N_QUERIES,) * 4
        assert stats.probed_shards_per_query == 4.0

    def test_routing_gemm_charged_to_evaluations(self, routed_index,
                                                 shard_setup):
        _, queries = shard_setup
        routed_index.search(queries, 6, shard_probe=1)
        evals = routed_index.last_per_query_evaluations
        # Every query pays the centroid gemm (one evaluation per shard)
        # on top of its own walk.
        assert np.all(evals > routed_index.n_shards)

    def test_single_query_routed(self, routed_index, shard_setup):
        _, queries = shard_setup
        idx, dist = routed_index.search(queries[0], 5, shard_probe=1)
        assert idx.shape == dist.shape == (5,)
        assert routed_index.last_per_query_evaluations.shape == (1,)

    def test_widening_probe_never_hurts_distances(self, routed_index,
                                                  shard_setup):
        """Each extra probed shard can only add closer candidates."""
        _, queries = shard_setup
        previous = None
        for probe in (1, 2, 3, 4):
            _, dist = routed_index.search(queries, 5, shard_probe=probe)
            if previous is not None:
                assert np.all(dist <= previous + 1e-12)
            previous = dist

    def test_evaluate_search_forwards_shard_probe(self, routed_index,
                                                  shard_setup):
        _, queries = shard_setup
        routed = evaluate_search(routed_index, queries, n_results=5,
                                 shard_probe=1)
        full = evaluate_search(routed_index, queries, n_results=5)
        assert routed.serving_stats.shard_probe == 1
        assert full.serving_stats.shard_probe == 4
        assert routed.recall_at_k <= full.recall_at_k + 1e-12
        assert routed.mean_distance_evaluations < \
            full.mean_distance_evaluations

    @pytest.fixture(scope="class")
    def alg3_routed(self):
        corpus = make_sift_like(4000, 24, random_state=7)
        base, queries = train_query_split(corpus, 256, random_state=7)
        spec = IndexSpec(backend="gkmeans", n_neighbors=20, pool_size=64,
                         n_shards=4, partitioner="gkmeans", random_state=7,
                         params={"tau": 6, "cluster_size": 50})
        with ShardedIndex.build(base, spec) as index:
            yield index, queries

    @pytest.mark.parametrize("probe,floor", [(1, 0.5), (2, 0.5), (4, 0.8)])
    def test_routed_recall_floor_on_alg3_graph(self, alg3_routed, probe,
                                               floor):
        """The gkmeans partition concentrates each query's neighbours in few
        shards: over Alg. 3 shard graphs (3744 × 24, four shards) even the
        single nearest shard keeps half of the top-10."""
        index, queries = alg3_routed
        recall = evaluate_search(index, queries, n_results=10,
                                 shard_probe=probe).recall_at_k
        assert recall >= floor, f"shard_probe={probe}: {recall:.3f}"


class TestManifestBackCompat:
    """Retired manifest versions are refused until ``migrate`` rewrites
    them; a version-1 (pre-routing) directory becomes a centroid-less
    index serving the full fan-out."""

    @pytest.fixture()
    def v1_directory(self, shard_setup, tmp_path):
        base, _ = shard_setup
        spec = IndexSpec(backend="bruteforce", n_neighbors=8, n_shards=3,
                         partitioner="gkmeans", random_state=5)
        sharded = ShardedIndex.build(base, spec)
        path = tmp_path / "legacy.shards"
        sharded.save(path)
        # The directory exactly as PR 4 wrote it: manifest version 1 (no
        # centroids key, no shard_probe spec field), index-file v1 shards.
        write_manifest_version(path, 1)
        with pytest.raises(ValidationError, match="gkmeans migrate"):
            ShardedIndex.load(path)
        assert migrate(path)
        return sharded, path

    def test_v1_migrates_and_serves_full_fanout(self, v1_directory,
                                                shard_setup):
        _, queries = shard_setup
        original, path = v1_directory
        restored = ShardedIndex.load(path)
        assert restored.centroids is None
        assert restored.spec.shard_probe is None
        before = original.search(queries, 8)
        after = restored.search(queries, 8)
        assert before[0].tobytes() == after[0].tobytes()
        assert before[1].tobytes() == after[1].tobytes()

    def test_v1_rejects_shard_probe_with_clear_error(self, v1_directory,
                                                     shard_setup):
        _, queries = shard_setup
        restored = ShardedIndex.load(v1_directory[1])
        with pytest.raises(ValidationError,
                           match="this index has none.*'gkmeans'"):
            restored.search(queries, 8, shard_probe=1)

    def test_migrate_writes_current_format(self, v1_directory):
        """A migrated v1 directory is in the current layout: the id map
        lives in the shard files, not the manifest."""
        original, path = v1_directory
        restored = ShardedIndex.load(path)
        for shard, index in enumerate(restored.shards):
            assert np.array_equal(index.ids, original.shards[shard].ids)
        with np.load(path / "manifest.npz", allow_pickle=False) as archive:
            assert int(archive["sharded_format_version"]) \
                == SHARDED_FORMAT_VERSION
            assert "shard_ids" not in archive.files
            assert "centroids" not in archive.files
            assert int(archive["generation"]) == 0
            assert "endpoints" not in archive.files
            assert np.array_equal(archive["shard_generations"],
                                  np.zeros(restored.n_shards))
            assert int(archive["next_id"]) == restored.n_rows

    def test_v2_without_deployment_keys_migrates(self, shard_setup,
                                                 tmp_path):
        """PR-5/6 (v2) manifests predate deployment metadata."""
        base, queries = shard_setup
        spec = IndexSpec(backend="bruteforce", n_neighbors=8, n_shards=3,
                         partitioner="gkmeans", random_state=5)
        sharded = ShardedIndex.build(base, spec)
        path = tmp_path / "v2.shards"
        sharded.save(path)
        write_manifest_version(path, 2)
        with pytest.raises(ValidationError, match="format version 2"):
            ShardedIndex.load(path)
        assert migrate(path)
        restored = ShardedIndex.load(path)
        assert restored.endpoints is None
        assert restored.generation == 0
        assert np.array_equal(restored.centroids, sharded.centroids)
        before = sharded.search(queries, 8)
        after = restored.search(queries, 8)
        assert before[0].tobytes() == after[0].tobytes()

    def test_unknown_future_version_rejected(self, sharded_index, tmp_path):
        path = tmp_path / "future.shards"
        sharded_index.save(path)
        manifest = dict(np.load(path / "manifest.npz",
                                allow_pickle=False))
        manifest["sharded_format_version"] = np.int64(99)
        np.savez(path / "manifest.npz", **manifest)
        with pytest.raises(ValidationError, match="format version"):
            ShardedIndex.load(path)
        with pytest.raises(ValidationError, match="format version 99"):
            migrate(path)


class TestServingStatsAggregation:
    def test_combined_stats_surface(self, sharded_index, shard_setup):
        _, queries = shard_setup
        sharded_index.search(queries, 6, shard_workers=2)
        stats = sharded_index.last_serving_stats
        assert isinstance(stats, ShardedServingStats)
        assert stats.n_shards == 4
        # (the requested fan-out is clamped to the CPUs on a small box)
        assert stats.shard_workers == min(2, os.cpu_count() or 1)
        assert stats.n_queries == N_QUERIES
        assert len(stats.shard_stats) == 4
        assert stats.n_groups == sum(s.n_groups for s in stats.shard_stats)
        assert stats.n_rounds == sum(s.n_rounds for s in stats.shard_stats)
        assert stats.n_gemms == sum(s.n_gemms for s in stats.shard_stats)
        assert stats.total_seconds > 0
        assert stats.queries_per_second > 0
        assert stats.workers >= 1

    def test_every_search_publishes_a_stats_record(self, sharded_index,
                                                  shard_setup):
        _, queries = shard_setup
        sharded_index.search(queries[0], 6)
        stats = sharded_index.last_serving_stats
        assert isinstance(stats, ShardedServingStats)
        assert stats.n_queries == 1
        assert stats.shard_probe == 4 and stats.routing_gemms == 0
        assert stats.queries_per_shard == (1, 1, 1, 1)
        assert all(s.n_queries == 1 for s in stats.shard_stats)
        assert sharded_index.last_per_query_evaluations.shape == (1,)


class TestPersistence:
    def test_save_load_roundtrip_bitwise(self, sharded_index, shard_setup,
                                         tmp_path):
        _, queries = shard_setup
        path = tmp_path / "corpus.shards"
        sharded_index.save(path)
        assert sorted(os.listdir(path)) == [
            "manifest.npz", "shard_0000.idx", "shard_0001.idx",
            "shard_0002.idx", "shard_0003.idx"]
        restored = load_index(path)
        assert isinstance(restored, ShardedIndex)
        assert restored.spec == sharded_index.spec
        before = sharded_index.search(queries, 8)
        after = restored.search(queries, 8)
        assert before[0].tobytes() == after[0].tobytes()
        assert before[1].tobytes() == after[1].tobytes()

    def test_save_replaces_existing_directory(self, sharded_index,
                                              tmp_path):
        path = tmp_path / "corpus.shards"
        sharded_index.save(path)
        sharded_index.save(path)           # idempotent overwrite
        assert len(os.listdir(path)) == 5
        assert not [name for name in os.listdir(tmp_path)
                    if name.startswith(".sharded")]

    def test_save_replaces_existing_regular_file(self, sharded_index,
                                                 shard_setup, tmp_path):
        """Re-building over a single-file index path must not crash."""
        base, _ = shard_setup
        path = tmp_path / "corpus.idx"
        Index.build(base, backend="bruteforce", n_neighbors=6).save(path)
        assert path.is_file()
        sharded_index.save(path)
        assert path.is_dir()
        assert isinstance(load_index(path), ShardedIndex)
        assert not [name for name in os.listdir(tmp_path)
                    if name.startswith(".sharded")]

    def test_load_index_dispatches_on_layout(self, sharded_index,
                                             shard_setup, tmp_path):
        base, _ = shard_setup
        mono = Index.build(base, backend="bruteforce", n_neighbors=6)
        mono_path = tmp_path / "mono.idx"
        mono.save(mono_path)
        assert isinstance(load_index(mono_path), Index)
        shard_path = tmp_path / "sharded"
        sharded_index.save(shard_path)
        assert isinstance(load_index(shard_path), ShardedIndex)

    def test_load_rejects_non_index_directory(self, tmp_path):
        empty = tmp_path / "not_an_index"
        empty.mkdir()
        with pytest.raises(ValidationError, match="manifest"):
            ShardedIndex.load(empty)

    def test_load_rejects_missing_shard_file(self, sharded_index, tmp_path):
        path = tmp_path / "corpus.shards"
        sharded_index.save(path)
        os.unlink(path / "shard_0002.idx")
        with pytest.raises(ValidationError, match="shard 2"):
            ShardedIndex.load(path)

    def test_load_rejects_corrupt_shard_file(self, sharded_index, tmp_path):
        path = tmp_path / "corpus.shards"
        sharded_index.save(path)
        with open(path / "shard_0001.idx", "wb") as stream:
            stream.write(b"not an npz")
        with pytest.raises(ValidationError, match="shard 1"):
            ShardedIndex.load(path)

    def test_load_rejects_corrupt_manifest(self, sharded_index, tmp_path):
        path = tmp_path / "corpus.shards"
        sharded_index.save(path)
        with open(path / "manifest.npz", "wb") as stream:
            stream.write(b"garbage")
        with pytest.raises(ValidationError, match="manifest"):
            ShardedIndex.load(path)

    def test_load_rejects_foreign_manifest(self, sharded_index, tmp_path):
        path = tmp_path / "corpus.shards"
        sharded_index.save(path)
        np.savez(path / "manifest.npz", unrelated=np.arange(3))
        with pytest.raises(ValidationError, match="missing keys"):
            ShardedIndex.load(path)


class TestConstructorValidation:
    def test_rejects_mismatched_shard_count(self, sharded_index):
        with pytest.raises(ValidationError, match="shards"):
            ShardedIndex(sharded_index.shards[:2], sharded_index.spec)

    def test_rejects_shards_whose_ids_overlap(self, sharded_index):
        first, second = sharded_index.shards[:2]
        ids = second.ids.copy()
        ids[0] = first.ids[0]              # both shards claim one global id
        overlapping = Index(second.data, second.graph, second.spec, ids=ids)
        shards = [first, overlapping, *sharded_index.shards[2:]]
        with pytest.raises(ValidationError, match="unique"):
            ShardedIndex(shards, sharded_index.spec)

    def test_rejects_shards_with_negative_ids(self, sharded_index):
        shard = sharded_index.shards[0]
        ids = shard.ids.copy()
        ids[0] = -1
        with pytest.raises(ValidationError, match="non-negative"):
            Index(shard.data, shard.graph, shard.spec, ids=ids)
