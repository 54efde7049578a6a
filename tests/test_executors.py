"""The pluggable shard-executor layer and the serving-resource bugfixes.

Covers the three serving-path bugfixes — persistent walk pools instead of
per-call ``ThreadPoolExecutor`` churn, ``clamp_workers`` oversubscription
clamping, and original-exception surfacing out of the pool — plus the
``IndexSpec.executor`` knob's validation/persistence surface, including
indexes an older release saved with the retired ``"process"`` executor.

The bit-for-bit determinism contract of ``executor="remote"`` itself is
enforced in ``test_serving_determinism.py``; here we test the machinery.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import threading
import warnings

import numpy as np
import pytest

import repro.index.executors as executors_mod
import repro.index.facade as facade_mod
import repro.search.frontier as frontier_mod
import repro.search.greedy as greedy_mod
import repro.validation as validation
from repro.datasets import make_sift_like, train_query_split
from repro.cli import main
from repro.exceptions import ServingError, ValidationError
from repro.index import (
    EXECUTORS,
    MANIFEST_NAME,
    Index,
    IndexSpec,
    RemoteShardExecutor,
    ShardSearchTask,
    ThreadShardExecutor,
)
from repro.search import GraphSearcher, evaluate_search
from repro.validation import clamp_workers


@pytest.fixture(scope="module")
def corpus():
    data = make_sift_like(500, 12, random_state=21)
    return train_query_split(data, 40, random_state=21)


@pytest.fixture(scope="module")
def saved_index(corpus, tmp_path_factory):
    """A small monolithic index saved to disk."""
    base, _ = corpus
    spec = IndexSpec(backend="bruteforce", n_neighbors=8, random_state=3)
    index = Index.build(base, spec)
    path = tmp_path_factory.mktemp("executors") / "mono.idx"
    index.save(path)
    return index, str(path)


class TestClampWorkers:
    """Oversubscription is clamped to the CPU budget, warning once."""

    @pytest.fixture(autouse=True)
    def _fresh_warning_state(self):
        validation._OVERSUBSCRIPTION_WARNED = False
        yield
        validation._OVERSUBSCRIPTION_WARNED = False

    def test_within_budget_is_untouched(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert clamp_workers(1) == 1
            assert clamp_workers(8) == 8

    def test_oversubscription_clamps_and_warns_once(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        with pytest.warns(RuntimeWarning, match="shard_workers=16"):
            assert clamp_workers(16, name="shard_workers") == 2
        # The warning fires once per process, not once per call.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert clamp_workers(16) == 2

    def test_unknown_cpu_count_falls_back_to_one(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        with pytest.warns(RuntimeWarning):
            assert clamp_workers(4) == 1

    def test_search_layers_apply_the_clamp(self, corpus, monkeypatch):
        base, queries = corpus
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        index = Index.build(base, IndexSpec(backend="bruteforce",
                                            n_neighbors=8, random_state=3))
        assert index.search(queries, 5, workers=64).stats.workers == 1
        index.close()


class _CountingPool:
    """Stand-in ThreadPoolExecutor factory that counts constructions."""

    def __init__(self):
        self.created = 0
        self._real = frontier_mod.ThreadPoolExecutor

    def __call__(self, *args, **kwargs):
        self.created += 1
        return self._real(*args, **kwargs)


class TestPersistentWalkPool:
    """Serving never builds a thread pool per call (the frontier bugfix)."""

    def test_searcher_reuses_one_pool_across_calls(self, corpus,
                                                   monkeypatch):
        base, queries = corpus
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        graph_index = Index.build(
            base, IndexSpec(backend="bruteforce", n_neighbors=8,
                            random_state=3))
        searcher = graph_index.shards[0]._searcher
        assert isinstance(searcher, GraphSearcher)
        frontier_pools = _CountingPool()
        greedy_pools = _CountingPool()
        monkeypatch.setattr(frontier_mod, "ThreadPoolExecutor",
                            frontier_pools)
        monkeypatch.setattr(greedy_mod, "ThreadPoolExecutor", greedy_pools)
        for _ in range(3):
            graph_index.search(queries, 5, workers=4)
        # One persistent pool in the searcher; zero transient pools in the
        # frontier (it is handed the persistent one).
        assert greedy_pools.created == 1
        assert frontier_pools.created == 0
        graph_index.close()

    def test_close_releases_and_recreates_on_demand(self, corpus,
                                                    monkeypatch):
        base, queries = corpus
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        index = Index.build(base, IndexSpec(backend="bruteforce",
                                            n_neighbors=8, random_state=3))
        baseline, _ = index.search(queries, 5, workers=4)
        index.close()
        index.close()  # idempotent
        assert index.shards[0]._searcher._walk_pools == {}
        after, _ = index.search(queries, 5, workers=4)
        assert np.array_equal(baseline, after)
        index.close()

    def test_concurrent_searches_at_different_worker_counts(self, corpus,
                                                            monkeypatch):
        """One pool per worker count: no search shuts down the pool a
        concurrent search at another count is mapping onto, and every
        answer is the serial one."""
        base, queries = corpus
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        index = Index.build(base, IndexSpec(backend="bruteforce",
                                            n_neighbors=8, random_state=3))
        want_idx, want_dist = index.search(queries, 10, workers=1)
        failures = []

        def search_loop(workers):
            try:
                for _ in range(30):
                    idx, dist = index.search(queries, 10, workers=workers)
                    assert idx.tobytes() == want_idx.tobytes()
                    assert dist.tobytes() == want_dist.tobytes()
            except BaseException as exc:    # surfaced on the main thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            threads = [threading.Thread(target=search_loop, args=(workers,))
                       for workers in (2, 3, 4, 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not failures, failures
        assert sorted(index.shards[0]._searcher._walk_pools) == [2, 3, 4]
        index.close()
        assert index.shards[0]._searcher._walk_pools == {}

    def test_thread_shard_executor_reuses_pool(self, saved_index,
                                               monkeypatch):
        index, _ = saved_index
        pools = _CountingPool()
        monkeypatch.setattr(executors_mod, "ThreadPoolExecutor", pools)
        tasks = [ShardSearchTask(shard=0, queries=index.data[:3],
                                 shard_k=4) for _ in range(2)]
        executor = ThreadShardExecutor(index.shards, max_workers=2)
        executor.run(tasks)
        executor.run(tasks)
        assert pools.created == 1
        executor.close()
        executor.close()  # idempotent
        executor.run(tasks)
        assert pools.created == 2
        executor.close()

    def test_single_worker_runs_inline_without_pool(self, saved_index,
                                                    monkeypatch):
        index, _ = saved_index
        pools = _CountingPool()
        monkeypatch.setattr(executors_mod, "ThreadPoolExecutor", pools)
        executor = ThreadShardExecutor(index.shards, max_workers=1)
        tasks = [ShardSearchTask(shard=0, queries=index.data[:3],
                                 shard_k=4)] * 2
        executor.run(tasks)
        assert pools.created == 0


@pytest.mark.parametrize("n_shards", [1, 2])
def test_a_thread_search_checks_its_batch_once(corpus, monkeypatch, n_shards):
    """``Index.search`` checks the batch; the shards walk it unchecked."""
    base, queries = corpus
    index = Index.build(base, IndexSpec(backend="bruteforce", n_neighbors=8,
                                        n_shards=n_shards, random_state=3))
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return validation.check_queries(*args, **kwargs)

    for module in (facade_mod, greedy_mod):
        monkeypatch.setattr(module, "check_queries", counting)
    index.search(queries, 5)
    index.search(queries[0], 5)
    assert len(calls) == 2
    index.shards[0]._searcher.batch_query(queries, 5)
    assert len(calls) == 3
    index.close()


class TestCrashSurfacing:
    """A task failing inside the pool surfaces its original exception."""

    def test_thread_executor_surfaces_original_exception(self, saved_index):
        index, _ = saved_index
        good = ShardSearchTask(shard=0, queries=index.data[:3], shard_k=4)
        bad = ShardSearchTask(shard=0, queries=index.data[:3], shard_k=0)
        executor = ThreadShardExecutor(index.shards, max_workers=2)
        try:
            with pytest.raises(ValidationError, match="n_results"):
                executor.run([good, bad])
        finally:
            executor.close()


def _as_process_era(path) -> None:
    """Rewrite the index NPZ at ``path`` as a release that still had the
    ``process`` executor saved it: its spec JSON says ``"process"``."""
    with np.load(path, allow_pickle=False) as archive:
        payload = {key: archive[key] for key in archive.files}
    spec = json.loads(str(payload["spec_json"]))
    spec["executor"] = "process"
    payload["spec_json"] = np.asarray(json.dumps(spec, sort_keys=True))
    with open(path, "wb") as stream:
        np.savez(stream, **payload)


class TestExecutorSpecSurface:
    """Validation + persistence of the ``executor`` knob."""

    @pytest.mark.parametrize("executor", EXECUTORS)
    def test_spec_round_trips_executor(self, executor):
        spec = IndexSpec(backend="bruteforce", executor=executor)
        assert IndexSpec.from_json(spec.to_json()).executor == executor

    def test_spec_without_executor_key_defaults_to_thread(self):
        payload = IndexSpec(backend="bruteforce").to_dict()
        del payload["executor"]  # a pre-executor-knob index file
        assert IndexSpec.from_dict(payload).executor == "thread"

    def test_saved_process_executor_reads_as_thread(self):
        payload = IndexSpec(backend="bruteforce").to_dict()
        payload["executor"] = "process"  # saved by an older release
        assert IndexSpec.from_dict(payload).executor == "thread"
        assert IndexSpec.from_json(json.dumps(payload)).executor == "thread"

    @pytest.mark.parametrize("executor", ["rayon", "process"])
    def test_spec_rejects_unknown_executor(self, executor):
        with pytest.raises(ValidationError, match="'thread', 'remote'"):
            IndexSpec(backend="bruteforce", executor=executor)

    @pytest.mark.parametrize("executor", ["rayon", "process"])
    def test_search_rejects_unknown_executor(self, corpus, executor):
        base, queries = corpus
        sharded = Index.build(
            base, IndexSpec(backend="bruteforce", n_neighbors=8,
                            n_shards=2, random_state=3))
        with pytest.raises(ValidationError, match="'thread', 'remote'"):
            sharded.search(queries, 5, executor=executor)
        sharded.close()

    def test_one_shard_index_takes_the_same_executors(self, saved_index,
                                                      corpus):
        """A one-shard index is checked like any other: an unknown executor
        is refused, and ``remote`` needs its one endpoint."""
        index, _ = saved_index
        _, queries = corpus
        idx, _ = index.search(queries, 5, executor="thread")
        base_idx, _ = index.search(queries, 5)
        assert np.array_equal(idx, base_idx)
        with pytest.raises(ValidationError, match="'thread', 'remote'"):
            index.search(queries, 5, executor="process")
        with pytest.raises(ServingError, match="one endpoint per shard"):
            index.search(queries, 5, executor="remote")

    def test_executors_constant_names_all_kinds(self):
        assert EXECUTORS == ("thread", "remote")
        assert ThreadShardExecutor.name == "thread"
        assert RemoteShardExecutor.name == "remote"

    def test_process_era_mono_file_serves_like_thread(self, saved_index,
                                                      corpus, tmp_path):
        index, path = saved_index
        _, queries = corpus
        legacy = tmp_path / "legacy.idx"
        shutil.copyfile(path, legacy)
        _as_process_era(legacy)
        with Index.load(legacy) as restored:
            assert restored.spec.executor == "thread"
            idx, dist = restored.search(queries, 5)
        t_idx, t_dist = index.search(queries, 5, executor="thread")
        assert idx.tobytes() == t_idx.tobytes()
        assert dist.tobytes() == t_dist.tobytes()

    def test_process_era_sharded_directory_serves_like_thread(self, corpus,
                                                              tmp_path):
        base, queries = corpus
        spec = IndexSpec(backend="bruteforce", n_neighbors=8, n_shards=2,
                         partitioner="gkmeans", random_state=3)
        path = tmp_path / "legacy.shards"
        with Index.build(base, spec) as sharded:
            sharded.save(path)
            t_idx, t_dist = sharded.search(queries, 5, executor="thread",
                                           shard_workers=2)
        for name in os.listdir(path):
            _as_process_era(path / name)
        with np.load(path / MANIFEST_NAME) as manifest:
            assert '"process"' in str(manifest["spec_json"])
        with Index.load(path) as restored:
            assert restored.spec.executor == "thread"
            result = restored.search(queries, 5, shard_workers=2)
            idx, dist = result
            assert result.stats.executor == "thread"
        assert idx.tobytes() == t_idx.tobytes()
        assert dist.tobytes() == t_dist.tobytes()

    def test_cli_search_rejects_process_executor(self, saved_index, capsys):
        _, path = saved_index
        with pytest.raises(SystemExit) as exited:
            main(["search", path, "--executor", "process"])
        assert exited.value.code == 2
        assert "invalid choice: 'process'" in capsys.readouterr().err


class TestServingResources:
    """Executor caching and close()."""

    @pytest.fixture()
    def sharded(self, corpus):
        base, _ = corpus
        index = Index.build(
            base, IndexSpec(backend="bruteforce", n_neighbors=8,
                            n_shards=2, random_state=3))
        yield index
        index.close()

    def test_executor_cached_across_searches(self, sharded, corpus):
        _, queries = corpus
        sharded.search(queries, 5, shard_workers=2)
        first = sharded._executors["thread"][1]
        result = sharded.search(queries, 5, shard_workers=2)
        assert sharded._executors["thread"][1] is first
        assert result.stats.executor == "thread"

    def test_close_is_idempotent_and_index_survives(self, sharded, corpus):
        _, queries = corpus
        baseline, _ = sharded.search(queries, 5, shard_workers=2)
        sharded.close()
        sharded.close()
        assert sharded._executors == {}
        after, _ = sharded.search(queries, 5, shard_workers=2)
        assert np.array_equal(baseline, after)

    def test_close_with_live_executors_drains_in_order(self, sharded,
                                                       corpus):
        """Closing with warm fan-out executors (whose close() joins any
        in-flight tasks) must drain them *before* tearing down the shard
        walk pools they use — and never raise."""
        from repro.net import ShardServer

        _, queries = corpus
        servers = [ShardServer(shard, shard_id=number,
                               generation=shard.generation)
                   for number, shard in enumerate(sharded.shards)]
        try:
            for server in servers:
                server.start()
            sharded.endpoints = [server.endpoint for server in servers]
            sharded.search(queries, 5, shard_workers=2)        # warm thread
            sharded.search(queries, 5, executor="remote")      # warm remote
            assert sharded._executors.keys() == {"thread", "remote"}
            sharded.close()
            assert sharded._executors == {}
            sharded.close()  # second close stays a no-op
        finally:
            for server in servers:
                server.close()

    def test_sharded_index_context_manager(self, corpus):
        base, queries = corpus
        built = Index.build(
            base, IndexSpec(backend="bruteforce", n_neighbors=8,
                            n_shards=2, random_state=3))
        with built as index:
            assert index is built
            index.search(queries, 5, shard_workers=2)
            assert index._executors
        assert built._executors == {}

    def test_index_context_manager(self, corpus):
        base, queries = corpus
        built = Index.build(base, IndexSpec(backend="bruteforce",
                                            n_neighbors=8, random_state=3))
        with built as index:
            assert index is built
            index.search(queries, 5, workers=2)
        # close() released the walk pool; the index stays searchable.
        idx, _ = built.search(queries, 5, workers=2)
        assert idx.shape == (queries.shape[0], 5)

    def test_spec_executor_drives_default(self, corpus):
        base, queries = corpus
        sharded = Index.build(
            base, IndexSpec(backend="bruteforce", n_neighbors=8,
                            n_shards=2, random_state=3,
                            executor="remote"))
        try:
            # The spec default picks the remote executor, which has no
            # endpoints to send to.
            with pytest.raises(ServingError, match="endpoint"):
                sharded.search(queries, 5)
            # A per-call override wins without touching the spec default.
            result = sharded.search(queries, 5, executor="thread")
            assert result.stats.executor == "thread"
        finally:
            sharded.close()
