"""Contract suite for the one graph walk.

Every search runs the beam walk of :mod:`repro.search._walk` behind one of
two entries — exact (``frontier_batch_search``) or compressed-domain
(``quantized_batch_search`` under float16 / int8 codes).  The walk promises
no step-for-step trajectory; what it does promise, and what this suite
sweeps over metric × dtype × entry × ``max_group`` × batch shape (single
query, batch smaller than a group, batch not divisible by the group bound,
duplicated queries), is:

* recall@k against brute force stays above a floor;
* ``max_group`` and ``workers`` never change ids, distances or evaluation
  counts — bitwise;
* identical queries in one batch get identical rows, and a single query is
  exactly a batch of one at every layer (searcher, index, sharded index on
  the thread and remote executors);
* returned distances are the exact metric of the returned ids, ascending,
  ties by ascending id;
* the ``ServingStats`` record is internally consistent.

The last section pins three hazards the consolidation hit, one regression
test each.
"""

import numpy as np
import pytest

from repro.datasets import make_sift_like, train_query_split
from repro.distance import DistanceEngine
from repro.distance.quantized import QuantizedScorer, ScalarQuantizer
from repro.graph import brute_force_knn_graph
from repro.graph.bruteforce import brute_force_neighbors
from repro.graph.csr import CSRAdjacency
from repro.index import Index, IndexSpec, ShardedIndex
from repro.net import ShardServer
from repro.search import GraphSearcher, frontier_batch_search
from repro.search.quantized import quantized_batch_search

METRICS = ("sqeuclidean", "cosine", "dot")
DTYPES = ("float64", "float32")
#: Walk entries: the identity scorer and the two code families.
ENTRIES = ("none", "float16", "int8")

#: Group bounds exercised: degenerate (1), ragged (3), default (32) and
#: whole-batch merging (None).
MAX_GROUPS = (1, 3, 32, None)

K = 5
POOL = 24
SEED_SAMPLE = 128
#: Measured 0.996–1.0 on this fixture for every metric × entry.
RECALL_FLOOR = 0.95


@pytest.fixture(scope="module", params=[11, 29])
def corpus(request):
    """Base data, queries and one exact symmetrised graph per metric."""
    data = make_sift_like(650, 16, random_state=request.param)
    base, queries = train_query_split(data, 50, random_state=request.param)
    adjacency = {metric: brute_force_knn_graph(base, 8, metric=metric)
                 .symmetrized_adjacency() for metric in METRICS}
    return base, queries, adjacency


def _walk(entry: str, engine: DistanceEngine, base, adjacency, batch, *,
          seed: int = 0, **options):
    """One search through ``entry`` with the suite's fixed walk settings."""
    options = dict(pool_size=POOL, seed_sample=SEED_SAMPLE, engine=engine,
                   rng=np.random.default_rng(seed), **options)
    if entry == "none":
        return frontier_batch_search(base, adjacency, batch, K, **options)
    scorer = QuantizedScorer(engine, ScalarQuantizer(entry),
                             engine.prepare(base))
    return quantized_batch_search(base, adjacency, batch, K, scorer,
                                  **options)


def _batch_shapes(queries: np.ndarray) -> dict:
    return {
        "m=1": queries[:1],
        "m<max_group": queries[:5],
        "m%max_group!=0": queries[:50],
        "duplicates": np.vstack([queries[:7], queries[:7], queries[3:10]]),
    }


def _assert_same(left, right, label: str) -> None:
    for name, a, b in zip(("ids", "distances", "evaluations"), left, right):
        assert np.array_equal(a, b), f"{label}: {name} differ"


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("metric", METRICS)
def test_contract_across_groups_and_shapes(corpus, metric, dtype, entry):
    base, queries, adjacency = corpus
    adjacency = adjacency[metric]
    engine = DistanceEngine(metric, dtype)
    exact = engine.cross(queries, base).astype(np.float64)
    for name, batch in _batch_shapes(queries).items():
        m = batch.shape[0]
        reference = _walk(entry, engine, base, adjacency, batch,
                          max_group=None)
        idx, dist, evals, _ = reference
        assert idx.shape == dist.shape == (m, K)
        assert evals.shape == (m,)
        assert np.all(evals >= SEED_SAMPLE)
        for max_group in MAX_GROUPS:
            label = f"{metric}/{dtype}/{entry}/{name}/max_group={max_group}"
            grouped = _walk(entry, engine, base, adjacency, batch,
                            max_group=max_group)
            _assert_same(reference, grouped, label)
            stats = grouped[3]
            expected_groups = -(-m // (m if max_group is None
                                       else max_group))
            assert stats.n_queries == m
            assert stats.n_groups == expected_groups, label
            assert sum(stats.group_sizes) == m
            assert stats.n_rounds >= stats.n_gemms >= expected_groups
        if name == "m%max_group!=0":
            # Returned distances are the metric of the returned ids (for the
            # compressed entries: the re-rank, not the code-domain score),
            # ascending, ties by ascending id.
            assert np.array_equal(dist, np.take_along_axis(exact, idx, 1))
            assert np.all(np.diff(dist, axis=1) >= 0)
            tied = np.diff(dist, axis=1) == 0
            assert np.all(np.diff(idx, axis=1)[tied] > 0)
            truth, _ = brute_force_neighbors(batch, base, K, engine=engine)
            recall = np.mean([len(set(idx[row]) & set(truth[row])) / K
                              for row in range(m)])
            assert recall >= RECALL_FLOOR, f"{label}: recall {recall:.3f}"


@pytest.mark.parametrize("entry", ENTRIES)
def test_workers_never_change_results(corpus, entry):
    base, queries, adjacency = corpus
    engine = DistanceEngine("sqeuclidean", "float32")
    serial = _walk(entry, engine, base, adjacency["sqeuclidean"], queries,
                   max_group=7, workers=1)
    # (clamped to one thread, with a warning, on a single-core box)
    threaded = _walk(entry, engine, base, adjacency["sqeuclidean"], queries,
                     max_group=7, workers=2)
    _assert_same(serial, threaded, f"{entry}/workers=2")


@pytest.mark.parametrize("entry", ENTRIES)
def test_duplicate_queries_get_identical_rows(corpus, entry):
    base, queries, adjacency = corpus
    engine = DistanceEngine("cosine", "float64")
    batch = np.vstack([queries[:6]] * 3)
    idx, dist, evals, _ = _walk(entry, engine, base, adjacency["cosine"],
                                batch, seed=5, max_group=7)
    for row in range(6):
        for copy in (row + 6, row + 12):
            assert np.array_equal(idx[row], idx[copy])
            assert np.array_equal(dist[row], dist[copy])
            assert evals[row] == evals[copy]


class TestSingleQueryIsABatchOfOne:
    """``search(q)`` ≡ ``search(q[None])[0]`` at every layer."""

    @pytest.mark.parametrize("quantize", ENTRIES)
    def test_graph_searcher(self, corpus, quantize):
        base, queries, _ = corpus
        graph = brute_force_knn_graph(base, 8)
        for row in (0, 7):
            one = GraphSearcher(base, graph, random_state=3,
                                quantize=quantize)
            many = GraphSearcher(base, graph, random_state=3,
                                 quantize=quantize)
            idx, dist = one.query(queries[row], K)
            b_idx, b_dist = many.batch_query(queries[row:row + 1], K)
            assert np.array_equal(idx, b_idx[0])
            assert np.array_equal(dist, b_dist[0])
            assert one.last_n_evaluations == many.last_n_evaluations
            assert one.last_serving_stats.n_queries == 1

    @pytest.mark.parametrize("quantize", ENTRIES)
    def test_index(self, corpus, quantize):
        base, queries, _ = corpus
        index = Index.build(base, IndexSpec(
            backend="bruteforce", n_neighbors=8, quantize=quantize,
            random_state=3))
        index.delete([4, 9])         # the tombstone filter is shape-blind too
        for row in (0, 7):
            idx, dist = index.search(queries[row], K)
            b_idx, b_dist = index.search(queries[row:row + 1], K)
            assert np.array_equal(idx, b_idx[0])
            assert np.array_equal(dist, b_dist[0])

    def test_sharded_index_thread_and_remote(self, corpus):
        base, queries, _ = corpus
        sharded = ShardedIndex.build(base, IndexSpec(
            backend="bruteforce", n_neighbors=8, n_shards=2,
            partitioner="gkmeans", random_state=3))
        servers = [ShardServer(shard, shard_id=s)
                   for s, shard in enumerate(sharded.shards)]
        try:
            for server in servers:
                server.start()
            sharded.endpoints = [server.endpoint for server in servers]
            for options in ({"executor": "thread"}, {"executor": "remote"},
                            {"executor": "remote", "shard_probe": 1}):
                idx, dist = sharded.search(queries[0], K, **options)
                single_evals = sharded.last_per_query_evaluations
                b_idx, b_dist = sharded.search(queries[:1], K, **options)
                assert idx.shape == (K,)
                assert np.array_equal(idx, b_idx[0]), options
                assert np.array_equal(dist, b_dist[0]), options
                assert np.array_equal(single_evals,
                                      sharded.last_per_query_evaluations)
        finally:
            for server in servers:
                server.close()
            sharded.close()


class TestConsolidationHazards:
    def test_float64_walk_keeps_float64_distances(self, corpus):
        """Seed distances must stay in the scorer's dtype: with every point
        sampled and ``n_starts`` filling the pool, the returned rows *are*
        seed entries, and a float32 round trip would show."""
        base, queries, adjacency = corpus
        engine = DistanceEngine("cosine", "float64")
        idx, dist, _, _ = frontier_batch_search(
            base, adjacency["cosine"], queries, K, pool_size=POOL,
            n_starts=POOL, seed_sample=base.shape[0], engine=engine,
            rng=np.random.default_rng(0))
        exact = engine.cross(queries, base)
        assert np.array_equal(dist, np.take_along_axis(exact, idx, 1))
        assert not np.array_equal(dist, dist.astype(np.float32))

    def test_walk_reads_a_row_list_in_place(self, corpus, monkeypatch):
        """The walk indexes whichever adjacency form it is given: inserts
        walk the row list repair mutates, so packing it per walk would cost
        O(n) per inserted vector.  One pack per ``insert_points`` — the
        commit — is the budget."""
        base, queries, adjacency = corpus
        packs = []
        original = CSRAdjacency.from_rows.__func__
        monkeypatch.setattr(
            CSRAdjacency, "from_rows",
            classmethod(lambda cls, rows: packs.append(1)
                        or original(cls, rows)))
        rows = adjacency["sqeuclidean"]
        as_list = frontier_batch_search(base, rows, queries, K,
                                        rng=np.random.default_rng(0))
        assert not packs
        as_csr = frontier_batch_search(base, original(CSRAdjacency, rows),
                                       queries, K,
                                       rng=np.random.default_rng(0))
        _assert_same(as_list, as_csr, "list vs csr")

        searcher = GraphSearcher(base, brute_force_knn_graph(base, 8),
                                 random_state=0)
        packs.clear()
        searcher.insert_points(queries[:6])
        assert len(packs) == 1

    def test_task_shape_is_pinned_to_the_protocol_version(self):
        """``ShardSearchTask`` crosses the wire pickled, so its field list
        is part of the protocol: change one, bump the other, and a
        mixed-version peer is refused by the handshake instead of failing
        inside ``pickle.loads``."""
        import dataclasses

        from repro.index.executors import ShardSearchTask
        from repro.net import PROTOCOL_VERSION

        fields = tuple(f.name for f in dataclasses.fields(ShardSearchTask))
        assert (PROTOCOL_VERSION, fields) == (
            2, ("shard", "queries", "shard_k", "pool_size", "workers",
                "seed"))
