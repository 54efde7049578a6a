"""Contract suite for the one graph walk.

Every search runs the beam walk of :mod:`repro.search._walk` behind one of
two entries — exact (``frontier_batch_search``) or compressed-domain
(``quantized_batch_search`` under int8 codes).  The walk promises
no step-for-step trajectory; what it does promise, and what this suite
sweeps over metric × dtype × entry × ``max_group`` × batch shape (single
query, batch smaller than a group, batch not divisible by the group bound,
duplicated queries), is:

* recall@k against brute force stays above a floor;
* ``max_group`` and ``workers`` never change ids, distances or evaluation
  counts — bitwise;
* every query is charged at least its seeding (the partition's centroids
  and one member);
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
from _insert_oracle import to_rows

from repro.datasets import make_sift_like, train_query_split
from repro.distance import METRICS, DistanceEngine
from repro.distance.quantized import QuantizedScorer, ScalarQuantizer
from repro.graph import brute_force_knn_graph
from repro.graph.bruteforce import brute_force_neighbors
from repro.graph.csr import CSRAdjacency
from repro.index import Index, IndexSpec
from repro.net import ShardServer
from repro.search import GraphSearcher, frontier_batch_search
from repro.search._seeding import SeedPartition, default_seed_labels
from repro.search.quantized import quantized_batch_search

DTYPES = ("float64", "float32")
#: Walk entries: the identity scorer and the int8 code family.
ENTRIES = ("none", "int8")

#: Group bounds exercised: degenerate (1), ragged (3), default (32) and
#: whole-batch merging (None).
MAX_GROUPS = (1, 3, 32, None)

K = 5
POOL = 24
#: Measured 0.996–1.0 on this fixture for every metric × entry.
RECALL_FLOOR = 0.95


@pytest.fixture(scope="module", params=[11, 29])
def corpus(request):
    """Base data, queries and one exact symmetrised graph per metric, as
    a row list (the tests pack it themselves where they want a CSR)."""
    data = make_sift_like(650, 16, random_state=request.param)
    base, queries = train_query_split(data, 50, random_state=request.param)
    adjacency = {metric: to_rows(brute_force_knn_graph(base, 8, metric=metric)
                                 .adjacency()) for metric in METRICS}
    return base, queries, adjacency


def _partition(base, engine: DistanceEngine) -> SeedPartition:
    return SeedPartition(engine.prepare(base), default_seed_labels(
        base, engine.metric, "float64", 0), engine.metric, engine.dtype)


def _walk(entry: str, engine: DistanceEngine, base, adjacency, batch,
          **options):
    """One search through ``entry`` with the suite's fixed walk settings."""
    options = dict(pool_size=POOL, engine=engine,
                   partition=_partition(base, engine), **options)
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
        assert np.all(evals > _partition(base, engine).clusters.size)
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
                                batch, max_group=7)
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
            single = one.query(queries[row], K)
            batch = many.batch_query(queries[row:row + 1], K)
            idx, dist = single
            b_idx, b_dist = batch
            assert np.array_equal(idx, b_idx[0])
            assert np.array_equal(dist, b_dist[0])
            assert np.array_equal(single.evaluations, batch.evaluations)
            assert single.stats.n_queries == 1

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
        sharded = Index.build(base, IndexSpec(
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
                single = sharded.search(queries[0], K, **options)
                batch = sharded.search(queries[:1], K, **options)
                idx, dist = single
                b_idx, b_dist = batch
                assert idx.shape == (K,)
                assert np.array_equal(idx, b_idx[0]), options
                assert np.array_equal(dist, b_dist[0]), options
                assert np.array_equal(single.evaluations, batch.evaluations)
        finally:
            for server in servers:
                server.close()
            sharded.close()


class TestConsolidationHazards:
    def test_float64_walk_keeps_float64_distances(self, corpus):
        """Seed distances must stay in the scorer's dtype: with one cluster
        and ``n_starts`` filling the pool, the returned rows *are* seed
        entries, and a float32 round trip would show."""
        base, queries, adjacency = corpus
        engine = DistanceEngine("cosine", "float64")
        one_cluster = SeedPartition(base, np.zeros(len(base), np.int64),
                                    "cosine", "float64")
        idx, dist, _, _ = frontier_batch_search(
            base, adjacency["cosine"], queries, K, pool_size=POOL,
            n_starts=POOL, partition=one_cluster, engine=engine)
        exact = engine.cross(queries, base)
        assert np.array_equal(dist, np.take_along_axis(exact, idx, 1))
        assert not np.array_equal(dist, dist.astype(np.float32))

    def test_walk_reads_a_row_list_in_place(self, corpus, monkeypatch):
        """The walk indexes whichever adjacency form it is given and never
        repacks a row list.  An insert walks the committed CSR and splices
        its touched rows in, so at most one pack per ``insert_points`` is
        the budget."""
        base, queries, adjacency = corpus
        packs = []
        original = CSRAdjacency.from_rows.__func__
        monkeypatch.setattr(
            CSRAdjacency, "from_rows",
            classmethod(lambda cls, rows: packs.append(1)
                        or original(cls, rows)))
        rows = adjacency["sqeuclidean"]
        as_list = frontier_batch_search(base, rows, queries, K)
        assert not packs
        as_csr = frontier_batch_search(base, original(CSRAdjacency, rows),
                                       queries, K)
        _assert_same(as_list, as_csr, "list vs csr")

        searcher = GraphSearcher(base, brute_force_knn_graph(base, 8),
                                 random_state=0)
        packs.clear()
        searcher.insert_points(queries[:6])
        assert len(packs) <= 1

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
            5, ("shard", "queries", "shard_k", "pool_size", "workers",
                "bounds"))


# --------------------------------------------------------------------- #
# The per-query loop the group-wide walk replaced, kept as its oracle
# --------------------------------------------------------------------- #
import copy                                                   # noqa: E402
from unittest import mock                                     # noqa: E402

from hypothesis import given, settings                        # noqa: E402
from hypothesis import strategies as st                       # noqa: E402
from hypothesis.extra import numpy as hnp                     # noqa: E402

from repro.distance import kernels as kernels_module          # noqa: E402
from repro.distance.kernels import stable_smallest            # noqa: E402
from repro.search import _walk as walk_module                 # noqa: E402
from repro.search import frontier, greedy, quantized          # noqa: E402
from repro.search._walk import BEAM, beam_walk                # noqa: E402


def reference_beam_walk(adjacency, seeds, n_results, score, rerank, *,
                        pool_size, max_group, bounds=None):
    """The walk as it stood before the group-wide rewrite: per-query flat
    candidate / pool arrays, one Python trip per query per round, started
    from the seeds it is given.  ``bounds`` caps each query's threshold:
    it starts at ``min(inf, bound)`` and is re-capped after every overflow
    (compared in float64, never rounded to the pool's dtype).  Returns
    ``(indices, distances, evaluations, group_rounds, group_gemms)``."""
    n = len(adjacency)
    m = seeds.ids.shape[0]
    pool_size = max(pool_size, n_results)
    max_group = max(1, m if max_group is None else int(max_group))
    out_idx = np.full((m, n_results), -1, dtype=np.int64)
    out_dist = np.full((m, n_results), np.inf, dtype=np.float64)
    evaluations = seeds.evaluations.astype(np.int64)
    groups = [np.arange(start, min(start + max_group, m))
              for start in range(0, m, max_group)]

    def walk_group(rows):
        size = rows.size
        visited = np.zeros((size, n), dtype=bool)
        cand_ids = [None] * size
        cand_dists = [None] * size
        pool_ids = [None] * size
        pool_dists = [None] * size
        worst = [np.inf] * size
        cap = [np.float64(np.inf if bounds is None else bounds[row])
               for row in rows]
        for local, row in enumerate(rows):
            entered = seeds.ids[row] >= 0
            ids, dists = seeds.ids[row, entered], seeds.dists[row, entered]
            visited[local, ids] = True
            cand_ids[local], cand_dists[local] = ids, dists
            if ids.size > pool_size:
                best = np.argpartition(dists, pool_size - 1)[:pool_size]
                ids, dists = ids[best], dists[best]
            pool_ids[local], pool_dists[local] = ids, dists
            if ids.size >= pool_size:
                worst[local] = float(dists.max())
            worst[local] = min(worst[local], cap[local])

        live = list(range(size))
        rounds = 0
        gemms = 0
        while live:
            rounds += 1
            frontiers = {}
            for local in live:
                cids, cdists = cand_ids[local], cand_dists[local]
                w = worst[local]
                if w != np.inf and cids.size:
                    improving = cdists < w
                    if not improving.all():
                        cids, cdists = cids[improving], cdists[improving]
                if not cids.size:
                    continue
                order = np.argsort(cdists, kind="stable")
                cids, cdists = cids[order], cdists[order]
                seen = visited[local]
                parts = []
                consumed = 0
                while consumed < cids.size and len(parts) < BEAM:
                    neighbors = adjacency[int(cids[consumed])]
                    consumed += 1
                    unvisited = neighbors[~seen[neighbors]]
                    if unvisited.size:
                        seen[unvisited] = True
                        parts.append(unvisited)
                cand_ids[local] = cids[consumed:]
                cand_dists[local] = cdists[consumed:]
                if parts:
                    frontiers[local] = np.concatenate(parts, dtype=np.int64)
            live = list(frontiers)
            if not live:
                break
            gemms += 1

            union = np.unique(np.concatenate(list(frontiers.values())))
            block = score(rows[live], union)

            for block_row, local in enumerate(live):
                frontier_ids = frontiers[local]
                dists = block[block_row,
                              np.searchsorted(union, frontier_ids)]
                evaluations[rows[local]] += frontier_ids.size
                pids = np.concatenate([pool_ids[local], frontier_ids])
                pdists = np.concatenate([pool_dists[local], dists])
                if pids.size > pool_size:
                    best = np.argpartition(pdists, pool_size - 1)[:pool_size]
                    pids, pdists = pids[best], pdists[best]
                    worst[local] = w = min(float(pdists.max()),
                                           cap[local])
                    grow = dists < w
                    frontier_ids, dists = frontier_ids[grow], dists[grow]
                pool_ids[local], pool_dists[local] = pids, pdists
                cand_ids[local] = np.concatenate([cand_ids[local],
                                                  frontier_ids])
                cand_dists[local] = np.concatenate([cand_dists[local], dists])

        if rerank is not None:
            union = np.unique(np.concatenate(pool_ids))
            exact = rerank(rows, union)
        for local, row in enumerate(rows):
            ids, dists = pool_ids[local], pool_dists[local]
            if rerank is not None:
                dists = exact[local, np.searchsorted(union, ids)]
                evaluations[row] += ids.size
            order = np.lexsort((ids, dists))[:n_results]
            out_idx[row, :order.size] = ids[order]
            out_dist[row, :order.size] = dists[order]
        return rounds, gemms

    walked = [walk_group(rows) for rows in groups]
    return (out_idx, out_dist, evaluations,
            tuple(rounds for rounds, _ in walked),
            tuple(gemms for _, gemms in walked))


class _Checked(list):
    """The ``replayed`` record: one ``(n_queries, n_results)`` per walk."""

    def __init__(self) -> None:
        super().__init__()
        self.seeds = []


@pytest.fixture
def replayed(monkeypatch):
    """Route every walk (both entries and the insert seeding) through a
    wrapper that replays it on :func:`reference_beam_walk` (same adjacency
    object, same scorers, same seeds; the caller's walk scratch goes to
    ``beam_walk`` only) and asserts the two agree bitwise on
    ids, distances, per-query evaluations, group rounds and group gemms.
    Yields the list of ``(n_queries, n_results)`` walks checked, so a test
    can assert the path it meant to exercise was taken; its ``seeds``
    attribute holds each walk's entry points, aligned."""
    checked = _Checked()

    def checking_walk(adjacency, seeds, n_results, score, rerank, *,
                      workers, executor, scratch=None, **options):
        twin = copy.deepcopy(seeds)
        result = beam_walk(adjacency, seeds, n_results, score, rerank,
                           workers=workers, executor=executor,
                           scratch=scratch, **options)
        expected = reference_beam_walk(adjacency, twin, n_results, score,
                                       rerank, **options)
        m = seeds.ids.shape[0]
        label = f"m={m} k={n_results} {options}"
        _assert_same(expected[:3], result[:3], label)
        assert result[3].group_rounds == expected[3], label
        assert result[3].group_gemms == expected[4], label
        checked.append((m, n_results))
        checked.seeds.append(twin)
        return result

    for module in (frontier, quantized, greedy):
        monkeypatch.setattr(module, "beam_walk", checking_walk)
    return checked


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("metric", METRICS)
def test_walk_equals_the_loop_it_replaced(corpus, replayed, metric, dtype,
                                          entry):
    _sweep(corpus, metric, dtype, entry)
    assert len(replayed) == 2 * 4 * len(MAX_GROUPS)


def _sweep(corpus, metric: str, dtype: str, entry: str, bounds_of=None
           ) -> list:
    """Every layout × batch shape × ``max_group`` walk of the sweep; returns
    ``(batch, result)`` pairs.  ``bounds_of(base, batch, engine)`` gives a
    batch its walk bounds."""
    base, queries, adjacency = corpus
    rows = adjacency[metric]
    engine = DistanceEngine(metric, dtype)
    walked = []
    for layout in (rows, CSRAdjacency.from_rows(rows)):
        for batch in _batch_shapes(queries).values():
            bounds = None if bounds_of is None else bounds_of(base, batch,
                                                              engine)
            for max_group in MAX_GROUPS:
                walked.append((batch, _walk(entry, engine, base, layout,
                                            batch, max_group=max_group,
                                            bounds=bounds)))
    return walked


def _sorted_exact(base, batch, engine) -> np.ndarray:
    return np.sort(engine.cross(batch, base).astype(np.float64), axis=1)


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("metric", METRICS)
def test_capped_walk_equals_the_capped_loop(corpus, replayed, metric, dtype,
                                            entry):
    """The sweep once more under random finite bounds: each query's cap is
    one of its 4k nearest distances, nudged off the float32 grid so the
    walk's cast to the pool dtype must round it the loop's way."""
    rng = np.random.default_rng(4)

    def random_bounds(base, batch, engine):
        exact = _sorted_exact(base, batch, engine)
        m = batch.shape[0]
        picked = exact[np.arange(m), rng.integers(0, 4 * K, m)]
        return picked * (1.0 + rng.uniform(-1e-7, 1e-7, m))

    _sweep(corpus, metric, dtype, entry, random_bounds)
    assert len(replayed) == 2 * 4 * len(MAX_GROUPS)


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("metric", METRICS)
def test_walk_capped_below_every_seed_returns_the_seeds(
        corpus, replayed, metric, dtype, entry):
    """A bound below every seed leaves no candidate: the walk ends after
    seeding with zero gemms, charges nothing but seeding (and, compressed,
    the re-rank of its seeds) and returns the seeds."""

    def below_seeds(base, batch, engine):
        exact = _sorted_exact(base, batch, engine)
        lowest = exact.min() - np.abs(exact).max() - 1.0
        return np.full(batch.shape[0], lowest)

    walked = _sweep(corpus, metric, dtype, entry, below_seeds)
    assert len(replayed.seeds) == len(walked)
    for (batch, (idx, _, evals, stats)), seeds in zip(walked, replayed.seeds):
        assert stats.n_gemms == 0
        assert stats.group_rounds == (1,) * stats.n_groups
        entered = seeds.ids >= 0
        rerank = 0 if entry == "none" else entered.sum(axis=1)
        assert np.array_equal(evals, seeds.evaluations + rerank)
        for row in range(batch.shape[0]):
            assert set(idx[row][idx[row] >= 0]) == \
                set(seeds.ids[row][entered[row]])


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("metric", METRICS)
def test_infinite_bounds_are_no_bounds(corpus, metric, dtype, entry):
    """``bounds = full(m, inf)`` is bitwise ``bounds=None``: ids,
    distances, evaluations and per-group rounds and gemms."""
    base, queries, adjacency = corpus
    engine = DistanceEngine(metric, dtype)
    for name, batch in _batch_shapes(queries).items():
        for max_group in MAX_GROUPS:
            label = f"{metric}/{dtype}/{entry}/{name}/max_group={max_group}"
            free = _walk(entry, engine, base, adjacency[metric], batch,
                         max_group=max_group)
            capped = _walk(entry, engine, base, adjacency[metric], batch,
                           max_group=max_group,
                           bounds=np.full(batch.shape[0], np.inf))
            _assert_same(free, capped, label)
            assert capped[3].group_rounds == free[3].group_rounds, label
            assert capped[3].group_gemms == free[3].group_gemms, label


class TestShapesTheSweepLacks:
    """Walk shapes outside the sweep above, each checked against the
    reference loop through the ``replayed`` wrapper."""

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("options", [
        dict(pool_size=6, n_starts=10),           # n_starts > pool_size
        dict(pool_size=6, n_starts=6),            # seeds exactly fill it
        dict(pool_size=3, n_starts=2),            # pool_size < n_results
        dict(pool_size=POOL, n_starts=200),       # clusters < n_starts
        dict(pool_size=200, n_starts=3),          # pool never overflows much
    ], ids=lambda options: ",".join(f"{k}={v}" for k, v in options.items()))
    def test_pool_and_seed_corners(self, corpus, replayed, entry, options):
        base, queries, adjacency = corpus
        engine = DistanceEngine("sqeuclidean", "float64")
        for max_group in (1, 7, None):
            walk = dict(engine=engine, max_group=max_group,
                        partition=_partition(base, engine), **options)
            if entry == "none":
                frontier_batch_search(base, adjacency["sqeuclidean"],
                                      queries[:20], K, **walk)
            else:
                scorer = QuantizedScorer(engine, ScalarQuantizer(entry),
                                         engine.prepare(base))
                quantized_batch_search(base, adjacency["sqeuclidean"],
                                       queries[:20], K, scorer, **walk)
        assert len(replayed) == 3

    @pytest.mark.parametrize("chunk", [1, 3, 8, 64])
    def test_speculative_chunk_width_never_shows(self, corpus, replayed,
                                                 monkeypatch, chunk):
        """A row whose ``BEAM``-th productive pop lies beyond one chunk pops
        again, and pops past it are put back: every width walks the same
        walk, down to one pop per pass and up to a width (64 >= ``POOL``)
        that pops the whole pool in one pass."""
        monkeypatch.setattr(walk_module, "CHUNK", chunk)
        base, queries, adjacency = corpus
        engine = DistanceEngine("cosine", "float32")
        rows = adjacency["cosine"]
        for layout in (rows, CSRAdjacency.from_rows(rows)):
            for entry in ("none", "int8"):
                for max_group in (1, 7, None):
                    _walk(entry, engine, base, layout, queries[:30],
                          max_group=max_group)
        assert len(replayed) == 12

    def test_isolated_node_and_two_components(self, replayed):
        """An empty adjacency row is popped like any other and yields
        nothing; a component smaller than ``n_results`` pads its rows.
        One cluster holds every row, so each query enters at its nearest
        point."""
        rng = np.random.default_rng(5)
        big = rng.normal(size=(60, 6))
        small = rng.normal(size=(3, 6)) + 50.0
        base = np.vstack([big, small])
        rows = to_rows(brute_force_knn_graph(big, 5).adjacency())
        rows += [np.array([61, 62]), np.array([60, 62]), np.array([60, 61])]
        isolated = 17
        rows = [row[row != isolated] for row in rows]
        rows[isolated] = np.empty(0, dtype=np.int64)
        batch = np.vstack([small + 0.01, big[:5] + 0.01, big[isolated]])
        for layout in (rows, CSRAdjacency.from_rows(rows)):
            for max_group in (1, 4, None):
                idx, dist, _, _ = frontier_batch_search(
                    base, layout, batch, K, pool_size=8, n_starts=1,
                    max_group=max_group, partition=SeedPartition(
                        base, np.zeros(len(base), np.int64), "sqeuclidean",
                        "float64"))
                # The three queries beside the small component reach its
                # three nodes and nothing else.
                assert np.all(np.sort(idx[:3, :3], axis=1) == [60, 61, 62])
                assert np.all(idx[:3, 3:] == -1)
                assert np.all(np.isinf(dist[:3, 3:]))
                # The isolated node is its own query's only result.
                assert idx[-1].tolist() == [isolated, -1, -1, -1, -1]
        assert len(replayed) == 6

    @pytest.mark.parametrize("quantize", ENTRIES)
    def test_ragged_graph_after_insert_points(self, corpus, replayed,
                                              quantize):
        """Insert seeding is one walk of the whole batch over the pre-insert
        CSR; the committed CSR has ragged rows.  Both are replayed."""
        base, queries, _ = corpus
        searcher = GraphSearcher(base, brute_force_knn_graph(base, 8),
                                 random_state=2, quantize=quantize)
        searcher.insert_points(queries[:8])
        assert replayed == [(8, searcher.pool_size)]           # one walk
        degrees = np.diff(searcher._adjacency.indptr)
        assert degrees.min() < degrees.max()
        searcher.batch_query(queries[8:40], K)
        searcher.query(queries[41], K)
        assert replayed[1:] == [(32, K), (1, K)]

    @pytest.mark.parametrize("quantize", ENTRIES)
    def test_tombstone_widened_results(self, corpus, replayed, quantize):
        """Past ``pool - k`` tombstones a search walks at its pool, and a
        row that pool left short walks again with ``n_results`` (and with
        it the pool) widened by the tombstone count."""
        base, queries, _ = corpus
        index = Index.build(base, IndexSpec(
            backend="bruteforce", n_neighbors=8, quantize=quantize,
            pool_size=8, random_state=3))
        deleted = np.arange(0, 60, 3)
        index.delete(deleted)
        index.search(queries[:20], K)
        index.search(queries[21], K)
        assert replayed == [(20, 8), (1, 8)]
        live = np.setdiff1d(np.arange(base.shape[0]), deleted)
        squared = ((base[live] - queries[22]) ** 2).sum(axis=1)
        index.delete(live[np.argsort(squared, kind="stable")[:8]])
        index.search(queries[22], K)
        assert replayed[2:] == [(1, 8), (1, K + 28)]


class TestTiedDistances:
    """Integer-grid data with duplicated rows: distances tie constantly, so
    the order the old loop happened to leave is not promised — the contract
    is."""

    @pytest.fixture(scope="class")
    def grid(self):
        rng = np.random.default_rng(9)
        points = rng.integers(0, 4, size=(220, 5)).astype(np.float64)
        base = np.vstack([points, points[:80]])          # exact duplicates
        queries = rng.integers(0, 4, size=(24, 5)).astype(np.float64)
        adjacency = to_rows(brute_force_knn_graph(base, 8).adjacency())
        return base, queries, adjacency

    @pytest.mark.parametrize("entry", ENTRIES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_contract_holds_on_ties(self, grid, dtype, entry):
        base, queries, adjacency = grid
        engine = DistanceEngine("sqeuclidean", dtype)
        batch = np.vstack([queries, queries[:9]])
        exact = engine.cross(batch, base).astype(np.float64)
        for layout in (adjacency, CSRAdjacency.from_rows(adjacency)):
            reference = _walk(entry, engine, base, layout, batch,
                              max_group=None)
            idx, dist, evals, _ = reference
            for max_group, workers in ((1, 1), (3, 1), (7, 2), (32, 1)):
                _assert_same(reference,
                             _walk(entry, engine, base, layout, batch,
                                   max_group=max_group, workers=workers),
                             f"{dtype}/{entry}/max_group={max_group}")
            # Duplicate queries -> identical rows.
            assert np.array_equal(idx[:9], idx[24:])
            assert np.array_equal(dist[:9], dist[24:])
            assert np.array_equal(evals[:9], evals[24:])
            # Exact returned distances, ascending, ties by ascending id.
            assert np.array_equal(dist, np.take_along_axis(exact, idx, 1))
            assert np.all(np.diff(dist, axis=1) >= 0)
            tied = np.diff(dist, axis=1) == 0
            assert tied.any()
            assert np.all(np.diff(idx, axis=1)[tied] > 0)


# --------------------------------------------------------------------- #
# stable_smallest: the selection behind seeding, the pool merge and the
# insert join
# --------------------------------------------------------------------- #
@st.composite
def _blocks_with_duplicates(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    shape = draw(st.tuples(st.integers(1, 6), st.integers(1, 40)))
    # A small value alphabet makes boundary ties the common case.
    values = st.one_of(
        st.sampled_from([0.0, -0.0, 0.5, 1.0, 2.0, np.inf, np.nan]),
        st.floats(-4, 4, width=32))
    block = draw(hnp.arrays(dtype, shape, elements=values))
    count = draw(st.integers(1, shape[1] + 3))
    return block, count


@settings(max_examples=300, deadline=None)
@given(_blocks_with_duplicates(),
       st.sampled_from([0, kernels_module.SORT_WHOLE]))
def test_stable_smallest_equals_the_stable_argsort_prefix(case, sort_whole):
    block, count = case
    expected = np.argsort(block, axis=1, kind="stable")[:, :count]
    with mock.patch.object(kernels_module, "SORT_WHOLE", sort_whole):
        assert np.array_equal(stable_smallest(block.copy(), count), expected)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("count", [1, 8, 64, 2048, 3000])
def test_stable_smallest_on_a_seed_sized_block(dtype, count):
    """The shape seeding hands it: a wide block, a few rows with injected
    duplicates straddling the boundary, the rest tie-free."""
    rng = np.random.default_rng(count)
    block = rng.random((40, 2048)).astype(dtype)
    block[3, ::7] = block[3, 0]
    block[11] = 1.0
    block[12, 5:900] = block[12].min()
    expected = np.argsort(block, axis=1, kind="stable")[:, :count]
    assert np.array_equal(stable_smallest(block, count), expected)
