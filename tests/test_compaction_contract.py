"""Contract of compaction: ``gkmeans`` resumes Alg. 3 from the surviving
graph instead of rebuilding from random lists.

``Index.compact`` hands the construction backend the graph that survived
its deletes.  ``gkmeans`` renumbers the live rows' lists, draws every entry
that named a tombstone by the random starting graph's rule, computes the
whole table's distances in one blocked pass and runs
``resumed_tau(τ, s)`` rounds, ``s`` being the tombstone share.  This suite
holds that path to:

(a) a recall floor — graph recall@κ against the exact graph is at least a
    from-scratch ``Index.build`` of the same live rows minus ``EPSILON``,
    at tombstone shares from 3% to 50% and after an insert-heavy history;
(b) a valid warm starting graph: κ distinct ids a row, never the row
    itself, every surviving entry kept, ascending exact distances;
(c) exact answers — an exhaustive-pool ``gkmeans`` index still matches the
    rebuild oracle of ``test_mutations`` after insert, delete and compact,
    mono and sharded;
(d) persistence — compacting a saved-and-loaded index gives bitwise what
    compacting in memory gives, with or without stored graph distances;
(e) exactly ``resumed_tau(τ, s)`` rounds, one when ``tau=1``;

and to a memory guard: compaction's peak traced allocation stays at an
``Index.build``'s over the same live rows.  The other backends ignore the
surviving graph and rebuild exactly as ``Index.build`` does.
"""

import tracemalloc

import numpy as np
import pytest

import repro.cluster.gkmeans as gkmeans_module
import repro.graph.construction as construction
from repro.datasets import make_sift_like, train_query_split
from repro.distance import DistanceEngine
from repro.graph import KNNGraph, brute_force_knn_graph, graph_recall
from repro.graph.construction import resumed_tau
from repro.graph.random_graph import fill_random_neighbors, surviving_lists
from repro.index import Index, IndexSpec

from test_mutations import (_assert_rows_match_up_to_ties, _exhaustive_spec,
                            _rebuild_oracle)

#: How far below a from-scratch build's recall a compacted graph may read.
EPSILON = 0.01

#: (metric, dtype) of the recall-floor corpora.
FLOOR_CONFIGS = [("sqeuclidean", "float64"), ("cosine", "float32")]

#: Tombstone shares the recall floor is checked at.
SHARES = [0.03, 0.05, 0.10, 0.30, 0.50]

N_BASE, N_FEATURES, KAPPA, TAU = 4000, 24, 20, 6


def _spec(metric, dtype, **overrides):
    return IndexSpec(backend="gkmeans", n_neighbors=KAPPA, metric=metric,
                     dtype=dtype, random_state=7,
                     params={"tau": TAU, "cluster_size": 50}, **overrides)


def _fresh(index):
    """An independent copy of ``index`` (same rows, graph and tombstones)."""
    return Index(index.data, KNNGraph(index.graph.indices.copy(),
                                      index.graph.distances,
                                      metric=index.graph.metric),
                 index.spec, ids=index.ids, tombstones=~index.live_mask,
                 seed_labels=index.seed_labels)


@pytest.fixture(scope="module", params=FLOOR_CONFIGS,
                ids=["-".join(config) for config in FLOOR_CONFIGS])
def floor_corpus(request):
    """A built index over 4000 × 24 generator rows, plus 1000 rows held
    back for the insert-heavy history."""
    metric, dtype = request.param
    data = make_sift_like(N_BASE + N_BASE // 4, N_FEATURES, random_state=7)
    data = data.astype(dtype)
    spec = _spec(metric, dtype)
    return Index.build(data[:N_BASE], spec), data[N_BASE:], spec


def _floor_margin(index, spec):
    """Compact ``index``; its graph recall minus a from-scratch build's."""
    live = np.ascontiguousarray(index.data[index.live_mask])
    truth = brute_force_knn_graph(live, KAPPA, metric=spec.metric,
                                  dtype=spec.dtype)
    scratch = graph_recall(Index.build(live, spec).graph, truth)
    index.compact()
    return graph_recall(index.graph, truth) - scratch


class TestRecallFloor:
    @pytest.mark.parametrize("share", SHARES)
    def test_warm_graph_keeps_scratch_recall(self, floor_corpus, share):
        pristine, _, spec = floor_corpus
        index = _fresh(pristine)
        rng = np.random.default_rng(int(share * 100))
        index.delete(rng.choice(N_BASE, int(round(share * N_BASE)),
                                replace=False))
        margin = _floor_margin(index, spec)
        assert margin >= -EPSILON, (
            f"{share:.0%} share: warm recall {margin:+.4f} from scratch")

    def test_insert_heavy_history(self, floor_corpus):
        """25% of the rows inserted, then 3% of all rows deleted: the
        inserted rows' lists come from local repair, not from Alg. 3."""
        pristine, extra, spec = floor_corpus
        index = _fresh(pristine)
        for start in range(0, extra.shape[0], 100):
            index.insert(extra[start:start + 100])
        rng = np.random.default_rng(3)
        index.delete(rng.choice(index.n_rows,
                                int(round(0.03 * index.n_rows)),
                                replace=False))
        margin = _floor_margin(index, spec)
        assert margin >= -EPSILON, f"warm recall {margin:+.4f} from scratch"


@pytest.mark.parametrize("metric,dtype", FLOOR_CONFIGS)
def test_warm_start_graph_is_valid(monkeypatch, metric, dtype):
    data = make_sift_like(600, 12, random_state=4).astype(dtype)
    spec = IndexSpec(backend="gkmeans", n_neighbors=10, metric=metric,
                     dtype=dtype, random_state=4,
                     params={"tau": 3, "cluster_size": 30})
    index = Index.build(data, spec)
    index.insert(make_sift_like(40, 12, random_state=5).astype(dtype))
    index.delete(np.random.default_rng(4).choice(index.n_rows, 60,
                                                 replace=False))
    live = index.live_mask
    live_rows = index.data[live]
    survivors = surviving_lists(index.graph.indices, live, 10)
    captured = []

    def capture(*args):
        table = materialize(*args)
        # The rounds refine the table in place: keep the starting state.
        captured.append(tuple(array.copy() for array in table))
        return table

    materialize = construction.materialize_row_distances
    monkeypatch.setattr(construction, "materialize_row_distances", capture)
    index.compact()
    (ids, dists), = captured

    n = int(live.sum())
    assert ids.shape == dists.shape == (n, 10)
    assert np.all((ids >= 0) & (ids < n))
    assert not np.any(ids == np.arange(n)[:, None])
    ranked = np.sort(ids, axis=1)
    assert np.all(ranked[:, 1:] != ranked[:, :-1])
    assert np.all(np.diff(dists, axis=1) >= 0)
    # Only the holes were drawn: every surviving entry is still listed.
    kept = survivors >= 0
    rows = np.nonzero(kept)[0]
    assert np.all((ids[rows] == survivors[kept][:, None]).any(axis=1))
    # Distances are exact, in the construction's (clustering) space.
    outer = DistanceEngine(metric, dtype)
    points = outer.prepare_clustering(live_rows).astype(np.float64)
    exact = ((points[:, None, :] - points[ids]) ** 2).sum(axis=2)
    tolerance = 1e-9 if dtype == "float64" else 1e-5
    np.testing.assert_allclose(dists, exact, rtol=tolerance, atol=tolerance)


@pytest.mark.parametrize("n_neighbors", [2, 5, 7])
def test_fill_draws_free_ids_only(n_neighbors):
    """Both draw regimes (redraw, and a shuffle once κ is most of a row)
    leave every kept entry in place and fill each hole with a free id."""
    n = 9
    rng = np.random.default_rng(n_neighbors)
    table = np.array([rng.permutation(np.delete(np.arange(n), row))
                      [:n_neighbors] for row in range(n)])
    holed = table.copy()
    holed[rng.random(table.shape) < 0.4] = -1
    filled = fill_random_neighbors(holed, random_state=0)
    kept = holed >= 0
    assert np.array_equal(filled[kept], holed[kept])
    assert np.all((filled >= 0) & (filled != np.arange(n)[:, None]))
    ranked = np.sort(filled, axis=1)
    assert np.all(ranked[:, 1:] != ranked[:, :-1])
    assert np.array_equal(fill_random_neighbors(holed, random_state=0),
                          filled)


def test_lists_fit_a_changed_width():
    """A compaction below κ + 1 live rows narrows the lists; a later one
    over more rows widens them again with holes."""
    indices = np.array([[1, 2, 3], [0, 2, 3], [3, 0, 1], [2, 1, 0]])
    live = np.array([True, False, True, True])
    assert surviving_lists(indices, live, 2).tolist() == [[1, 2], [2, 0],
                                                          [1, 0]]
    assert surviving_lists(indices, live, 4).tolist() == [
        [1, 2, -1, -1], [2, 0, -1, -1], [1, 0, -1, -1]]
    data = make_sift_like(12, 4, random_state=1)
    index = Index.build(data, IndexSpec(backend="gkmeans", n_neighbors=8,
                                        random_state=1,
                                        params={"tau": 2}))
    index.delete(np.arange(4))
    index.compact()
    assert index.graph.n_neighbors == 7
    index.insert(make_sift_like(6, 4, random_state=2))
    index.delete([4])
    index.compact()
    assert index.graph.n_neighbors == 8
    index.graph.validate()


@pytest.fixture(scope="module")
def corpus():
    """``test_mutations``' corpus: 276 base rows, 13 to insert, 24 queries
    from the same draw."""
    data = make_sift_like(300, 10, random_state=21)
    base, queries = train_query_split(data, 24, random_state=21)
    extra = make_sift_like(40, 10, random_state=22)[:13]
    return base, extra, queries


DELETED = [3, 57, 260, 199, 280]


def _exhaustive_gkmeans(n_base, metric, dtype):
    return _exhaustive_spec(n_base, metric, dtype).replace(
        backend="gkmeans", params={"tau": 3, "cluster_size": 20})


class TestExhaustiveOracle:
    """Compacted exhaustive searches == the rebuild oracle."""

    @pytest.mark.parametrize("n_shards", [1, 3])
    @pytest.mark.parametrize("metric,dtype", [
        ("sqeuclidean", "float64"), ("sqeuclidean", "float32"),
        ("cosine", "float64"), ("cosine", "float32")])
    def test_compacted_index_matches_rebuild(self, corpus, metric, dtype,
                                             n_shards):
        base, extra, queries = corpus
        spec = _exhaustive_gkmeans(base.shape[0], metric, dtype)
        if n_shards > 1:
            index = Index.build(base, spec.replace(n_shards=n_shards))
        else:
            index = Index.build(base, spec)
        index.insert(extra)
        index.delete(DELETED)
        assert index.compact() == len(DELETED)
        assert index.n_tombstones == 0

        full = np.vstack([base, extra])
        live_ids = np.setdiff1d(np.arange(full.shape[0]), DELETED)
        o_idx, o_dist = _rebuild_oracle(full, live_ids, metric, dtype)(
            queries, 10)
        c_idx, c_dist = index.search(queries, 10)
        _assert_rows_match_up_to_ties(
            c_idx, c_dist, o_idx, o_dist,
            rtol=1e-9 if dtype == "float64" else 1e-5,
            label=f"{n_shards} shard(s)/{metric}/{dtype}")
        index.close()


class TestPersistence:
    @staticmethod
    def _assert_same_index(a, b, queries):
        assert a.graph.indices.tobytes() == b.graph.indices.tobytes()
        assert a.graph.distances.tobytes() == b.graph.distances.tobytes()
        assert a.seed_labels.tobytes() == b.seed_labels.tobytes()
        assert a.ids.tobytes() == b.ids.tobytes()
        a_idx, a_dist = a.search(queries, 8)
        b_idx, b_dist = b.search(queries, 8)
        assert a_idx.tobytes() == b_idx.tobytes()
        assert a_dist.tobytes() == b_dist.tobytes()

    @pytest.mark.parametrize("metric,dtype", FLOOR_CONFIGS)
    def test_compact_after_load_is_bitwise(self, corpus, tmp_path, metric,
                                           dtype):
        base, extra, queries = corpus
        index = Index.build(base, _exhaustive_gkmeans(base.shape[0], metric,
                                                      dtype))
        index.insert(extra)
        index.delete(DELETED)
        index.save(tmp_path / "mutated.idx")
        restored = Index.load(tmp_path / "mutated.idx")
        index.compact()
        restored.compact()
        self._assert_same_index(index, restored, queries)

    def test_file_without_graph_distances(self, corpus, tmp_path):
        """The warm start reads the surviving ids only, so a graph stored
        without distances compacts to the same index."""
        base, _, queries = corpus
        built = Index.build(base, _exhaustive_gkmeans(
            base.shape[0], "sqeuclidean", "float64"))
        index = Index(built.data, KNNGraph(built.graph.indices),
                      built.spec, seed_labels=built.seed_labels)
        index.delete(DELETED[:4])
        index.save(tmp_path / "bare.idx")
        restored = Index.load(tmp_path / "bare.idx")
        assert restored.graph.distances is None
        built.delete(DELETED[:4])
        for each in (index, restored, built):
            each.compact()
        self._assert_same_index(index, restored, queries)
        self._assert_same_index(index, built, queries)


class TestRounds:
    @staticmethod
    def _count_rounds(monkeypatch):
        calls = []
        boost = gkmeans_module.graph_guided_boost_pass

        def counted(*args, **kwargs):
            calls.append(1)
            return boost(*args, **kwargs)

        monkeypatch.setattr(gkmeans_module, "graph_guided_boost_pass",
                            counted)
        return calls

    def test_round_rule(self):
        # mutate_mix's share: 128 of 4128 rows.
        assert resumed_tau(6, 128 / 4128) == 2
        assert resumed_tau(6, 0.05) == 3
        assert resumed_tau(6, 0.10) == 4
        assert resumed_tau(6, 0.25) == 6
        assert resumed_tau(10, 0.5) == 10
        assert resumed_tau(1, 0.01) == 1

    @pytest.mark.parametrize("tau,n_deleted", [(6, 9), (6, 30), (6, 90),
                                               (1, 9), (1, 150)])
    def test_compaction_runs_resumed_rounds(self, corpus, monkeypatch, tau,
                                            n_deleted):
        base, _, _ = corpus
        spec = IndexSpec(backend="gkmeans", n_neighbors=8, random_state=2,
                         params={"tau": tau, "cluster_size": 20})
        index = Index.build(base, spec)
        index.delete(np.arange(n_deleted))
        calls = self._count_rounds(monkeypatch)
        index.compact()
        share = n_deleted / base.shape[0]
        assert len(calls) == resumed_tau(tau, share) >= 1
        calls.clear()
        Index.build(base, spec)
        assert len(calls) == tau


@pytest.mark.parametrize("backend", ["bruteforce", "random", "nndescent"])
def test_other_backends_rebuild_from_scratch(corpus, backend):
    """Compaction of a backend without a warm start is ``Index.build`` over
    the live rows, bit for bit."""
    base, extra, _ = corpus
    spec = IndexSpec(backend=backend, n_neighbors=8, random_state=6)
    index = Index.build(base, spec)
    index.insert(extra)
    index.delete(DELETED)
    live = np.ascontiguousarray(index.data[index.live_mask])
    index.compact()
    scratch = Index.build(live, spec).graph
    assert index.graph.indices.tobytes() == scratch.indices.tobytes()
    assert index.graph.distances.tobytes() == scratch.distances.tobytes()


def _traced_peak(call) -> int:
    """Peak bytes ``call()`` allocates beyond what was live before it."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("share", [0.03, 0.30])
def test_compaction_peak_stays_at_a_build(share):
    """The fill and the distance pass are blocked: compaction allocates no
    more than building the same live rows from the index's data.  Both
    peaks fall in the searcher's construction; 1% covers the few Python
    objects (the live mask among them) compaction holds beside it.  An
    unblocked ``(n, κ·κ, d)`` candidate gather would be hundreds of MB."""
    data = make_sift_like(3000, 24, random_state=8)
    spec = _spec("sqeuclidean", "float64")
    index = Index.build(data, spec)
    index.delete(np.random.default_rng(8).choice(3000, int(share * 3000),
                                                 replace=False))
    other = _fresh(index)
    build_peak = _traced_peak(
        lambda: Index.build(other.data[other.live_mask], spec))
    compact_peak = _traced_peak(index.compact)
    assert compact_peak <= 1.01 * build_peak, (compact_peak, build_peak)
