"""Contract suite for entry-point seeding from the seed partition.

Every search enters the graph at the nearest members of the query's nearest
cluster of the index's seed partition (:mod:`repro.search._seeding`).  What
that promises, over 3 metrics × float32/float64 plus the int8 entry:

* a query's seeds depend on the query alone — identical whatever batch
  surrounds it, and across ``workers``, ``max_group`` and save/load;
* row ``i`` of ``search(Q)`` equals ``search(Q[i])`` up to bitwise ties;
* each query is charged exactly its centroids, its probed members and its
  walk;
* the corners hold: one cluster, clusters smaller than ``n_starts``, and
  every cluster but one emptied by compaction (an empty cluster is never
  probed).

The corpus is SIFT-like (integer-valued), so every product is exact and
"bitwise" is a statement about the algorithm, not about BLAS blocking.
"""

import numpy as np
import pytest

from repro.datasets import make_sift_like, train_query_split
from repro.distance import DistanceEngine
from repro.graph import brute_force_knn_graph
from repro.graph.bruteforce import brute_force_neighbors
from repro.index import Index, IndexSpec
from repro.search import frontier, frontier_batch_search, greedy, quantized
from repro.search._seeding import SeedPartition, nearest_centroids
from repro.search._walk import beam_walk, exact_scorer

K = 5
ENGINES = [(metric, dtype, "none") for metric in ("sqeuclidean", "cosine",
                                                  "dot")
           for dtype in ("float64", "float32")] + [("sqeuclidean",
                                                     "float32", "int8")]


@pytest.fixture(scope="module")
def corpus():
    data = make_sift_like(700, 16, random_state=17)
    return train_query_split(data, 40, random_state=17)


@pytest.fixture
def recorded(monkeypatch):
    """Every walk's seeds, in call order (the walk itself runs as usual)."""
    calls = []

    def recording_walk(adjacency, seeds, *args, **kwargs):
        calls.append(seeds)
        return beam_walk(adjacency, seeds, *args, **kwargs)

    for module in (frontier, quantized, greedy):
        monkeypatch.setattr(module, "beam_walk", recording_walk)
    return calls


def _index(base, metric, dtype, quantize, **overrides):
    return Index.build(base, IndexSpec(
        backend="bruteforce", n_neighbors=8, metric=metric, dtype=dtype,
        quantize=quantize, random_state=3, **overrides))


def _assert_same_seeds(left, right, label):
    for name in ("ids", "dists", "evaluations", "clusters"):
        assert np.array_equal(getattr(left, name), getattr(right, name)), \
            f"{label}: seed {name} differ"


def _take(seeds, rows):
    return type(seeds)(*(field[rows] for field in seeds))


@pytest.mark.parametrize("metric,dtype,quantize", ENGINES)
def test_seeds_depend_on_the_query_alone(corpus, recorded, tmp_path, metric,
                                         dtype, quantize):
    base, queries = corpus
    index = _index(base, metric, dtype, quantize)
    index.search(queries, K)
    whole = recorded[-1]
    shuffled = np.random.default_rng(0).permutation(len(queries))
    index.search(queries[shuffled], K)
    _assert_same_seeds(_take(whole, shuffled), recorded[-1], "shuffled")
    for row in (0, 13, 39):
        index.search(queries[row], K)
        _assert_same_seeds(_take(whole, [row]), recorded[-1], f"row {row}")
    index.search(queries[5:17], K, workers=2)
    _assert_same_seeds(_take(whole, slice(5, 17)), recorded[-1], "workers")
    index.save(tmp_path / "index.idx")
    with Index.load(tmp_path / "index.idx") as restored:
        restored.search(queries, K)
    _assert_same_seeds(whole, recorded[-1], "save/load")
    searcher = index._searcher
    for max_group in (1, 7, None) if quantize == "none" else ():
        frontier_batch_search(
            searcher.data, searcher._adjacency, queries, K,
            partition=searcher._partition, engine=index.engine_,
            max_group=max_group, data_norms=searcher._data_norms)
        _assert_same_seeds(whole, recorded[-1], f"max_group={max_group}")
    index.close()


def _assert_rows_match_up_to_ties(a_idx, a_dist, b_idx, b_dist, label):
    assert np.array_equal(a_dist, b_dist), label
    for row in np.flatnonzero((a_idx != b_idx).any(axis=1)):
        for value in np.unique(a_dist[row][a_idx[row] != b_idx[row]]):
            tied = a_dist[row] == value
            assert sorted(a_idx[row][tied]) == sorted(b_idx[row][tied]), \
                f"{label} row {row}: ids differ at non-tied distances"


@pytest.mark.parametrize("metric,dtype,quantize", ENGINES)
def test_a_batch_row_is_the_single_query_search(corpus, metric, dtype,
                                                quantize):
    base, queries = corpus
    with _index(base, metric, dtype, quantize) as index:
        idx, dist = index.search(queries, K)
        evals = index.last_per_query_evaluations.copy()
        for row in range(0, len(queries), 3):
            one_idx, one_dist = index.search(queries[row], K)
            _assert_rows_match_up_to_ties(
                idx[row:row + 1], dist[row:row + 1], one_idx[None],
                one_dist[None], f"{metric}/{dtype}/{quantize} row {row}")
            assert index.last_per_query_evaluations[0] == evals[row]


@pytest.mark.parametrize("metric,dtype,quantize", ENGINES)
def test_each_query_is_charged_its_seeding_and_its_walk(corpus, recorded,
                                                        metric, dtype,
                                                        quantize):
    base, queries = corpus
    with _index(base, metric, dtype, quantize) as index:
        index.search(queries, K)
        charged = index.last_per_query_evaluations
    seeds = recorded[-1]
    partition = index._searcher._partition
    probed = np.searchsorted(partition.clusters, seeds.clusters)
    assert np.array_equal(seeds.evaluations,
                          partition.clusters.size + partition.sizes[probed])
    if quantize != "none":
        assert np.all(charged > seeds.evaluations)
        return
    # Replay the walk alone, from the same seeds with seeding charged
    # nothing: what is left of the charge is exactly the walk's.
    searcher, engine = index._searcher, index.engine_
    prepared = engine.prepare(queries)
    score = exact_scorer(engine, searcher.data, searcher._data_norms,
                         prepared, engine.norms(prepared))
    _, _, walk, _ = beam_walk(
        searcher._adjacency,
        seeds._replace(evaluations=np.zeros_like(seeds.evaluations)), K,
        score, None, pool_size=index.spec.pool_size, max_group=32,
        workers=1, executor=None)
    assert np.array_equal(charged, seeds.evaluations + walk)


class TestCorners:
    def test_one_cluster_seeds_from_the_nearest_points(self, corpus,
                                                       recorded):
        base, queries = corpus
        engine = DistanceEngine("sqeuclidean", "float64")
        one = SeedPartition(base, np.zeros(len(base), np.int64),
                            "sqeuclidean", "float64")
        adjacency = brute_force_knn_graph(base, 8).adjacency()
        frontier_batch_search(base, adjacency, queries, K, n_starts=6,
                              partition=one, engine=engine)
        seeds = recorded[-1]
        truth, _ = brute_force_neighbors(queries, base, 6, engine=engine)
        assert np.array_equal(np.sort(seeds.ids, axis=1),
                              np.sort(truth, axis=1))
        assert np.all(seeds.evaluations == 1 + len(base))
        assert np.all(seeds.clusters == 0)

    def test_clusters_smaller_than_n_starts_pad_their_seeds(self, corpus,
                                                            recorded):
        base, queries = corpus
        labels = np.arange(len(base)) // 2            # clusters of two rows
        with Index(base, brute_force_knn_graph(base, 8), IndexSpec(
                backend="bruteforce", n_neighbors=8, n_starts=4),
                seed_labels=labels) as index:
            idx, dist = index.search(queries, K)
        seeds = recorded[-1]
        assert np.all(seeds.ids[:, :2] >= 0)
        assert np.all(seeds.ids[:, 2:] == -1)
        assert np.all(np.isinf(seeds.dists[:, 2:]))
        assert np.all(seeds.evaluations == len(base) // 2 + 2)
        assert np.all(idx >= 0) and np.all(np.isfinite(dist))

    def test_compaction_empties_every_cluster_but_one(self, corpus,
                                                      recorded):
        base, queries = corpus
        index = Index.build(base, IndexSpec(backend="bruteforce",
                                            n_neighbors=8, random_state=3))
        labels = index.seed_labels
        kept = labels[len(base) // 2]
        index.delete(index.ids[labels != kept])
        index.compact()
        assert np.unique(index.seed_labels).tolist() == [kept]
        idx, _ = index.search(queries, K)
        seeds = recorded[-1]
        size = int(np.sum(labels == kept))
        assert index.n_rows == size
        # Only the surviving cluster has a centroid, and it is the one
        # every query probes.
        assert np.all(seeds.clusters == kept)
        assert np.all(seeds.evaluations == 1 + size)
        assert np.all((idx >= 0) & (idx < len(base)))
        index.close()

    def test_compaction_relabels_what_no_longer_fits(self, corpus):
        """Surviving labels must stay in ``[0, n)``: when compaction leaves
        fewer rows than the largest surviving label, they are
        renumbered."""
        base, queries = corpus
        index = Index.build(base, IndexSpec(backend="bruteforce",
                                            n_neighbors=8, random_state=3))
        labels = index.seed_labels
        kept = np.flatnonzero(labels == labels.max())[:2]
        index.delete(np.setdiff1d(index.ids, index.ids[kept]))
        index.compact()
        assert index.seed_labels.tolist() == [0, 0]
        idx, _ = index.search(queries[:3], 2)
        assert sorted(idx[0]) == sorted(kept)
        index.close()


def test_nearest_centroid_ties_go_to_the_lower_centroid():
    engine = DistanceEngine("sqeuclidean", "float64")
    centroids = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
    queries = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    assert nearest_centroids(engine, queries, centroids, 1)[:, 0].tolist() \
        == [0, 1, 0]
    assert nearest_centroids(engine, queries, centroids, 2).tolist() \
        == [[0, 2], [1, 3], [0, 1]]
