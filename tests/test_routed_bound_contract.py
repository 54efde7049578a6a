"""Contract of the routed search's cap.

A routed ``Index.search`` walks each query's nearest shard first
and caps its other probed shards at the k-th distance that shard
returned.  The reference here is the uncapped routed search rebuilt from
public calls: every probed shard serves the query with
``shard.search(queries[rows], k)``, and the per-shard top-k are merged in
shard order by a stable sort on distance.  Against it, on Alg. 3 shard
graphs (3744 × 24, four ``gkmeans`` shards), exact and ``int8``:

* recall@10 stays within 0.005 of the reference;
* at least 99% of rows are bitwise the reference's (ids and distances);
* no query costs more distance evaluations than in the reference, and the
  batch costs strictly fewer;
* the full fan-out (``P = S``) is not capped: it is the reference,
  evaluations included.
"""

import numpy as np
import pytest

from repro.datasets import make_sift_like, train_query_split
from repro.distance import DistanceEngine
from repro.graph.bruteforce import brute_force_neighbors
from repro.index import Index, IndexSpec

K = 10
N_SHARDS = 4


@pytest.fixture(scope="module")
def corpus():
    data = make_sift_like(4000, 24, random_state=7)
    base, queries = train_query_split(data, 256, random_state=7)
    truth, _ = brute_force_neighbors(queries, base, K)
    return base, queries, truth


@pytest.fixture(scope="module", params=["none", "int8"])
def routed(request, corpus):
    base, _, _ = corpus
    spec = IndexSpec(backend="gkmeans", n_neighbors=20, pool_size=64,
                     n_shards=N_SHARDS, partitioner="gkmeans",
                     random_state=7, quantize=request.param,
                     params={"tau": 6, "cluster_size": 50})
    with Index.build(base, spec) as index:
        yield index


def uncapped_reference(index: Index, queries: np.ndarray,
                       probe: int) -> tuple:
    """``(ids, distances, evaluations)`` of the uncapped routed search:
    each query's ``probe`` nearest centroids (squared-Euclidean, ties to the
    lower shard), every probed shard searched without bounds, the
    shard-order blocks merged by a stable sort on distance."""
    scores = DistanceEngine("sqeuclidean", "float64").cross(
        queries, index.centroids)
    routes = np.argsort(scores, axis=1, kind="stable")[:, :probe]
    m = queries.shape[0]
    evaluations = np.full(m, N_SHARDS, dtype=np.int64)
    blocks_ids = [[] for _ in range(m)]
    blocks_dist = [[] for _ in range(m)]
    for shard_id, shard in enumerate(index.shards):
        rows = np.flatnonzero((routes == shard_id).any(axis=1))
        if not rows.size:
            continue
        result = shard.search(queries[rows], K)
        evaluations[rows] += result.evaluations
        for at, row in enumerate(rows):
            blocks_ids[row].append(result.indices[at])
            blocks_dist[row].append(result.distances[at])
    ids = np.empty((m, K), dtype=np.int64)
    dist = np.empty((m, K))
    for row in range(m):
        merged_dist = np.concatenate(blocks_dist[row])
        order = np.argsort(merged_dist, kind="stable")[:K]
        ids[row] = np.concatenate(blocks_ids[row])[order]
        dist[row] = merged_dist[order]
    return ids, dist, evaluations


def recall(ids: np.ndarray, truth: np.ndarray) -> float:
    return float(np.mean([len(set(ids[row]) & set(truth[row])) / K
                          for row in range(len(ids))]))


@pytest.mark.parametrize("probe", [2, 3])
def test_cap_keeps_the_answers_and_only_removes_work(routed, corpus, probe):
    _, queries, truth = corpus
    ref_ids, ref_dist, ref_evals = uncapped_reference(routed, queries, probe)
    result = routed.search(queries, K, shard_probe=probe)
    ids, dist = result

    assert recall(ids, truth) >= recall(ref_ids, truth) - 0.005
    same = (ids == ref_ids).all(axis=1) & (dist == ref_dist).all(axis=1)
    assert same.mean() >= 0.99, f"{same.mean():.4f} of rows bitwise equal"
    assert np.all(result.evaluations <= ref_evals)
    assert result.evaluations.sum() < ref_evals.sum()
    # The stats list the nearest-shard walks, then the capped ones.
    walked = [stats.n_queries for stats in result.stats.shard_stats]
    n_nearest = np.unique(routed._route(queries, 1)).size
    assert sum(walked[:n_nearest]) == len(queries)
    assert sum(walked[n_nearest:]) == (probe - 1) * len(queries)


def test_full_fanout_is_uncapped(routed, corpus):
    _, queries, _ = corpus
    ref_ids, ref_dist, ref_evals = uncapped_reference(routed, queries,
                                                      N_SHARDS)
    result = routed.search(queries, K)
    assert np.array_equal(result.indices, ref_ids)
    assert np.array_equal(result.distances, ref_dist)
    # No routing gemm at P = S: the reference charged one per query.
    assert np.array_equal(result.evaluations, ref_evals - N_SHARDS)
