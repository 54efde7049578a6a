"""Recall / latency evaluation of graph-based ANN search."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ValidationError
from ..graph.bruteforce import brute_force_neighbors
from ..validation import check_data_matrix, check_positive_int

__all__ = ["SearchEvaluation", "evaluate_search"]


@dataclass(frozen=True)
class SearchEvaluation:
    """Summary of an ANN-search evaluation run.

    Attributes
    ----------
    recall_at_1, recall_at_k:
        Fraction of queries whose true nearest neighbour (resp. true top-k)
        was retrieved.
    k:
        Depth used for ``recall_at_k``.
    mean_query_seconds:
        Average wall-clock latency per query: the batch time divided by
        the number of queries.
    mean_distance_evaluations:
        Average number of distance computations per query (a
        hardware-independent cost measure).  Each query is charged its
        seeding (the partition's centroids and its cluster's members) plus
        the neighbours scored for its own walk, so batched work is not
        under-counted.
    per_query_evaluations:
        Per-query distance-evaluation counts, aligned with the query order.
    serving_stats:
        The :class:`~repro.index.ShardedServingStats` of the batched call
        that served the queries — per-group rounds, gemm counts, fan-out
        and wall time.
    indices, distances:
        The ``(m, k)`` results that were scored, in query order — the
        index's own output, so a caller can keep them without searching
        again.
    """

    recall_at_1: float
    recall_at_k: float
    k: int
    mean_query_seconds: float
    mean_distance_evaluations: float
    per_query_evaluations: tuple = ()
    serving_stats: object | None = None
    indices: np.ndarray | None = field(default=None, repr=False,
                                       compare=False)
    distances: np.ndarray | None = field(default=None, repr=False,
                                         compare=False)


def evaluate_search(index, queries: np.ndarray, *, n_results: int = 10,
                    pool_size: int | None = None,
                    workers: int | None = None,
                    shard_workers: int | None = None,
                    shard_probe: int | None = None,
                    executor: str | None = None) -> SearchEvaluation:
    """Evaluate one batched search of an index against exact results.

    Parameters
    ----------
    index:
        An :class:`~repro.index.Index`.
    queries:
        ``(m, d)`` held-out query matrix, served as one batch.
    n_results:
        Evaluation depth k.
    pool_size, workers, shard_workers, shard_probe, executor:
        Forwarded to :meth:`Index.search <repro.index.Index.search>`.
        ``shard_probe`` trades recall for throughput (the evaluation
        reports exactly that frontier); the others never change a result.

    The brute-force oracle is computed under the index's own metric, so
    cosine indexes are scored against the right ground truth.
    """
    # Runtime import: the index package builds on this one.
    from ..index.facade import Index

    queries = check_data_matrix(queries, name="queries")
    n_results = check_positive_int(n_results, name="n_results")
    if not isinstance(index, Index):
        raise ValidationError(
            f"evaluate_search needs an Index, got {type(index).__name__}")

    # Indexes search in external-id terms and never return tombstoned rows,
    # so the oracle must cover exactly the live vectors and its positions
    # must be mapped to external ids.  For an unmutated index ids ==
    # positions and this is a no-op.
    corpus, corpus_ids = index.evaluation_corpus
    exact_idx, _ = brute_force_neighbors(queries, corpus, n_results,
                                         engine=index.engine_)
    exact_idx = np.where(exact_idx >= 0,
                         corpus_ids[np.maximum(exact_idx, 0)], -1)

    started = time.perf_counter()
    result = index.search(queries, n_results, pool_size=pool_size,
                          workers=workers, shard_workers=shard_workers,
                          shard_probe=shard_probe, executor=executor)
    total_seconds = time.perf_counter() - started
    per_query = result.evaluations

    m = queries.shape[0]
    hits_at_1 = 0.0
    hits_at_k = 0.0
    for row in range(m):
        truth = set(int(i) for i in exact_idx[row])
        approx_ids = set(int(i) for i in result.indices[row] if i >= 0)
        if int(exact_idx[row, 0]) in approx_ids:
            hits_at_1 += 1.0
        hits_at_k += len(truth & approx_ids) / max(len(truth), 1)

    return SearchEvaluation(
        recall_at_1=hits_at_1 / m,
        recall_at_k=hits_at_k / m,
        k=n_results,
        mean_query_seconds=total_seconds / m,
        mean_distance_evaluations=float(per_query.mean()),
        per_query_evaluations=tuple(int(v) for v in per_query),
        serving_stats=result.stats, indices=result.indices,
        distances=result.distances)
