"""Recall / latency evaluation of graph-based ANN search."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..exceptions import ValidationError
from ..graph.bruteforce import brute_force_neighbors
from ..validation import check_data_matrix, check_positive_int
from .frontier import ServingStats

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
        Average wall-clock latency per query (total batch time divided by the
        number of queries in batch mode).
    mean_distance_evaluations:
        Average number of distance computations per query (a
        hardware-independent cost measure).  Each query is charged its
        seeding (the partition's centroids and its cluster's members) plus
        the neighbours scored for its own walk, so batched work is not
        under-counted and the numbers are the same whether queries are
        served together or one call each.
    per_query_evaluations:
        Per-query distance-evaluation counts, aligned with the query order.
    serving_stats:
        :class:`~repro.search.frontier.ServingStats` of the batched call
        that served the queries — per-group rounds, gemm counts and wall
        time — or ``None`` when the run issued one call per query
        (``batch=False``), where no single record covers the run.
    indices, distances:
        The ``(m, k)`` results that were scored, in query order — the
        searcher's own output, so a caller can keep them without searching
        again.
    """

    recall_at_1: float
    recall_at_k: float
    k: int
    mean_query_seconds: float
    mean_distance_evaluations: float
    per_query_evaluations: tuple = ()
    serving_stats: ServingStats | None = None
    indices: np.ndarray | None = field(default=None, repr=False,
                                       compare=False)
    distances: np.ndarray | None = field(default=None, repr=False,
                                         compare=False)


def evaluate_search(searcher, queries: np.ndarray, *, n_results: int = 10,
                    pool_size: int | None = None, batch: bool | None = None,
                    workers: int | None = None,
                    shard_workers: int | None = None,
                    shard_probe: int | None = None,
                    executor: str | None = None) -> SearchEvaluation:
    """Evaluate a searcher against exact brute-force results.

    Parameters
    ----------
    searcher:
        A :class:`~repro.search.greedy.GraphSearcher`, an
        :class:`~repro.index.Index` or a
        :class:`~repro.index.ShardedIndex`.
    queries:
        ``(m, d)`` held-out query matrix.
    n_results:
        Evaluation depth k.
    pool_size:
        Candidate-pool override forwarded to the searcher.
    batch:
        ``True`` serves the whole query set in one batched call (per-query
        latency is then the batch time divided by ``m``); ``False`` issues
        one single-vector call per query — the same walk as a batch of one,
        so only the latency differs.  Defaults to batch mode for an
        ``Index`` and one call per query for a ``GraphSearcher``.
    workers:
        Worker-thread override for the group walks (forwarded to the
        searcher; results are identical for every worker count).  Ignored
        with ``batch=False``.
    shard_workers:
        Shard fan-out threads for a :class:`~repro.index.ShardedIndex`
        (likewise a pure throughput knob).  Only valid for sharded
        searchers; ignored when ``None``.
    shard_probe:
        Routed fan-out for a :class:`~repro.index.ShardedIndex` — each
        query is served by its ``shard_probe`` nearest shards only.  Unlike
        the knobs above this trades recall for throughput (the evaluation
        reports exactly that frontier); ignored when ``None``.
    executor:
        Shard fan-out executor for a batched index search (``"thread"`` or
        ``"remote"``; a pure throughput knob like the worker counts).
        Only valid for batched index searches; ignored when ``None``.

    The brute-force oracle is computed under the searcher's own metric, so
    cosine searchers are scored against the right ground truth.
    """
    queries = check_data_matrix(queries, name="queries")
    n_results = check_positive_int(n_results, name="n_results")

    is_index = hasattr(searcher, "search")
    if not is_index and not hasattr(searcher, "query"):
        raise ValidationError(
            f"searcher must be a GraphSearcher or an Index, got "
            f"{type(searcher).__name__}")
    if batch is None:
        batch = is_index
    if (not batch or not is_index) and \
            (shard_workers is not None or shard_probe is not None or
             executor is not None):
        # Silently dropping these would report a plain evaluation the
        # caller believes is sharded/routed/remote.
        raise ValidationError(
            "shard_workers/shard_probe/executor only apply to batched "
            "searches of a (sharded) index; remove them or use batch=True "
            "with an Index/ShardedIndex searcher")

    engine = getattr(searcher, "engine_", None)
    if is_index:
        # Indexes search in external-id terms and never return tombstoned
        # rows, so the oracle must cover exactly the live vectors and its
        # positions must be mapped to external ids.  For an unmutated
        # index ids == positions and this is a no-op.
        corpus, corpus_ids = searcher.evaluation_corpus
    else:
        corpus, corpus_ids = searcher.data, None
    exact_idx, _ = brute_force_neighbors(queries, corpus, n_results,
                                         engine=engine)
    if corpus_ids is not None:
        exact_idx = np.where(exact_idx >= 0,
                             corpus_ids[np.maximum(exact_idx, 0)], -1)

    m = queries.shape[0]
    serving_stats = None
    if batch:
        started = time.perf_counter()
        if is_index:
            fan_out = {}
            if shard_workers is not None:
                fan_out["shard_workers"] = shard_workers
            if shard_probe is not None:
                fan_out["shard_probe"] = shard_probe
            if executor is not None:
                fan_out["executor"] = executor
            result = searcher.search(queries, n_results,
                                     pool_size=pool_size, workers=workers,
                                     **fan_out)
        else:
            result = searcher.batch_query(queries, n_results,
                                          pool_size=pool_size,
                                          workers=workers)
        total_seconds = time.perf_counter() - started
        per_query, serving_stats = result.evaluations, result.stats
        indices, distances = result.indices, result.distances
    else:
        rows = []
        per_query = np.empty(m, dtype=np.int64)
        total_seconds = 0.0
        for row in range(m):
            started = time.perf_counter()
            if is_index:
                result = searcher.search(queries[row], n_results,
                                         pool_size=pool_size)
            else:
                result = searcher.query(queries[row], n_results,
                                        pool_size=pool_size)
            total_seconds += time.perf_counter() - started
            per_query[row] = result.evaluations.sum()
            rows.append(result)
        indices = np.stack([result.indices for result in rows])
        distances = np.stack([result.distances for result in rows])

    hits_at_1 = 0.0
    hits_at_k = 0.0
    for row in range(m):
        truth = set(int(i) for i in exact_idx[row])
        approx_ids = set(int(i) for i in indices[row] if i >= 0)
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
        serving_stats=serving_stats, indices=indices, distances=distances)
