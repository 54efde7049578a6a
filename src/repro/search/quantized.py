"""Compressed-domain entry to the graph walk, with exact re-rank.

:func:`quantized_batch_search` binds the walk of :mod:`repro.search._walk`
to a :class:`~repro.distance.quantized.QuantizedScorer`: queries are folded
into the code domain once per batch, and every round's merged frontier
costs one small-operand gemm against the int8/float16 code matrix.  The
walk's pools therefore hold *approximate* distances, so which candidates
survive is pinned by a recall floor, not by parity with the exact entry.

What *is* exact is the output metric: after a group finishes, the union of
its result pools is re-scored against the uncompressed data in one
exact-engine gemm, and every query's pool is re-ranked by those exact
distances (ties broken by ascending id, the library-wide rule).  Returned
distances are true metric values; the only quantization effect that can
survive is a near-boundary candidate swap.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..distance import DistanceEngine
from ..distance.quantized import QuantizedScorer
from ._walk import ServingStats, beam_walk, exact_scorer

__all__ = ["quantized_batch_search"]


def quantized_batch_search(data: np.ndarray, adjacency, queries: np.ndarray,
                           n_results: int, scorer: QuantizedScorer, *,
                           pool_size: int = 32, n_starts: int = 4,
                           seed_sample: int | None = None,
                           max_group: int | None = 32, workers: int = 1,
                           rng: np.random.Generator | None = None,
                           engine: DistanceEngine | None = None,
                           data_norms: np.ndarray | None = None,
                           executor: ThreadPoolExecutor | None = None
                           ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                      ServingStats]:
    """Batched beam walk in the compressed domain, re-ranked exactly.

    Parameters match :func:`~repro.search.frontier.frontier_batch_search`
    plus ``scorer``, the compressed-domain kernels bound to ``data``.

    Returns
    -------
    (indices, distances, n_evaluations, stats):
        Shaped as for the exact entry; distances are **exact** metric
        values from the re-rank gemm.  Evaluation counts charge each query
        its seed block, its own frontier scorings and its own re-ranked
        pool.
    """
    if engine is None:
        engine = DistanceEngine()
    data = engine.prepare(data)
    queries = engine.prepare(queries)
    query_norms = engine.norms(queries)
    folded, bias = scorer.prepare_queries(queries)

    def score(rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
        return scorer.block(
            folded[rows], None if bias is None else bias[rows],
            None if query_norms is None else query_norms[rows], ids)

    rerank = exact_scorer(engine, data, data_norms, queries, query_norms)
    return beam_walk(
        adjacency, queries.shape[0], n_results, score, rerank,
        pool_size=pool_size, n_starts=n_starts, seed_sample=seed_sample,
        max_group=max_group, workers=workers, rng=rng, executor=executor)
