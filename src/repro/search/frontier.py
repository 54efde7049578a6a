"""Exact entry to the graph walk: the uncompressed rows are the scorer.

:func:`frontier_batch_search` binds the walk of :mod:`repro.search._walk`
to :meth:`DistanceEngine.cross <repro.distance.DistanceEngine.cross>` over
the dataset itself, so every round's merged frontier is scored in one exact
gemm and the pool a query ends with already holds true metric distances —
no query folding, no re-rank.  The same loop serves squared-Euclidean,
cosine and inner-product (MIPS) queries in float32 or float64.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..distance import DistanceEngine
from ._walk import ServingStats, beam_walk, exact_scorer

__all__ = ["ServingStats", "frontier_batch_search"]


def frontier_batch_search(data: np.ndarray, adjacency, queries: np.ndarray,
                          n_results: int, *,
                          pool_size: int = 32, n_starts: int = 4,
                          seed_sample: int | None = None,
                          max_group: int | None = 32,
                          workers: int = 1,
                          rng: np.random.Generator | None = None,
                          engine: DistanceEngine | None = None,
                          data_norms: np.ndarray | None = None,
                          executor: ThreadPoolExecutor | None = None
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray,
                                     ServingStats]:
    """Multi-query greedy search scoring merged frontiers in one gemm per round.

    Parameters
    ----------
    data:
        ``(n, d)`` reference vectors.
    adjacency:
        Per-point neighbour ids (typically the symmetrised graph): a
        :class:`~repro.graph.csr.CSRAdjacency` or a plain list of id arrays.
    queries:
        ``(m, d)`` query matrix (a ``(d,)`` vector is a batch of one).
    n_results:
        Number of neighbours to return per query.
    pool_size:
        Size of the candidate pool (ef); larger → higher recall, slower.
    n_starts:
        Number of entry points each query expands from — the closest of the
        ``seed_sample`` random points scored for the whole batch (default
        ``max(32, 8 * n_starts)``).
    max_group:
        The number of queries whose walks are frontier-merged together
        (``None`` merges the whole batch).  Smaller groups waste less
        cross-scoring on disjoint frontiers; larger groups issue fewer,
        bigger gemms.
    workers:
        Worker threads the independent group walks are spread over (clamped
        to the group count and to ``os.cpu_count()``; ``1`` walks the groups
        sequentially).  The gemms release the GIL inside BLAS, so threads
        scale without pickling the dataset.
    rng:
        Generator for the entry-point sample.
    engine:
        The :class:`~repro.distance.DistanceEngine` (defaults to
        squared-Euclidean float64).
    data_norms:
        Optional precomputed ``engine.norms(data)`` — pass this when issuing
        many searches against the same dataset.
    executor:
        A persistent :class:`~concurrent.futures.ThreadPoolExecutor` for a
        caller that serves many batches (e.g.
        :class:`~repro.search.greedy.GraphSearcher`); when ``None`` and
        ``workers > 1`` a transient pool is created for the call.  The pool
        is only ever *used* here, never closed.

    Neither ``max_group`` nor ``workers`` affects the returned results.

    Returns
    -------
    (indices, distances, n_evaluations, stats):
        ``(m, n_results)`` id/distance arrays sorted by ascending distance
        (padded with ``-1``/``inf`` when fewer than ``n_results`` points are
        reachable), the ``(m,)`` per-query distance-evaluation counts
        (entry-point sample plus the neighbours scored for the query's own
        walk), and the call's :class:`ServingStats`.
    """
    if engine is None:
        engine = DistanceEngine()
    data = engine.prepare(data)
    queries = engine.prepare(queries)
    score = exact_scorer(engine, data, data_norms, queries,
                         engine.norms(queries))
    return beam_walk(
        adjacency, queries.shape[0], n_results, score, None,
        pool_size=pool_size, n_starts=n_starts, seed_sample=seed_sample,
        max_group=max_group, workers=workers, rng=rng, executor=executor)
