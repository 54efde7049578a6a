"""Exact entry to the graph walk: the uncompressed rows are the scorer.

:func:`frontier_batch_search` binds the walk of :mod:`repro.search._walk`
to :meth:`DistanceEngine.cross <repro.distance.DistanceEngine.cross>` over
the dataset itself, so every round's merged frontier is scored in one exact
gemm and the pool a query ends with already holds true metric distances —
no query folding, no re-rank.  The same loop serves squared-Euclidean and
cosine queries in float32 or float64.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..distance import DistanceEngine
from ._seeding import SeedPartition, seed_entry_points
from ._walk import ServingStats, WalkScratch, beam_walk, exact_scorer

__all__ = ["ServingStats", "frontier_batch_search"]


def frontier_batch_search(data: np.ndarray, adjacency, queries: np.ndarray,
                          n_results: int, *,
                          partition: SeedPartition | None = None,
                          pool_size: int = 32, n_starts: int = 4,
                          max_group: int | None = 32,
                          workers: int = 1,
                          engine: DistanceEngine | None = None,
                          data_norms: np.ndarray | None = None,
                          executor: ThreadPoolExecutor | None = None,
                          bounds: np.ndarray | None = None,
                          scratch: WalkScratch | None = None
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
    partition:
        The :class:`~repro.search._seeding.SeedPartition` of ``data`` the
        queries are seeded from.  ``None`` clusters ``data`` for this call
        alone (one two-means tree); callers serving many batches keep one,
        as :class:`~repro.search.greedy.GraphSearcher` does.
    pool_size:
        Size of the candidate pool (ef); larger → higher recall, slower.
    n_starts:
        Number of entry points each query expands from: the nearest members
        of its nearest cluster (fewer when that cluster is smaller).
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
    bounds:
        Optional ``(m,)`` per-query distance caps: a query never expands a
        candidate at or beyond its bound (``inf`` is no cap).  A caller
        that already holds ``k`` results at distance ``b`` passes ``b``, so
        the walk skips work a merge with those results would discard.
    scratch:
        The :class:`~repro.search._walk.WalkScratch` whose visit blocks the
        groups reuse (as :class:`~repro.search.greedy.GraphSearcher` keeps
        one); ``None`` allocates them for this call alone.

    Neither ``max_group`` nor ``workers`` affects the returned results.

    Returns
    -------
    (indices, distances, n_evaluations, stats):
        ``(m, n_results)`` id/distance arrays sorted by ascending distance
        (padded with ``-1``/``inf`` when fewer than ``n_results`` points are
        reachable), the ``(m,)`` per-query distance-evaluation counts
        (seeding plus the neighbours scored for the query's own walk), and
        the call's :class:`ServingStats`.
    """
    if engine is None:
        engine = DistanceEngine()
    data = engine.prepare(data)
    queries = engine.prepare(queries)
    if partition is None:
        partition = SeedPartition.cluster(data, engine.metric, engine.dtype,
                                          random_state=0)
    score = exact_scorer(engine, data, data_norms, queries,
                         engine.norms(queries))
    seeds = seed_entry_points(partition, queries, score, n_starts)
    return beam_walk(
        adjacency, seeds, n_results, score, None, pool_size=pool_size,
        max_group=max_group, workers=workers, executor=executor,
        bounds=bounds, scratch=scratch)
