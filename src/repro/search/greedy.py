"""The reusable searcher: a dataset, its k-NN graph and the walk over them.

:class:`GraphSearcher` owns everything a search needs beyond the query —
the engine, the dataset norms it derives from the data, the CSR-packed
symmetrised adjacency, the lazily built int8 code matrix, the seed
partition walks enter from — and serves every request through the one
graph walk of :mod:`repro.search._walk`: batches, single vectors (a batch
of one) and the candidate seeding of online inserts (one batch per insert
call).
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..distance import DistanceEngine, resolve_metric
from ..distance.quantized import (
    QuantizedScorer,
    ScalarQuantizer,
    input_range_dtype,
    resolve_quantize,
)
from ..exceptions import GraphError
from ..validation import (
    check_bounds,
    check_data_matrix,
    check_positive_int,
    check_queries,
    clamp_workers,
)
from ..graph.knngraph import KNNGraph
from ..graph.repair import (
    materialize_row_distances,
    push_back_edges,
    refine_neighborhood,
)
from ._seeding import SeedPartition, seed_entry_points
from ._walk import SearchResult, WalkScratch, beam_walk, exact_scorer
from .frontier import frontier_batch_search
from .quantized import quantized_batch_search

__all__ = ["GraphSearcher"]


class GraphSearcher:
    """Reusable ANN searcher bound to a dataset and its k-NN graph.

    Parameters
    ----------
    data:
        Reference vectors the graph indexes.
    graph:
        A :class:`~repro.graph.knngraph.KNNGraph` over ``data``.
    pool_size:
        Default candidate pool size (can be overridden per query).
    n_starts:
        Number of entry points per query: the nearest members of its
        nearest seed-partition cluster (fewer when that cluster is smaller).
    random_state:
        Seed of the two-means tree that partitions ``data`` when
        ``seed_labels`` is omitted; searches themselves draw nothing.
    metric, dtype:
        Distance engine configuration; the dataset norms are computed once
        here and reused by every query.
    quantize:
        Compressed-domain serving mode (``"none"`` or ``"int8"``; see
        :mod:`repro.distance.quantized`).  ``"none"`` walks with the exact
        kernels (:func:`~repro.search.frontier.frontier_batch_search`);
        ``"int8"`` walks in the code domain
        (:func:`~repro.search.quantized.quantized_batch_search`) and
        re-ranks every returned distance exactly.
    quantizer:
        A restored :class:`~repro.distance.quantized.ScalarQuantizer`
        (``int8`` parameters persisted with a saved index).  When omitted,
        ``int8`` fits its per-dimension parameters on ``data`` at
        construction time; those parameters then stay fixed across online
        inserts.
    seed_labels:
        The ``(n,)`` seed partition walks enter from (see
        :mod:`repro.search._seeding`): an integer cluster label per row, each
        in ``[0, n)``.  Omitted, ``data`` is partitioned by one two-means
        tree of about 50 rows per cluster.  Inserts extend it (a new row
        joins the cluster its seeding probed); :attr:`seed_labels` reads it
        back for persistence.
    """

    def __init__(self, data: np.ndarray, graph: KNNGraph, *,
                 pool_size: int = 32, n_starts: int = 4, random_state=None,
                 metric: str = "sqeuclidean", dtype=np.float64,
                 quantize: str = "none",
                 quantizer: ScalarQuantizer | None = None,
                 seed_labels: np.ndarray | None = None) -> None:
        self.engine_ = DistanceEngine(metric, dtype)
        self.quantize = resolve_quantize(quantize)
        #: Bound of every input row's range (see input_range_dtype).
        self._range_dtype = input_range_dtype(self.quantize)
        self.data = check_data_matrix(data, dtype=self.engine_.dtype,
                                      range_dtype=self._range_dtype)
        if graph.n_points != self.data.shape[0]:
            raise GraphError(
                f"graph indexes {graph.n_points} points but data has "
                f"{self.data.shape[0]} rows")
        if resolve_metric(graph.metric) != self.engine_.metric:
            raise GraphError(
                f"graph was built under metric {graph.metric!r} but the "
                f"searcher scores queries under {self.engine_.metric!r}; "
                "rebuild the graph with the search metric (or set "
                "graph.metric if the adjacency is intentionally reused)")
        self.graph = graph
        self.pool_size = check_positive_int(pool_size, name="pool_size")
        self.n_starts = check_positive_int(n_starts, name="n_starts")
        self._data_norms = self.engine_.norms(self.data)
        # The searcher's working form is the flat CSR layout — one
        # contiguous buffer the walks slice into.
        self._adjacency = graph.adjacency()
        if quantizer is not None:
            if self.quantize == "none":
                raise GraphError(
                    "a quantizer was supplied but quantize='none'; pass "
                    "quantize='int8'")
        self._quantizer = quantizer
        if self.quantize != "none" and self._quantizer is None:
            self._quantizer = ScalarQuantizer(self.quantize).fit(self.data)
        # Code matrix + decoded norms are derived state, built lazily on
        # the first quantized search and invalidated by inserts.
        self._scorer: QuantizedScorer | None = None
        n = self.data.shape[0]
        if seed_labels is None:
            self._partition = SeedPartition.cluster(
                self.data, self.metric, self.engine_.dtype, random_state)
        else:
            seed_labels = np.asarray(seed_labels)
            if seed_labels.shape != (n,) or seed_labels.dtype.kind not in "iu":
                raise GraphError(
                    f"seed_labels must be a ({n},) integer array, got a "
                    f"{seed_labels.dtype} array of shape {seed_labels.shape}")
            if seed_labels.min() < 0 or seed_labels.max() >= n:
                raise GraphError(
                    f"seed_labels must lie in [0, {n}), got values in "
                    f"[{seed_labels.min()}, {seed_labels.max()}]")
            self._partition = SeedPartition(self.data, seed_labels,
                                            self.metric, self.engine_.dtype)
        # Persistent walk pools, one per worker count, kept until close():
        # no thread start-up per call, and no search shuts down the pool a
        # concurrent search at another worker count is mapping onto.
        self._walk_pools: dict[int, ThreadPoolExecutor] = {}
        self._walk_pools_lock = threading.Lock()
        # Walk scratch every search and insert seeding reuses, one block
        # per concurrent group walk, kept until close().
        self._scratch = WalkScratch()

    @property
    def metric(self) -> str:
        """Canonical metric name the searcher scores queries under."""
        return self.engine_.metric

    @property
    def seed_labels(self) -> np.ndarray:
        """The ``(n,)`` int64 seed partition labels walks enter from."""
        return self._partition.labels

    @property
    def quantizer(self) -> ScalarQuantizer | None:
        """The searcher's :class:`~repro.distance.quantized.ScalarQuantizer`
        (``None`` when serving exactly)."""
        return self._quantizer

    def _quantized_scorer(self) -> QuantizedScorer:
        """The bound compressed-domain scorer, (re)built lazily."""
        if self._scorer is None:
            self._scorer = QuantizedScorer(self.engine_, self._quantizer,
                                           self.data)
        return self._scorer

    def close(self) -> None:
        """Release the persistent walk pools and walk scratch (idempotent).

        The searcher remains usable afterwards — the next ``batch_query``
        simply recreates what it needs.
        """
        self._scratch.clear()
        with self._walk_pools_lock:
            pools, self._walk_pools = self._walk_pools, {}
        for pool in pools.values():
            pool.shutdown(wait=True)

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    def _group_walk_pool(self, workers: int) -> ThreadPoolExecutor | None:
        """Persistent pool for ``workers`` threads (``None`` when serial)."""
        if workers <= 1:
            return None
        with self._walk_pools_lock:
            if workers not in self._walk_pools:
                self._walk_pools[workers] = ThreadPoolExecutor(workers)
            return self._walk_pools[workers]

    def insert_points(self, vectors: np.ndarray) -> np.ndarray:
        """Insert rows into the data + graph with a batched local repair.

        Three whole-batch steps (see :mod:`repro.graph.repair`): one exact
        walk seeds every new vector's candidates over the *pre-insert*
        graph (each new row joins the seed-partition cluster that walk's
        seeding probed, and the cluster means are re-derived); one
        in-batch join picks the new rows' graph rows from their walk pools,
        the pools' out-neighbours and each other
        (:func:`~repro.graph.repair.refine_neighborhood`); one merge pushes
        the back-edges into the chosen neighbours' rows
        (:func:`~repro.graph.repair.push_back_edges`).  Only the adjacency
        rows the repair touched are re-derived and spliced into the CSR,
        which therefore stays exactly the adjacency a fresh searcher would
        derive from the repaired graph.

        The update is transactional: repair happens on copies and is
        committed only when the whole batch succeeds, so a validation
        failure leaves the searcher untouched.  Returns the ``(m,)`` int64
        physical row positions of the new points.
        """
        engine = self.engine_
        vectors = check_data_matrix(vectors, name="vectors",
                                    dtype=engine.dtype,
                                    range_dtype=self._range_dtype)
        if vectors.shape[1] != self.data.shape[1]:
            raise GraphError(
                f"inserted vectors have dimension {vectors.shape[1]}, "
                f"data has {self.data.shape[1]}")
        n_neighbors = self.graph.n_neighbors
        first = self.data.shape[0]
        total = first + vectors.shape[0]
        if self.graph.distances is None:
            old_indices, old_distances = materialize_row_distances(
                self.data, self.graph.indices, engine, self._data_norms)
        else:
            old_indices, old_distances = (self.graph.indices,
                                          self.graph.distances)
        # 1. Seed: one walk of the whole batch over the pre-insert graph.
        ef = max(self.pool_size, 2 * n_neighbors)
        score = exact_scorer(engine, self.data, self._data_norms, vectors,
                             engine.norms(vectors))
        entry = seed_entry_points(self._partition, vectors, score,
                                  self.n_starts)
        seeds, _, _, _ = beam_walk(
            self._adjacency, entry, min(ef, first), score, None,
            pool_size=ef, max_group=32, workers=1, executor=None,
            scratch=self._scratch)
        # Every matrix is allocated once at its final height and filled in
        # place.
        indices = np.full((total, n_neighbors), -1, dtype=np.int64)
        indices[:first] = old_indices
        distances = np.full((total, n_neighbors), np.inf, dtype=np.float64)
        distances[:first] = old_distances
        data = np.empty((total, self.data.shape[1]), dtype=self.data.dtype)
        data[:first] = self.data
        data[first:] = vectors
        norms = np.concatenate([self._data_norms, engine.norms(vectors)])
        # 2. Join the batch as one cluster; 3. push the back-edges.
        row_ids, row_dists = refine_neighborhood(
            engine, data, norms, indices, first, seeds, n_neighbors)
        indices[first:] = row_ids
        distances[first:] = row_dists
        changed, dropped = push_back_edges(indices, distances, first,
                                           row_ids, row_dists)
        graph = KNNGraph(indices, distances, metric=self.graph.metric)
        # Rows whose adjacency can differ: every endpoint of an edge the
        # repair added or removed.
        touched = np.zeros(total, dtype=bool)
        touched[first:] = True
        touched[changed] = True
        touched[dropped] = True
        touched[indices[first:][indices[first:] >= 0]] = True
        nodes = touched.nonzero()[0]
        adjacency = self._adjacency.splice(
            nodes, graph.adjacency(nodes=nodes))
        self.data = data
        self.graph = graph
        self._data_norms = norms
        self._adjacency = adjacency
        self._partition = SeedPartition(
            data, np.concatenate([self._partition.labels, entry.clusters]),
            self.metric, engine.dtype)
        # New rows are encoded with the build-time quantizer parameters;
        # the code matrix itself is derived state and is rebuilt on the
        # next quantized search.
        self._scorer = None
        return np.arange(first, total, dtype=np.int64)

    def query(self, query: np.ndarray, n_results: int = 10, *,
              pool_size: int | None = None) -> SearchResult:
        """Search one query; the result holds ``(n_results,)`` arrays.

        Exactly ``batch_query(query[None, :], ...)`` row 0 — same walk, same
        ``-1``/``inf`` padding, same ``(1,)`` evaluations and stats.
        """
        # An out-of-range row casts to inf here and is refused by the
        # batch check, with no numpy warning first.
        with np.errstate(over="ignore"):
            query = np.asarray(query, dtype=self.engine_.dtype).ravel()
        result = self.batch_query(query[None, :], n_results, pool_size=pool_size)
        return SearchResult(result.indices[0], result.distances[0],
                            result.evaluations, result.stats)

    def batch_query(self, queries: np.ndarray, n_results: int = 10, *,
                    pool_size: int | None = None,
                    workers: int | None = None,
                    bounds: np.ndarray | None = None) -> SearchResult:
        """Search many queries; the result holds ``(m, n_results)`` arrays.

        Rows are sorted by ascending distance and padded with ``-1``/``inf``
        where fewer than ``n_results`` points are reachable.  ``workers``
        spreads the independent group walks over that many threads; results
        are bit-for-bit identical for every worker count, so it is purely a
        throughput knob.  Defaults to ``1``.

        The returned :class:`~repro.search.SearchResult` unpacks as
        ``(indices, distances)`` and carries the ``(m,)`` per-query
        distance-evaluation counts (batched gemms included) as
        ``evaluations`` and the walk's :class:`~repro.search.ServingStats`
        as ``stats``.  Every query is seeded from its nearest seed-partition
        cluster, so a row's result does not depend on the batch around it.

        ``bounds`` optionally caps each query's walk at a distance (see
        :func:`~repro.search.frontier.frontier_batch_search`): a floating
        ``(m,)`` array, ``inf`` for no cap.
        """
        queries, bounds = self._check_batch(queries, bounds)
        return self._batch_query(queries, n_results, pool_size=pool_size,
                                 workers=workers, bounds=bounds)

    def _check_batch(self, queries: np.ndarray, bounds: np.ndarray | None
                     ) -> tuple[np.ndarray, np.ndarray | None]:
        """``(queries, bounds)`` as :meth:`batch_query` checks them: a
        C-contiguous batch in the searcher's dtype with finite rows in
        range, and ``None`` or float64 ``(m,)`` bounds without NaN."""
        queries = check_queries(queries, self.data.shape[1],
                                dtype=self.engine_.dtype,
                                range_dtype=self._range_dtype)
        return queries, check_bounds(bounds, queries.shape[0])

    def _batch_query(self, queries: np.ndarray, n_results: int, *,
                     pool_size: int | None, workers: int | None,
                     bounds: np.ndarray | None) -> SearchResult:
        """:meth:`batch_query` on a batch and bounds
        :meth:`_check_batch` already passed."""
        n_results = check_positive_int(n_results, name="n_results",
                                       maximum=self.data.shape[0])
        workers = 1 if workers is None else clamp_workers(
            check_positive_int(workers, name="workers"), name="workers")
        common = dict(
            pool_size=self.pool_size if pool_size is None else pool_size,
            n_starts=self.n_starts, partition=self._partition,
            workers=workers, executor=self._group_walk_pool(workers),
            engine=self.engine_, data_norms=self._data_norms,
            bounds=bounds, scratch=self._scratch)
        if self.quantize == "none":
            return SearchResult(*frontier_batch_search(
                self.data, self._adjacency, queries, n_results, **common))
        return SearchResult(*quantized_batch_search(
            self.data, self._adjacency, queries, n_results,
            self._quantized_scorer(), **common))
