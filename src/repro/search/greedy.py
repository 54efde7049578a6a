"""The reusable searcher: a dataset, its k-NN graph and the walk over them.

:class:`GraphSearcher` owns everything a search needs beyond the query —
the engine, the cached dataset norms, the CSR-packed symmetrised adjacency,
the lazily built quantized code matrix — and serves every request through
the one graph walk of :mod:`repro.search._walk`: batches, single vectors (a
batch of one) and the per-vector candidate seeding of online inserts.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..distance import DistanceEngine, resolve_metric
from ..distance.quantized import (
    QuantizedScorer,
    ScalarQuantizer,
    resolve_quantize,
)
from ..exceptions import GraphError
from ..validation import (
    check_data_matrix,
    check_positive_int,
    check_random_state,
    clamp_workers,
)
from ..graph.csr import CSRAdjacency
from ..graph.knngraph import KNNGraph
from ..graph.repair import (
    materialize_row_distances,
    push_back_edges,
    refine_neighborhood,
)
from .frontier import ServingStats, frontier_batch_search
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
        Number of entry points per query (the closest of ``seed_sample``
        randomly scored points).
    seed_sample:
        Number of random points scored when picking entry points.
    symmetrize:
        Whether to add reverse edges before searching (recommended; k-NN
        graphs are directed and reverse edges markedly improve reachability).
    random_state:
        Seed for entry-point selection.
    metric, dtype:
        Distance engine configuration; the dataset norms are computed once
        here and reused by every query.
    data_norms:
        Optional precomputed ``engine.norms(data)`` (e.g. restored from a
        saved index) — skips the O(n·d) norms pass.  Must be a ``(n,)``
        array; rejected for the ``dot`` metric, which uses no norms.
    quantize:
        Compressed-domain serving mode (``"none"``, ``"float16"`` or
        ``"int8"``; see :mod:`repro.distance.quantized`).  ``"none"``
        walks with the exact kernels
        (:func:`~repro.search.frontier.frontier_batch_search`); the
        compressed modes walk in the code domain
        (:func:`~repro.search.quantized.quantized_batch_search`) and
        re-rank every returned distance exactly.
    quantizer:
        A restored :class:`~repro.distance.quantized.ScalarQuantizer`
        (``int8`` parameters persisted with a saved index).  When omitted,
        ``int8`` fits its per-dimension parameters on ``data`` at
        construction time; those parameters then stay fixed across online
        inserts.
    """

    def __init__(self, data: np.ndarray, graph: KNNGraph, *,
                 pool_size: int = 32, n_starts: int = 4,
                 seed_sample: int | None = None,
                 symmetrize: bool = True, random_state=None,
                 metric: str = "sqeuclidean", dtype=np.float64,
                 data_norms: np.ndarray | None = None,
                 quantize: str = "none",
                 quantizer: ScalarQuantizer | None = None) -> None:
        self.engine_ = DistanceEngine(metric, dtype)
        self.data = check_data_matrix(data, dtype=self.engine_.dtype)
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
        self.seed_sample = seed_sample
        self._rng = check_random_state(random_state)
        if data_norms is None:
            self._data_norms = self.engine_.norms(self.data)
        else:
            if self.engine_.metric == "dot":
                raise GraphError(
                    "the dot metric uses no row norms, but data_norms was "
                    "given")
            data_norms = np.asarray(data_norms)
            if data_norms.shape != (self.data.shape[0],):
                raise GraphError(
                    f"data_norms has shape {data_norms.shape}, expected "
                    f"({self.data.shape[0]},)")
            if not np.all(np.isfinite(data_norms)):
                raise GraphError("data_norms contains NaN or infinite values")
            self._data_norms = data_norms
        if symmetrize:
            rows = graph.symmetrized_adjacency()
        else:
            rows = [graph.neighbors(i) for i in range(graph.n_points)]
        # The searcher's working form is the flat CSR layout — one
        # contiguous buffer the walks slice into — built once from the
        # per-row form the graph (and graph repair) produce.
        self._adjacency = CSRAdjacency.from_rows(rows)
        self.quantize = resolve_quantize(quantize)
        if quantizer is not None:
            if self.quantize == "none":
                raise GraphError(
                    "a quantizer was supplied but quantize='none'; pass "
                    "the matching quantize mode")
            if quantizer.mode != self.quantize:
                raise GraphError(
                    f"quantizer mode {quantizer.mode!r} does not match "
                    f"quantize={self.quantize!r}")
        self._quantizer = quantizer
        if self.quantize != "none" and self._quantizer is None:
            self._quantizer = ScalarQuantizer(self.quantize).fit(self.data)
        # Code matrix + decoded norms are derived state, built lazily on
        # the first quantized search and invalidated by inserts.
        self._scorer: QuantizedScorer | None = None
        self.last_n_evaluations = 0
        self.last_per_query_evaluations: np.ndarray | None = None
        self.last_serving_stats: ServingStats | None = None
        # Persistent walk pool, created lazily on the first threaded batch
        # and reused until the requested worker count changes — serving many
        # batches must not pay thread start-up per call.
        self._walk_pool: ThreadPoolExecutor | None = None
        self._walk_pool_workers = 0

    @property
    def metric(self) -> str:
        """Canonical metric name the searcher scores queries under."""
        return self.engine_.metric

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
        """Release the persistent walk pool (idempotent).

        The searcher remains usable afterwards — the next threaded
        ``batch_query`` simply recreates the pool.
        """
        pool, self._walk_pool = self._walk_pool, None
        self._walk_pool_workers = 0
        if pool is not None:
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
        if self._walk_pool is None or self._walk_pool_workers != workers:
            if self._walk_pool is not None:
                self._walk_pool.shutdown(wait=True)
            self._walk_pool = ThreadPoolExecutor(max_workers=workers)
            self._walk_pool_workers = workers
        return self._walk_pool

    def insert_points(self, vectors: np.ndarray, *,
                      rng: np.random.Generator | None = None) -> np.ndarray:
        """Insert rows into the data + graph with NN-Descent-style repair.

        Each new vector's candidates are seeded by an exact walk over the
        *current* graph (so a vector inserted earlier in the batch is a
        legitimate candidate for later ones), refined by a
        local join with the candidates' own neighbourhoods
        (:func:`~repro.graph.repair.refine_neighborhood`), and the chosen
        neighbours receive back-edges
        (:func:`~repro.graph.repair.push_back_edges`).  The symmetrised
        adjacency is maintained incrementally and stays exactly the
        adjacency a fresh searcher would derive from the repaired graph.

        The update is transactional: repair happens on copies and is
        committed only when the whole batch succeeds, so a validation
        failure leaves the searcher untouched.  Returns the ``(m,)`` int64
        physical row positions of the new points.
        """
        engine = self.engine_
        vectors = check_data_matrix(vectors, name="vectors",
                                    dtype=engine.dtype)
        if vectors.shape[1] != self.data.shape[1]:
            raise GraphError(
                f"inserted vectors have dimension {vectors.shape[1]}, "
                f"data has {self.data.shape[1]}")
        if rng is None:
            rng = self._rng
        n_neighbors = self.graph.n_neighbors
        first = self.data.shape[0]
        total = first + vectors.shape[0]
        if self.graph.distances is None:
            old_indices, old_distances = materialize_row_distances(
                self.data, self.graph.indices, engine, self._data_norms)
        else:
            old_indices, old_distances = (self.graph.indices,
                                          self.graph.distances)
        # Every matrix is allocated once at its final height and filled in
        # place; each walk and repair step sees the ``[:pos]`` view.
        indices = np.full((total, n_neighbors), -1, dtype=np.int64)
        indices[:first] = old_indices
        distances = np.full((total, n_neighbors), np.inf, dtype=np.float64)
        distances[:first] = old_distances
        data = np.empty((total, self.data.shape[1]), dtype=self.data.dtype)
        data[:first] = self.data
        data[first:] = vectors
        norms = self._data_norms
        if norms is not None:
            norms = np.concatenate([norms, engine.norms(vectors)])
        # Repair edits individual rows between walks, so both work on the
        # unpacked per-row form; the CSR buffers are rebuilt at commit.
        adjacency = self._adjacency.to_rows()
        ef = max(self.pool_size, 2 * n_neighbors)
        for pos in range(first, total):
            row_vec = data[pos]
            row_norms = None if norms is None else norms[:pos]
            found, _, _, _ = frontier_batch_search(
                data[:pos], adjacency, row_vec, min(ef, pos), pool_size=ef,
                n_starts=self.n_starts, seed_sample=self.seed_sample,
                rng=rng, engine=engine, data_norms=row_norms)
            seeds = found[0][found[0] >= 0]
            row_ids, row_dists = refine_neighborhood(
                engine, data[:pos], row_norms, indices[:pos], row_vec, seeds,
                n_neighbors)
            indices[pos, :row_ids.size] = row_ids
            distances[pos, :row_dists.size] = row_dists
            # The new node's in-edges can only come from the back-edge
            # pushes into row_ids, so its symmetrised row is exactly its
            # own (id-sorted) graph row.
            adjacency.append(np.sort(row_ids).astype(np.int64))
            push_back_edges(indices, distances, adjacency, pos, row_ids,
                            row_dists)
        self.data = data
        self.graph = KNNGraph(indices, distances, metric=self.graph.metric)
        self._data_norms = norms
        self._adjacency = CSRAdjacency.from_rows(adjacency)
        # New rows are encoded with the build-time quantizer parameters;
        # the code matrix itself is derived state and is rebuilt on the
        # next quantized search.
        self._scorer = None
        return np.arange(first, total, dtype=np.int64)

    def query(self, query: np.ndarray, n_results: int = 10, *,
              pool_size: int | None = None,
              rng: np.random.Generator | None = None
              ) -> tuple[np.ndarray, np.ndarray]:
        """Search one query; returns ``(n_results,)`` index/distance arrays.

        Exactly ``batch_query(query[None, :], ...)`` row 0 — same walk, same
        ``-1``/``inf`` padding, same published stats.
        """
        query = np.asarray(query, dtype=self.engine_.dtype).ravel()
        idx, dist = self.batch_query(query[None, :], n_results,
                                     pool_size=pool_size, rng=rng)
        return idx[0], dist[0]

    def batch_query(self, queries: np.ndarray, n_results: int = 10, *,
                    pool_size: int | None = None,
                    workers: int | None = None,
                    rng: np.random.Generator | None = None
                    ) -> tuple[np.ndarray, np.ndarray]:
        """Search many queries; returns ``(m, n_results)`` index/distance arrays.

        Rows are sorted by ascending distance and padded with ``-1``/``inf``
        where fewer than ``n_results`` points are reachable.  ``workers``
        spreads the independent group walks over that many threads; results
        are bit-for-bit identical for every worker count, so it is purely a
        throughput knob.  Defaults to ``1``.

        Afterwards ``last_per_query_evaluations`` holds the ``(m,)``
        per-query distance-evaluation counts (batched gemms included),
        ``last_n_evaluations`` their total, and ``last_serving_stats`` the
        walk's :class:`~repro.search.frontier.ServingStats`.  ``rng``
        overrides the searcher's own entry-point generator for this call
        (used by deterministic callers like the index facade).
        """
        queries = check_data_matrix(queries, name="queries",
                                    dtype=self.engine_.dtype)
        if queries.shape[1] != self.data.shape[1]:
            raise GraphError(
                f"queries have dimension {queries.shape[1]}, data has "
                f"{self.data.shape[1]}")
        n_results = check_positive_int(n_results, name="n_results",
                                       maximum=self.data.shape[0])
        workers = 1 if workers is None else clamp_workers(
            check_positive_int(workers, name="workers"), name="workers")
        common = dict(
            pool_size=self.pool_size if pool_size is None else pool_size,
            n_starts=self.n_starts, seed_sample=self.seed_sample,
            workers=workers, executor=self._group_walk_pool(workers),
            rng=self._rng if rng is None else rng,
            engine=self.engine_, data_norms=self._data_norms)
        if self.quantize == "none":
            out_idx, out_dist, evaluations, stats = frontier_batch_search(
                self.data, self._adjacency, queries, n_results, **common)
        else:
            out_idx, out_dist, evaluations, stats = quantized_batch_search(
                self.data, self._adjacency, queries, n_results,
                self._quantized_scorer(), **common)
        self.last_serving_stats = stats
        self.last_per_query_evaluations = evaluations
        self.last_n_evaluations = int(evaluations.sum())
        return out_idx, out_dist
