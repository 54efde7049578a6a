"""The one graph walk: a batched best-first beam walk over a k-NN graph.

Every search in the library — exact or quantized, a batch or a single
vector, serving traffic or seeding an online insert — runs this round
loop.  The classic graph-ANN search (KGraph, EFANNA, HNSW layer 0, …)
keeps a bounded pool of the best candidates seen so far, expands the
closest unexpanded candidate by scoring its graph neighbours, and stops
when no candidate can improve the pool.  Per-query, that is one tiny
``(1, d) @ (d, |neighbours|)`` gemm and one trip round a Python loop per
expansion, so this walk batches both ways:

* **Across queries** — each round gathers the union of every live query's
  unvisited neighbours and scores that merged frontier in *one* distance
  block.  Different queries' frontiers are mostly disjoint, so the block
  computes ``|live| × |union|`` distances and the waste grows with the
  batch: the walk therefore runs over bounded *groups* of queries
  (``max_group``, empirically ~32), one block per round per group.
* **Across expansions** — each query expands a small *beam* of candidates
  per round instead of one.  The walk scores ~10–25% more neighbours than
  strict best-first-by-one would, in exchange for several-fold fewer
  Python-level rounds; at serving scale the interpreter, not the gemm, is
  the bottleneck, so that trade wins.

Bookkeeping is array-based: a query's candidate set and result pool are
flat numpy arrays — candidates are stably sorted once per round and popped
by advancing a cursor, pool pruning is one ``argpartition``, and the pool's
worst distance is carried as a plain float so candidates that can no
longer improve the pool are dropped with a single vectorised mask.

The walk is parameterised by a *scorer*, ``score(rows, ids)``, returning
the distance block between batch queries ``rows`` and dataset rows ``ids``.
The exact entry (:func:`~repro.search.frontier.frontier_batch_search`)
passes :meth:`DistanceEngine.cross <repro.distance.DistanceEngine.cross>`
over the uncompressed rows; its pool distances are already the metric, so
the result is the pool ordered by ``(distance, id)``.  The compressed entry
(:func:`~repro.search.quantized.quantized_batch_search`) passes the
quantized kernels plus an exact ``rerank`` scorer: after a group finishes,
the union of its pools is re-scored in one exact block and every pool is
re-ordered by those values, so returned distances are true metric values
either way.  All state stays in the scorer's own block dtype — a float64
engine walks in float64.

Cost accounting: every query is charged the entry-point sample it was
scored against, the neighbours scored for its own walk and (compressed
entry) its own re-ranked pool.  Row/column combinations of a merged block
that no query asked for are a batching trade-off bounded by ``max_group``
and are *not* billed to individual queries, so the counts do not depend on
how the batch was grouped.

Determinism: one entry-point sample is drawn and scored for the whole
batch; after that each query's walk is a function of its own state alone
and each group mutates only its own rows.  ``max_group`` and ``workers``
are therefore pure throughput knobs — results are bit-for-bit identical
for every value — and a single query is exactly a batch of one.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..validation import check_positive_int, clamp_workers
from ._seeding import seed_entry_points

__all__ = ["ServingStats", "beam_walk", "exact_scorer", "BEAM"]

#: Candidates expanded per query per round.  8 sits below the knee where
#: extra expansions stop paying for themselves (measured on the bench
#: stand-in: larger beams keep recall flat but stop reducing wall time).
BEAM = 8

#: ``score(rows, ids)``: distances between batch queries ``rows`` and
#: dataset rows ``ids`` as a ``(len(rows), len(ids))`` block.
Scorer = Callable[[np.ndarray, np.ndarray], np.ndarray]


def exact_scorer(engine, data: np.ndarray, data_norms: np.ndarray | None,
                 queries: np.ndarray, query_norms: np.ndarray | None
                 ) -> Scorer:
    """The identity scorer: ``engine.cross`` over the uncompressed rows.

    ``data_norms=None`` under a norm-using metric computes the gathered
    rows' norms on the fly.
    """
    def score(rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
        return engine.cross(
            queries[rows], data[ids],
            a_norms=None if query_norms is None else query_norms[rows],
            b_norms=None if data_norms is None else data_norms[ids])
    return score


@dataclass(frozen=True)
class ServingStats:
    """Execution profile of one batched search.

    Grouping and threading change *how fast* the batch is served, never
    *what* it returns; this record is where the "how fast" lives — the
    per-group walk shape plus wall time, enough to compare worker counts or
    ``max_group`` choices without re-deriving anything.

    Attributes
    ----------
    workers:
        Worker threads actually used (clamped to the group count).
    max_group:
        Group bound the batch was split under.
    n_queries:
        Number of queries served.
    group_sizes, group_rounds, group_gemms, group_seconds:
        Per-group query counts, walk rounds, frontier gemms issued and
        wall-clock walk seconds, aligned by group.  Rounds and gemms are
        deterministic (they describe the walk, not the hardware); seconds
        are wall time and vary run to run.
    total_seconds:
        Wall-clock time of the whole batch call, seeding included.
    """

    workers: int
    max_group: int
    n_queries: int
    group_sizes: tuple = ()
    group_rounds: tuple = ()
    group_gemms: tuple = ()
    group_seconds: tuple = ()
    total_seconds: float = 0.0

    @property
    def n_groups(self) -> int:
        """Number of independently walked query groups."""
        return len(self.group_sizes)

    @property
    def n_rounds(self) -> int:
        """Total walk rounds across groups."""
        return int(sum(self.group_rounds))

    @property
    def n_gemms(self) -> int:
        """Total frontier gemms issued across groups."""
        return int(sum(self.group_gemms))

    @property
    def queries_per_second(self) -> float:
        """Serving throughput of this call (0.0 for an instantaneous call)."""
        if self.total_seconds <= 0.0:
            return 0.0
        return self.n_queries / self.total_seconds


def beam_walk(adjacency, n_queries: int, n_results: int, score: Scorer,
              rerank: Scorer | None, *, pool_size: int, n_starts: int,
              seed_sample: int | None, max_group: int | None, workers: int,
              rng: np.random.Generator | None,
              executor: ThreadPoolExecutor | None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, ServingStats]:
    """Walk ``n_queries`` queries over ``adjacency``; see the module docs.

    ``adjacency`` is anything ``adjacency[node]`` indexes into a node's
    neighbour-id array — a :class:`~repro.graph.csr.CSRAdjacency` or the
    plain row list graph repair edits between walks; it is never repacked.
    ``rerank`` is the exact scorer of the compressed entry (``None`` when
    ``score`` is already exact).  Returns ``(indices, distances,
    n_evaluations, stats)`` as documented on the two public entries.
    """
    started = time.perf_counter()
    n = len(adjacency)
    m = n_queries
    if rng is None:
        rng = np.random.default_rng()
    pool_size = max(pool_size, n_results)
    max_group = max(1, m if max_group is None else int(max_group))
    workers = clamp_workers(
        check_positive_int(workers, name="workers"), name="workers")

    sample, seed_block = seed_entry_points(n, m, seed_sample, n_starts, rng,
                                           score)
    n_starts = min(n_starts, n)

    out_idx = np.full((m, n_results), -1, dtype=np.int64)
    out_dist = np.full((m, n_results), np.inf, dtype=np.float64)
    evaluations = np.full(m, sample.size, dtype=np.int64)

    groups = [np.arange(start, min(start + max_group, m))
              for start in range(0, m, max_group)]
    workers = min(workers, max(1, len(groups)))

    def walk_group(rows: np.ndarray) -> tuple[int, int, float]:
        group_started = time.perf_counter()
        size = rows.size
        visited = np.zeros((size, n), dtype=bool)
        # Per-query candidate set and bounded result pool: unsorted flat
        # (ids, distances) array pairs in the scorer's block dtype.
        cand_ids: list = [None] * size
        cand_dists: list = [None] * size
        pool_ids: list = [None] * size
        pool_dists: list = [None] * size
        # Pool threshold, tracked as a plain float so the hot loop never
        # re-reduces the pool; ``inf`` until the pool fills.
        worst = [np.inf] * size
        keep = np.argsort(seed_block[rows], axis=1,
                          kind="stable")[:, :n_starts]
        for local, row in enumerate(rows):
            ids, dists = sample[keep[local]], seed_block[row, keep[local]]
            visited[local, ids] = True
            cand_ids[local], cand_dists[local] = ids, dists
            if ids.size > pool_size:
                best = np.argpartition(dists, pool_size - 1)[:pool_size]
                ids, dists = ids[best], dists[best]
            pool_ids[local], pool_dists[local] = ids, dists
            if ids.size >= pool_size:
                worst[local] = float(dists.max())

        live = list(range(size))
        rounds = 0
        gemms = 0
        while live:
            rounds += 1
            frontiers: dict[int, np.ndarray] = {}
            for local in live:
                cids, cdists = cand_ids[local], cand_dists[local]
                w = worst[local]
                if w != np.inf and cids.size:
                    improving = cdists < w
                    if not improving.all():
                        cids, cdists = cids[improving], cdists[improving]
                if not cids.size:
                    continue
                order = np.argsort(cdists, kind="stable")
                cids, cdists = cids[order], cdists[order]
                seen = visited[local]
                parts: list[np.ndarray] = []
                consumed = 0
                while consumed < cids.size and len(parts) < BEAM:
                    neighbors = adjacency[int(cids[consumed])]
                    consumed += 1
                    unvisited = neighbors[~seen[neighbors]]
                    if unvisited.size:
                        seen[unvisited] = True
                        parts.append(unvisited)
                cand_ids[local] = cids[consumed:]
                cand_dists[local] = cdists[consumed:]
                if parts:
                    frontiers[local] = np.concatenate(parts, dtype=np.int64)
            # A query with nothing left to score is done: every candidate
            # it still holds was consumed or cannot improve its pool.
            live = list(frontiers)
            if not live:
                break
            gemms += 1

            union = np.unique(np.concatenate(list(frontiers.values())))
            block = score(rows[live], union)

            for block_row, local in enumerate(live):
                frontier = frontiers[local]
                dists = block[block_row, np.searchsorted(union, frontier)]
                evaluations[rows[local]] += frontier.size
                pids = np.concatenate([pool_ids[local], frontier])
                pdists = np.concatenate([pool_dists[local], dists])
                if pids.size > pool_size:
                    best = np.argpartition(pdists, pool_size - 1)[:pool_size]
                    pids, pdists = pids[best], pdists[best]
                    worst[local] = w = float(pdists.max())
                    grow = dists < w
                    frontier, dists = frontier[grow], dists[grow]
                pool_ids[local], pool_dists[local] = pids, pdists
                cand_ids[local] = np.concatenate([cand_ids[local], frontier])
                cand_dists[local] = np.concatenate([cand_dists[local], dists])

        if rerank is not None:
            # One exact block over the group's merged pools; each query's
            # pool is then ordered by true metric distance.
            union = np.unique(np.concatenate(pool_ids))
            exact = rerank(rows, union)
        for local, row in enumerate(rows):
            ids, dists = pool_ids[local], pool_dists[local]
            if rerank is not None:
                dists = exact[local, np.searchsorted(union, ids)]
                evaluations[row] += ids.size
            # Ties break by ascending id, the library-wide rule.
            order = np.lexsort((ids, dists))[:n_results]
            out_idx[row, :order.size] = ids[order]
            out_dist[row, :order.size] = dists[order]
        return rounds, gemms, time.perf_counter() - group_started

    # Each group touches only its own rows of the shared output, so the
    # threaded walks need no locks and cannot reorder each other's results.
    if workers == 1:
        walked = [walk_group(rows) for rows in groups]
    elif executor is not None:
        walked = list(executor.map(walk_group, groups))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            walked = list(pool.map(walk_group, groups))

    stats = ServingStats(
        workers=workers, max_group=max_group, n_queries=m,
        group_sizes=tuple(len(rows) for rows in groups),
        group_rounds=tuple(rounds for rounds, _, _ in walked),
        group_gemms=tuple(gemms for _, gemms, _ in walked),
        group_seconds=tuple(seconds for _, _, seconds in walked),
        total_seconds=time.perf_counter() - started)
    return out_idx, out_dist, evaluations, stats
