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

Bookkeeping is group-wide: a group's state is a few fixed-width matrices
— ``(g, L)`` pool ids, distances and expanded flags, kept ascending by
distance and padded ``-1`` / ``inf``, plus one threshold per row (the
pool's worst distance once it has overflowed) — and a round is a fixed
number of numpy calls for the whole group, not a Python trip per query.
Candidates are not stored: they are exactly the unexpanded pool members
below the row's threshold (anything that fell out of the pool is at or above
it), already in pop order.  A round

1. pops each row's next ``CHUNK`` candidates *speculatively* and reads all
   their adjacency rows in one ragged gather (flat ids + lengths: through
   ``indptr`` on a :class:`~repro.graph.csr.CSRAdjacency`, a
   ``np.concatenate`` of the few rows on the row list inserts walk — no
   padded ``(n, κ)`` view, symmetrised degree varies too much).  One lookup
   on ``row · n + id`` keys drops visited neighbours, one
   ``np.maximum.at`` pass keeps each neighbour's first occurrence in pop
   order, and a row-wise running count of *productive* pops (pops that
   found a fresh neighbour) keeps each row's pops up to its ``BEAM``-th
   productive one; later pops are put back un-marked, and the rare row that
   exhausts a chunk short of ``BEAM`` pops another;
2. scores the union of the kept frontiers in one block, exactly as a
   per-query loop would;
3. merges ``[pool | frontier]`` row-wise and keeps the ``L`` smallest,
   *earlier entry first among equals* (:func:`stable_smallest`), raising
   the threshold only for rows that overflowed.  Rows with nothing left to
   score are compacted out of the live matrices.

Seeding, the compressed entry's re-rank and the final ``(distance, id)``
ordering are whole-group array operations the same way.  The tie rule is
the one above everywhere: every selection is a function of the row's own
entries, never of the width the rest of the group pads it to, which is what
keeps ``max_group`` a pure throughput knob on tied distances too.  On
tie-free data the pops, the scoring sets and the counts are those of the
per-query loop this replaced (kept as the oracle in
``tests/test_walk_contract.py``).

The price is a fixed cost per round — about a hundred small numpy calls
whether the group holds one query or thirty-two — so a **batch of one is
the slow shape**: it pays a whole round's overhead for one query's work.
Measured on one core, a single-query walk costs 0.93 ms at 20000 × 64
(pool 64, 2048-point entry sample) — what the per-query loop cost — and
0.84–0.88 ms at 4000 × 24, where the loop took 0.55–0.66 ms, against
0.13–0.17 ms per query inside a 32-query group.  ``GraphSearcher.query``,
every inserted vector and every single-vector request behind the wire run
that shape; callers with traffic to batch should batch it.

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

from ..graph.csr import CSRAdjacency
from ..validation import check_positive_int, clamp_workers
from ._seeding import seed_entry_points

__all__ = ["ServingStats", "beam_walk", "exact_scorer", "BEAM"]

#: Candidates expanded per query per round.  8 sits below the knee where
#: extra expansions stop paying for themselves (measured on the bench
#: stand-in: larger beams keep recall flat but stop reducing wall time).
BEAM = 8

#: Candidates a row pops speculatively per pass of a round: the walk gathers
#: this many adjacency rows at once, then keeps the pops up to the
#: ``BEAM``-th productive one and puts the rest back.
CHUNK = 32

#: Blocks of at most this many entries are selected from by a whole-row
#: sort: below it the sort costs less than the partition path's extra calls.
SORT_WHOLE = 1024

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


def stable_smallest(block: np.ndarray, count: int) -> np.ndarray:
    """Columns of each row's ``count`` smallest entries, ascending, the
    earlier column first among equals.

    Equals ``np.argsort(block, axis=1, kind="stable")[:, :count]`` on every
    input, without sorting whole rows: partition for the ``count``-th value,
    then order only the columns at or below it.  A row whose boundary value
    is tied (or NaN) falls back to its full stable sort, and so does a block
    too small for the partition's fixed cost to pay.
    """
    n_rows, width = block.shape
    if count >= width or block.size <= SORT_WHOLE:
        return block.argsort(axis=1, kind="stable")[:, :count]
    kth = np.partition(block, count - 1, axis=1)[:, count - 1:count]
    below = block <= kth
    tied = below.sum(axis=1) != count
    any_tied = tied.any()
    if any_tied:
        below[tied] = False
    # The untied rows' survivors, as flat positions in column order.
    flat = np.flatnonzero(below).reshape(-1, count)
    order = block.ravel()[flat].argsort(axis=1, kind="stable")
    cols = flat[np.arange(flat.shape[0])[:, None], order] % width
    if not any_tied:
        return cols
    picked = np.empty((n_rows, count), dtype=np.intp)
    picked[~tied] = cols
    picked[tied] = block[tied].argsort(axis=1, kind="stable")[:, :count]
    return picked


def gather_rows(adjacency, nodes: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """``(flat_ids, lengths)`` of the adjacency rows of ``nodes``: one
    vectorised gather on a CSR, the rows read in place on a row list."""
    if isinstance(adjacency, CSRAdjacency):
        return adjacency.gather(nodes)
    picked = [adjacency[node] for node in nodes.tolist()]
    return np.concatenate(picked), np.fromiter(
        map(len, picked), dtype=np.intp, count=len(picked))


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
        # Group scratch.  ``seen[q * n + node]`` is nonzero once query ``q``
        # has scored ``node``; within a round it also holds the stamp that
        # picks a neighbour's first occurrence.
        seen = np.zeros(size * n, dtype=np.int32)
        marked = np.zeros(n, dtype=bool)
        column = np.zeros(n, dtype=np.intp)

        def union_of(ids: np.ndarray) -> np.ndarray:
            """The distinct ``ids``, ascending; ``column`` then maps each to
            its position (a mark-and-nonzero pass, no sort)."""
            marked[ids] = True
            union = marked.nonzero()[0]
            marked[union] = False
            column[union] = np.arange(union.size)
            return union

        # Live rows only: ``slot`` is a live row's position in the group,
        # ``queries`` its batch row.
        slot = np.arange(size)
        queries = rows

        block = seed_block[rows]
        keep = stable_smallest(block, n_starts)
        seeds = sample[keep]
        seen[(slot[:, None] * n + seeds).ravel()] = 1
        # Pools: ``(size, pool_size)`` id / distance matrices, ascending by
        # distance (earlier arrival first among equals), padded -1 / inf.
        filled = min(keep.shape[1], pool_size)
        pool_ids = np.full((size, pool_size), -1, dtype=np.int64)
        pool_dists = np.full((size, pool_size), np.inf, dtype=block.dtype)
        pool_ids[:, :filled] = seeds[:, :filled]
        pool_dists[:, :filled] = block[slot[:, None], keep[:, :filled]]
        expanded = np.zeros((size, pool_size), dtype=bool)
        count = np.full(size, filled)
        # Pool threshold, one column: ``inf`` until the seeds fill the pool
        # or a merge overflows it.
        worst = pool_dists[:, -1:].copy()
        done_ids = np.empty_like(pool_ids)
        done_dists = np.empty_like(pool_dists)

        rounds = 0
        gemms = 0
        while True:
            rounds += 1
            # Candidates are the unexpanded pool members that still beat the
            # threshold; the pool order is their pop order.
            cand = pool_dists < worst
            cand &= ~expanded
            rank = cand.cumsum(axis=1)
            base = slot * n
            frontier_rows: list[np.ndarray] = []
            frontier_ids: list[np.ndarray] = []
            # Productive pops a row may still make this round: BEAM, less
            # the previous pass's (a per-row column from the second pass on).
            quota = BEAM
            for popped in range(0, int(rank[:, -1].max()), CHUNK):
                # Pop every row's next CHUNK candidates speculatively.
                window = cand & (rank <= popped + CHUNK)
                if popped:
                    quota = quota - made.sum(axis=1, keepdims=True)
                    window &= (rank > popped) & (quota > 0)
                arow, pcol = window.nonzero()
                if not arow.size:
                    break
                flat, lengths = gather_rows(adjacency, pool_ids[arow, pcol])
                owner = np.arange(arow.size).repeat(lengths)
                keys = base[arow].repeat(lengths)
                keys += flat
                fresh = (seen[keys] == 0).nonzero()[0]
                keys, owner, flat = keys[fresh], owner[fresh], flat[fresh]
                # A neighbour reached by several pops belongs to the first.
                stamps = np.arange(keys.size, 0, -1, dtype=np.int32)
                np.maximum.at(seen, keys, stamps)
                first = seen[keys] == stamps
                # Keep a row's pops up to its quota-th productive one; the
                # rest go back un-marked.
                made = np.zeros(pool_ids.shape, dtype=np.intp)
                made[arow, pcol] = np.bincount(
                    owner[first], minlength=arow.size) > 0
                before = made.cumsum(axis=1)
                before -= made
                kept = (before < quota)[arow, pcol]
                expanded[arow[kept], pcol[kept]] = True
                taken = kept[owner]
                taken &= first
                seen[keys[first ^ taken]] = 0
                frontier_rows.append(arow[owner[taken]])
                frontier_ids.append(flat[taken])

            if not frontier_ids:
                break
            frow, fid = frontier_rows[0], frontier_ids[0]
            if len(frontier_ids) > 1:
                frow = np.concatenate(frontier_rows)
                order = frow.argsort(kind="stable")
                frow, fid = frow[order], np.concatenate(frontier_ids)[order]
            fcount = np.bincount(frow, minlength=slot.size)
            if not fcount.all():
                # A row with nothing left to score is done: every candidate
                # it held was consumed or cannot improve its pool.
                alive = fcount > 0
                if not alive.any():
                    break
                done = slot[~alive]
                done_ids[done] = pool_ids[~alive]
                done_dists[done] = pool_dists[~alive]
                pool_ids, pool_dists = pool_ids[alive], pool_dists[alive]
                expanded, worst = expanded[alive], worst[alive]
                count, fcount = count[alive], fcount[alive]
                slot, queries = slot[alive], queries[alive]
                frow = (alive.cumsum() - 1)[frow]
            gemms += 1
            evaluations[queries] += fcount

            fdist = score(queries, union_of(fid))[frow, column[fid]]

            # Merge [pool | frontier] row-wise, keep the pool_size smallest.
            at = np.arange(pool_size, pool_size + fid.size)
            at -= (fcount.cumsum() - fcount)[frow]
            shape = (slot.size, pool_size + int(fcount.max()))
            cat_ids = np.full(shape, -1, dtype=np.int64)
            cat_dists = np.full(shape, np.inf, dtype=pool_dists.dtype)
            cat_done = np.zeros(shape, dtype=bool)
            cat_ids[:, :pool_size] = pool_ids
            cat_dists[:, :pool_size] = pool_dists
            cat_done[:, :pool_size] = expanded
            cat_ids[frow, at] = fid
            cat_dists[frow, at] = fdist
            pick = stable_smallest(cat_dists, pool_size)
            lanes = np.arange(slot.size)[:, None]
            pool_ids = cat_ids[lanes, pick]
            pool_dists = cat_dists[lanes, pick]
            expanded = cat_done[lanes, pick]
            count += fcount
            worst = np.where((count > pool_size)[:, None],
                             pool_dists[:, -1:], worst)
            np.minimum(count, pool_size, out=count)

        done_ids[slot] = pool_ids
        done_dists[slot] = pool_dists
        lanes = np.arange(size)[:, None]
        if rerank is not None:
            # One exact block over the group's merged pools; each query's
            # pool is then ordered by true metric distance.
            valid = done_ids >= 0
            union = union_of(done_ids[valid])
            exact = rerank(rows, union)
            done_dists = np.where(
                valid,
                exact[lanes, column[np.where(valid, done_ids, union[0])]],
                np.inf)
            evaluations[rows] += valid.sum(axis=1)
        # Ties break by ascending id, the library-wide rule.
        order = np.lexsort((done_ids, done_dists))[:, :n_results]
        out_idx[rows] = done_ids[lanes, order]
        out_dist[rows] = done_dists[lanes, order]
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
