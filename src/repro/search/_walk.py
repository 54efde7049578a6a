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
pool's worst distance once it has overflowed, never above the row's
``bounds`` cap when the caller gives one) — and a round is a fixed
number of numpy calls for the whole group, not a Python trip per query.
Candidates are not stored: they are exactly the unexpanded pool members
below the row's threshold (anything that fell out of the pool is at or above
it), already in pop order.  A round

1. pops each row's next ``CHUNK`` candidates *speculatively* and reads all
   their adjacency rows in one ragged gather (flat ids + lengths: through
   ``indptr`` on a :class:`~repro.graph.csr.CSRAdjacency`, a
   ``np.concatenate`` of the few rows on a plain row list — no padded
   ``(n, κ)`` view, symmetrised degree varies too much).  One lookup
   on ``row · n + id`` keys drops visited neighbours — a pass that finds
   none spends its pops and ends there — one
   ``np.maximum.at`` pass keeps each neighbour's first occurrence in pop
   order, and a row-wise running count of *productive* pops (pops that
   found a fresh neighbour) keeps each row's pops up to its ``BEAM``-th
   productive one; later pops are put back un-marked, and the rare row that
   exhausts a chunk short of ``BEAM`` pops another;
2. scores the union of the kept frontiers in one block, exactly as a
   per-query loop would;
3. merges ``[pool | frontier]`` row-wise and keeps the ``L`` smallest,
   *earlier entry first among equals*
   (:func:`~repro.distance.kernels.stable_smallest`), raising
   the threshold only for rows that overflowed.  Rows with nothing left to
   score are compacted out of the live matrices.

The group scratch — the dense ``(size · n,)`` int32 visit block the lookup
reads, plus the ``n``-row ``marked`` / ``column`` rows of the frontier union
— comes from a :class:`WalkScratch` the searcher keeps, and is reused, not
re-allocated and not cleared: each block carries an epoch *floor*, a node is
visited in the group iff its stamp is above the floor, and returning the
block moves the floor past every stamp the group wrote.  A block is zeroed
only when the next group's stamps could pass the int32 limit.  Retention:
at most one block per group walk that ran concurrently, each at most
``max_group · n · 4 + 9n`` bytes, all freed by ``GraphSearcher.close()``.

Every query enters at its seeds — the nearest members of its nearest cluster
of the index's seed partition (:mod:`repro.search._seeding`), computed by the
entry before the walk — which fill the first ``n_starts`` pool slots.  The
compressed entry's re-rank and the final ``(distance, id)`` ordering are
whole-group array operations like the rounds.  The tie rule is
the one above everywhere: every selection is a function of the row's own
entries, never of the width the rest of the group pads it to, which is what
keeps ``max_group`` a pure throughput knob on tied distances too.  On
tie-free data the pops, the scoring sets and the counts are those of the
per-query loop this replaced (kept as the oracle in
``tests/test_walk_contract.py``).

The price is a fixed cost per round — about a hundred small numpy calls
whether the group holds one query or thirty-two — so a **batch of one is
the slow shape**: it pays a whole round's overhead for one query's work.
Measured on one core of a shared 2-core VM, a single-query search costs
0.66–0.70 ms at 20000 × 64 (pool 64) and 1.09–1.12 ms at 4000 × 24
(quartiles), against 0.14 and 0.23 ms per query inside a 256-query batch.
``GraphSearcher.query`` and every single-vector request behind the wire run
that shape (an insert call walks all its rows as one batch); callers with
traffic to batch should batch it.

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

Cost accounting: every query is charged its seeding (the partition's
centroids and its probed cluster's members), the neighbours scored for its
own walk and (compressed entry) its own re-ranked pool.  Row/column
combinations of a merged block that no query asked for are a batching
trade-off bounded by ``max_group`` and are *not* billed to individual
queries, so the counts do not depend on how the batch was grouped.

Determinism: a query's seeds are a function of the query and the partition
alone, each query's walk is a function of its own state alone and each
group mutates only its own rows.  ``max_group`` and ``workers``
are therefore pure throughput knobs — results are bit-for-bit identical
for every value — and a single query is exactly a batch of one.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..distance.kernels import stable_smallest
from ..graph.csr import CSRAdjacency
from ..validation import check_positive_int, clamp_workers
from ._seeding import Seeds

__all__ = ["SearchResult", "ServingStats", "WalkScratch", "beam_walk",
           "exact_scorer", "BEAM"]

#: Candidates expanded per query per round.  8 sits below the knee where
#: extra expansions stop paying for themselves (measured on the bench
#: stand-in: larger beams keep recall flat but stop reducing wall time).
BEAM = 8

#: Candidates a row pops speculatively per pass of a round: the walk gathers
#: this many adjacency rows at once, then keeps the pops up to the
#: ``BEAM``-th productive one and puts the rest back.
CHUNK = 32

#: Largest stamp the int32 visit block holds.
STAMP_MAX = int(np.iinfo(np.int32).max)

#: ``score(rows, ids)``: distances between batch queries ``rows`` (an index
#: array or a slice) and dataset rows ``ids`` as a ``(len(rows), len(ids))``
#: block — or, for a 2-D ``(len(rows), w)`` ``ids``, of each query to its own
#: ``w`` rows only.
Scorer = Callable[[np.ndarray, np.ndarray], np.ndarray]


def exact_scorer(engine, data: np.ndarray, data_norms: np.ndarray | None,
                 queries: np.ndarray, query_norms: np.ndarray
                 ) -> Scorer:
    """The identity scorer: ``engine.cross`` over the uncompressed rows.

    ``data_norms=None`` computes the gathered rows' norms on the fly.
    """
    def score(rows: np.ndarray, ids: np.ndarray) -> np.ndarray:
        kernel = engine.paired if ids.ndim == 2 else engine.cross
        return kernel(
            queries[rows], data.take(ids, axis=0),
            a_norms=query_norms[rows],
            b_norms=None if data_norms is None else data_norms[ids])
    return score


def gather_rows(adjacency, nodes: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
    """``(flat_ids, lengths)`` of the adjacency rows of ``nodes``: one
    vectorised gather on a CSR, the rows read in place on a row list."""
    if isinstance(adjacency, CSRAdjacency):
        return adjacency.gather(nodes)
    picked = [adjacency[node] for node in nodes.tolist()]
    return np.concatenate(picked), np.fromiter(
        map(len, picked), dtype=np.intp, count=len(picked))


class _Block:
    """One walker's scratch: the visit block, ``marked`` and ``column``.

    ``seen`` holds ``size · n`` int32 visit stamps, ``marked`` and
    ``column`` one entry per node.  Between walks every stamp is at or
    below ``floor`` and ``marked`` is all False.
    """

    __slots__ = ("seen", "marked", "column", "floor")

    def __init__(self, size: int, n: int) -> None:
        self.seen = np.zeros(size * n, dtype=np.int32)
        self.marked = np.zeros(n, dtype=bool)
        self.column = np.empty(n, dtype=np.intp)
        self.floor = 0

    def fits(self, size: int, n: int) -> bool:
        """Whether a ``size``-query group over ``n`` nodes fits."""
        return self.seen.size >= size * n and self.marked.size >= n


class WalkScratch:
    """A lock-guarded pool of walk scratch, reused across groups and calls.

    A group takes one :class:`_Block` (:meth:`take`) and returns it after
    its last use (:meth:`give`); a walk that raises drops its block, since
    it may hold stamps above its floor.  A new block is allocated only when
    no free one is large enough, and it then replaces one too small, so the
    pool holds at most one block per walk that ever ran at once.
    """

    def __init__(self) -> None:
        self._free: list[_Block] = []
        self._lock = threading.Lock()

    def take(self, size: int, n: int) -> _Block:
        """A block for a ``size``-query group over ``n`` nodes, zeroed
        first when the group's stamps could pass :data:`STAMP_MAX`."""
        with self._lock:
            block = next((block for block in self._free
                          if block.fits(size, n)), None)
            if block is not None:
                self._free.remove(block)
            elif self._free:
                # The new block replaces a free one too small.
                self._free.pop()
        if block is None:
            return _Block(size, n)
        # A pass stamps at most one key per gathered neighbour: CHUNK pops
        # per row of at most n neighbours each.
        if block.floor > STAMP_MAX - size * CHUNK * n:
            block.seen.fill(0)
            block.floor = 0
        return block

    def give(self, block: _Block) -> None:
        """Return a block whose stamps are all at or below its floor."""
        with self._lock:
            self._free.append(block)

    def clear(self) -> None:
        """Drop every free block."""
        with self._lock:
            self._free = []


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
        Wall-clock time of the whole walk call.
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


class SearchResult(tuple):
    """A search's answer, ``(indices, distances)``, and what it cost.

    Unpacks and indexes as that 2-tuple (as :class:`os.stat_result` does as
    a short tuple): ``(m, k)`` arrays for a batch, ``(k,)`` for one query.
    ``evaluations`` — the ``(m,)`` per-query distance-evaluation counts,
    ``(1,)`` for one query — and ``stats`` — the walk's
    :class:`ServingStats`, or an index search's
    :class:`~repro.index.ShardedServingStats` — ride along as attributes, so concurrent searches never share them.
    """

    def __new__(cls, indices: np.ndarray, distances: np.ndarray,
                evaluations: np.ndarray, stats) -> "SearchResult":
        result = super().__new__(cls, (indices, distances))
        result.indices, result.distances = indices, distances
        result.evaluations, result.stats = evaluations, stats
        return result

    def __reduce__(self):
        return SearchResult, (*self, self.evaluations, self.stats)


def beam_walk(adjacency, seeds: Seeds, n_results: int, score: Scorer,
              rerank: Scorer | None, *, pool_size: int,
              max_group: int | None, workers: int,
              executor: ThreadPoolExecutor | None,
              bounds: np.ndarray | None = None,
              scratch: WalkScratch | None = None
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, ServingStats]:
    """Walk every query of ``seeds`` over ``adjacency``; see the module docs.

    ``adjacency`` is anything ``adjacency[node]`` indexes into a node's
    neighbour-id array — a :class:`~repro.graph.csr.CSRAdjacency` or a
    plain row list; it is never repacked.  ``seeds`` are the batch's entry
    points (:func:`~repro.search._seeding.seed_entry_points`); each query's
    pool starts as its seed row.  ``rerank`` is the exact scorer of the
    compressed entry (``None`` when ``score`` is already exact).
    ``bounds``, an optional ``(m,)`` array in the walk's own distance
    units, caps each row's threshold: a row never expands a candidate at or
    beyond its bound, so a row whose seeds all lie beyond it ends after
    seeding with no gemm.  ``scratch`` is the caller's
    :class:`WalkScratch` (``None``: a pool for this call alone).  Returns
    ``(indices, distances, n_evaluations, stats)`` as documented on the two
    public entries.
    """
    started = time.perf_counter()
    n = len(adjacency)
    m = seeds.ids.shape[0]
    pool_size = max(pool_size, n_results)
    max_group = max(1, m if max_group is None else int(max_group))
    workers = clamp_workers(
        check_positive_int(workers, name="workers"), name="workers")
    filled = min(seeds.ids.shape[1], pool_size)

    # Every row is written by exactly one group.
    out_idx = np.empty((m, n_results), dtype=np.int64)
    out_dist = np.empty((m, n_results), dtype=np.float64)
    evaluations = seeds.evaluations.astype(np.int64)

    groups = [np.arange(start, min(start + max_group, m))
              for start in range(0, m, max_group)]
    workers = min(workers, max(1, len(groups)))
    if scratch is None:
        scratch = WalkScratch()
    cap = None
    if bounds is not None:
        # In the pool's dtype, rounded up where the cast rounded down, so
        # ``distance < cap`` is exactly ``distance < bound``.
        cap = bounds.astype(seeds.dists.dtype)
        low = cap < bounds
        cap[low] = np.nextafter(cap[low], np.inf)

    def walk_group(rows: np.ndarray) -> tuple[int, int, float]:
        group_started = time.perf_counter()
        size = rows.size
        # Group scratch.  ``seen[q * n + node]`` is above ``floor`` once
        # query ``q`` has scored ``node``; within a pass it also holds the
        # stamp that picks a neighbour's first occurrence.  ``high`` is the
        # largest stamp above the floor the group wrote.
        block = scratch.take(size, n)
        seen, floor, high = block.seen, block.floor, 1
        marked, column = block.marked[:n], block.column[:n]

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

        entry = seeds.ids[rows]
        entered = entry >= 0
        seen[(slot[:, None] * n + entry)[entered]] = floor + 1
        # Pools: ``(size, pool_size)`` id / distance matrices, ascending by
        # distance (earlier arrival first among equals), padded -1 / inf.
        pool_ids = np.full((size, pool_size), -1, dtype=np.int64)
        pool_dists = np.full((size, pool_size), np.inf,
                             dtype=seeds.dists.dtype)
        pool_ids[:, :filled] = entry[:, :filled]
        pool_dists[:, :filled] = seeds.dists[rows, :filled]
        expanded = np.zeros((size, pool_size), dtype=bool)
        count = entered[:, :filled].sum(axis=1)
        # Pool threshold, one column: ``inf`` until the seeds fill the pool
        # or a merge overflows it, and never above the row's bound.
        worst = pool_dists[:, -1:].copy()
        if cap is not None:
            np.minimum(worst, cap[rows, None], out=worst)
        done_ids = np.empty_like(pool_ids)
        done_dists = np.empty_like(pool_dists)

        rounds = 0
        gemms = 0
        while True:
            rounds += 1
            # Candidates are the unexpanded pool members that still beat the
            # threshold; the pool order is their pop order.
            cand = pool_dists < worst
            cand[expanded] = False
            rank = cand.cumsum(axis=1)
            base = slot * n
            frontier: list[tuple[np.ndarray, np.ndarray]] = []
            # Productive pops a row may still make this round: BEAM, less
            # the earlier passes' (a per-row column from the second pass on).
            quota = BEAM
            top = int(rank[:, -1].max())
            for popped in range(0, top, CHUNK):
                # Pop every row's next CHUNK candidates speculatively.
                window = cand & (rank <= popped + CHUNK)
                if popped:
                    window &= (rank > popped) & (quota > 0)
                arow, pcol = window.nonzero()
                if not arow.size:
                    break
                flat, lengths = gather_rows(adjacency, pool_ids[arow, pcol])
                owner = np.arange(arow.size).repeat(lengths)
                keys = base[arow].repeat(lengths)
                keys += flat
                fresh = (seen[keys] <= floor).nonzero()[0]
                if not fresh.size:
                    # No pop found a fresh neighbour: each is spent.
                    expanded |= window
                    continue
                keys, owner, flat = keys[fresh], owner[fresh], flat[fresh]
                # A neighbour reached by several pops belongs to the first.
                stamps = np.arange(floor + keys.size, floor, -1,
                                   dtype=np.int32)
                high = max(high, keys.size)
                np.maximum.at(seen, keys, stamps)
                first = seen[keys] == stamps
                # Keep a row's pops up to its quota-th productive one (a pop
                # that found a fresh neighbour); the rest go back un-marked.
                made = np.zeros(cand.shape, dtype=bool)
                made[arow, pcol] = np.bincount(owner[first],
                                               minlength=arow.size)
                kept = made.cumsum(axis=1)
                kept -= made
                kept = kept < quota
                kept &= window
                expanded |= kept
                taken = kept[arow, pcol][owner]
                taken &= first
                seen[keys[first ^ taken]] = 0
                frontier.append((arow[owner[taken]], flat[taken]))
                if popped + CHUNK < top:
                    quota = quota - made.sum(axis=1, keepdims=True)

            if not frontier:
                break
            frow, fid = frontier[0]
            if len(frontier) > 1:
                frow, fid = map(np.concatenate, zip(*frontier))
                order = frow.argsort(kind="stable")
                frow, fid = frow[order], fid[order]
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

            # Merge [pool | frontier] row-wise, keep the pool_size smallest;
            # a row's frontier (frow is sorted) follows its pool.
            at = np.arange(pool_size, pool_size + fid.size)
            at -= frow.searchsorted(frow)
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
            # An overflowed row's threshold drops to its pool's worst; the
            # minimum keeps a bound below that in force.
            np.minimum(worst, pool_dists[:, -1:], out=worst,
                       where=(count > pool_size)[:, None])

        done_ids[slot] = pool_ids
        done_dists[slot] = pool_dists
        lanes = np.arange(size)[:, None]
        if rerank is not None:
            # One exact block over the group's merged pools; each query's
            # pool is then ordered by true metric distance.
            valid = done_ids >= 0
            pooled = done_ids[valid]
            exact = rerank(rows, union_of(pooled))
            done_dists = np.full(done_ids.shape, np.inf, dtype=exact.dtype)
            lane, col = valid.nonzero()
            done_dists[lane, col] = exact[lane, column[pooled]]
            evaluations[rows] += valid.sum(axis=1)
        block.floor = floor + high
        scratch.give(block)
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
