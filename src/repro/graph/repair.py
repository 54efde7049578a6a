"""Batched local repair for online inserts into a k-NN graph.

An online insert must not rebuild the graph; the new rows are *repaired
in* locally.  Alg. 3 refines a graph by joining each cluster's members
with one another — Fig. 1's premise is that a sample's k-NN share its
cluster — and NN-Descent converges one by joining a point's neighbours
with theirs.  An insert call does both at once, treating its batch as one
cluster.  The flow (driven by
:meth:`~repro.search.greedy.GraphSearcher.insert_points`) is three
whole-batch steps:

1. **Seed** — one exact walk over the *pre-insert* graph (the walk that
   serves queries, at its batched shape) returns every new row's best
   reachable candidates.
2. **Join** (:func:`refine_neighborhood`) — a new row's candidates are its
   walk pool, the pool's out-neighbours and the other new rows.  Each
   chunk of rows is scored against the union of its candidates in one
   gemm, non-candidates are masked away, and the κ nearest become the new
   rows' graph rows.
3. **Back-edges** (:func:`push_back_edges`) — every (new row, neighbour)
   pair offers the new row to the neighbour's row, and each target keeps
   the κ best of its row plus its offers in one stable merge
   (:func:`merge_offers`), so the new rows become *reachable* and the
   touched rows improve toward their true k-NN rows.

:func:`merge_offers` is the package's one row merge: every round of
:class:`~repro.graph.nndescent.NNDescent` ends with it too.

The searcher then re-derives only the adjacency rows the repair touched
(:meth:`~repro.graph.knngraph.KNNGraph.adjacency`) and splices them into
its CSR, so the committed adjacency is exactly what a fresh searcher
derives from the repaired graph and a save/load round trip of the owning
index serves bit-identical results.

Ties: the join keeps the nearest candidates by ``(distance, id)``; the
merge orders a target's entries by ``(distance, position)`` with the
existing entries first among equals and the offers by ``(distance, id)``
— the row one-at-a-time pushes in that order would leave.  Repair is
deterministic.  A new row does not seed from rows inserted earlier in the
same call (the walk sees the pre-insert graph); the in-batch join takes
over that role.  The per-row loop this replaced is the quality oracle of
``tests/_insert_oracle.py``.
The join is quadratic in the call's row count (the batch is one
cluster), so bulk loads of many thousands of rows belong in several calls
or a rebuild.
"""

from __future__ import annotations

import numpy as np

from ..distance import DistanceEngine
from ..distance.kernels import stable_smallest

__all__ = ["refine_neighborhood", "push_back_edges", "merge_offers",
           "materialize_row_distances", "JOIN_CHUNK", "GATHER_ROWS"]

#: New rows joined per distance block.  A chunk is scored against the
#: union of its rows' candidates, so the entries no row asked for grow with
#: the chunk; 32 matches the walk's query group.
JOIN_CHUNK = 32

#: Rows per gathered ``(rows, w, d)`` block, ``w`` candidates a row:
#: bounds a distance pass over a neighbour table (and each chunk of
#: NN-Descent's local join) whatever ``n``.  At 256 the ``build``
#: benchmark's κ-wide gather is 1.3 MB.
GATHER_ROWS = 256


def refine_neighborhood(engine: DistanceEngine, data: np.ndarray,
                        norms: np.ndarray, indices: np.ndarray,
                        first: int, seeds: np.ndarray, n_neighbors: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """The in-batch local join: graph rows for the new rows of ``data``.

    Rows ``first:`` of ``data`` (and of ``norms``) are the new rows; row
    ``i`` of ``seeds`` holds new row ``first + i``'s walk pool over the
    pre-insert rows (``-1`` padded), and ``indices`` their graph rows.  A
    new row's candidates are its pool, the pool's out-neighbours and the
    other new rows.  Returns ``(row_ids, row_dists)``: ``(m, n_neighbors)``
    int64 / float64 rows in ascending ``(distance, id)`` order, padded
    ``-1`` / ``inf`` when a row has fewer candidates.
    """
    total = data.shape[0]
    m = total - first
    row_ids = np.full((m, n_neighbors), -1, dtype=np.int64)
    row_dists = np.full((m, n_neighbors), np.inf, dtype=np.float64)
    width = seeds.shape[1]
    reach = width * (1 + indices.shape[1])
    marked = np.zeros(total, dtype=bool)
    column = np.zeros(total, dtype=np.intp)
    for start in range(0, m, JOIN_CHUNK):
        stop = min(start + JOIN_CHUNK, m)
        size = stop - start
        lanes = np.arange(size)
        pool = seeds[start:stop]
        out = indices[np.maximum(pool, 0)]
        out[pool < 0] = -1
        # One padded candidate row per new row: [pool | the pool's
        # out-neighbours | every new row].
        cand = np.empty((size, reach + m), dtype=np.int64)
        cand[:, :width] = pool
        cand[:, width:reach] = out.reshape(size, -1)
        cand[:, reach:] = np.arange(first, total)
        valid = cand >= 0
        valid[lanes, reach + start + lanes] = False          # not itself
        rows, ids = valid.nonzero()[0], cand[valid]
        # The chunk's candidate union, ascending (a mark-and-nonzero pass,
        # no sort); ``column`` maps an id to its column of the block.
        marked[ids] = True
        union = marked.nonzero()[0]
        marked[union] = False
        column[union] = np.arange(union.size)
        chunk = slice(first + start, first + stop)
        block = engine.cross(
            data[chunk], data[union],
            a_norms=norms[chunk], b_norms=norms[union])
        # Mask every entry that is not one of the row's own candidates; a
        # repeated candidate just sets its entry twice.
        allowed = np.zeros(block.shape, dtype=bool)
        allowed[rows, column[ids]] = True
        block[~allowed] = np.inf
        # Columns ascend by id, so "earlier column first among equals" is
        # the (distance, id) order.
        pick = stable_smallest(block, min(n_neighbors, union.size))
        found = allowed[lanes[:, None], pick]
        keep = pick.shape[1]
        row_ids[start:stop, :keep] = np.where(found, union[pick], -1)
        row_dists[start:stop, :keep] = np.where(
            found, block[lanes[:, None], pick], np.inf)
    return row_ids, row_dists


def merge_offers(indices: np.ndarray, distances: np.ndarray,
                 targets: np.ndarray, ids: np.ndarray, dists: np.ndarray,
                 flags: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Keep, for every row, the κ best of the row plus the ids offered to it.

    Offer ``i`` offers id ``ids[i]`` at ``dists[i]`` to row ``targets[i]``
    of the distance-sorted ``indices`` / ``distances``; no (target, id) is
    offered twice.  Offers that do not beat the row's κ-th distance, or
    whose id the row holds, are dropped.  A row keeps the κ best by
    ``(distance, position)``: existing entries first among equals, offers
    in ``(distance, id)`` order — the row one-at-a-time pushes in that
    order would leave.  Updated in place; ``flags``, when given, moves
    alongside and an offer enters flagged ``True``.

    Returns ``(changed, lost)``: the ascending rows some offer entered, and
    the entries (``-1`` for padding) they lost, one per offer that entered.
    """
    n_neighbors = indices.shape[1]
    keep = dists < distances[targets, -1]
    targets, ids, dists = targets[keep], ids[keep], dists[keep]
    # Group the offers by target, each group by distance, then id.  A row
    # holds at most κ of a group's ids, so the group's first 2κ offers
    # hold every one that can enter.
    order = np.lexsort((ids, dists, targets))
    order = order[_ranks(targets[order]) < 2 * n_neighbors]
    order = order[~(indices[targets[order]] == ids[order, None]).any(axis=1)]
    order = order[_ranks(targets[order]) < n_neighbors]
    ids, targets, dists = ids[order], targets[order], dists[order]
    hit, counts = np.unique(targets, return_counts=True)
    lane = np.repeat(np.arange(hit.size), counts)
    at = n_neighbors + _ranks(targets)
    # [existing row | offers], one merge row per target; the stable sort
    # keeps the existing entries first among equals.
    shape = (hit.size, n_neighbors + int(counts.max(initial=0)))
    cat_ids = np.full(shape, -1, dtype=np.int64)
    cat_dists = np.full(shape, np.inf, dtype=np.float64)
    cat_ids[:, :n_neighbors] = indices[hit]
    cat_dists[:, :n_neighbors] = distances[hit]
    cat_ids[lane, at] = ids
    cat_dists[lane, at] = dists
    order = cat_dists.argsort(axis=1, kind="stable")
    entered = (order[:, :n_neighbors] >= n_neighbors).any(axis=1)
    order = order[entered]
    lanes = entered.nonzero()[0][:, None]
    changed = hit[entered]
    indices[changed] = cat_ids[lanes, order[:, :n_neighbors]]
    distances[changed] = cat_dists[lanes, order[:, :n_neighbors]]
    if flags is not None:
        cat_flags = np.ones(shape, dtype=bool)
        cat_flags[:, :n_neighbors] = flags[hit]
        flags[changed] = cat_flags[lanes, order[:, :n_neighbors]]
    lost = order[:, n_neighbors:]
    return changed, cat_ids[lanes, lost][lost < n_neighbors]


def _ranks(groups: np.ndarray) -> np.ndarray:
    """Each entry's position within its run of equal ``groups`` (sorted)."""
    starts = np.flatnonzero(np.diff(groups, prepend=-1))
    return np.arange(groups.size) - np.repeat(
        starts, np.diff(starts, append=groups.size))


def push_back_edges(indices: np.ndarray, distances: np.ndarray, first: int,
                    row_ids: np.ndarray, row_dists: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Offer every new row to each node of its graph row, all at once.

    Row ``i`` of ``row_ids`` / ``row_dists`` is new row ``first + i``'s
    joined row; each ``(id, distance)`` entry offers ``first + i`` to that
    id's row of ``indices`` / ``distances`` (new rows included), merged in
    place by :func:`merge_offers` — a mutual in-batch pair is already held.

    Returns ``(changed, dropped)``: the ascending rows some push entered,
    and the ids those rows lost to make room.
    """
    targets = row_ids.ravel()
    valid = targets >= 0
    pushers = np.repeat(np.arange(first, first + row_ids.shape[0]),
                        row_ids.shape[1])[valid]
    changed, lost = merge_offers(indices, distances, targets[valid], pushers,
                                 row_dists.ravel()[valid])
    return changed, lost[lost >= 0]


def materialize_row_distances(data: np.ndarray, indices: np.ndarray,
                              engine: DistanceEngine,
                              norms: np.ndarray
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Compute (and sort by) the distances of a neighbour table's entries.

    The package's one distance pass over a neighbour table: Alg. 3's
    random and resumed starting graphs (:mod:`repro.graph.random_graph`)
    get their distances here, and so does a graph the insert path finds
    without any (back-edge pushes merge into distance-sorted rows).  Row
    ``i`` of ``indices`` lists ids of rows of ``data``, ``-1`` for padding.
    Each ``GATHER_ROWS`` rows are one gathered ``(rows, κ, d)``
    inner-product block turned into distances by
    :meth:`DistanceEngine.from_inner
    <repro.distance.DistanceEngine.from_inner>`.  Returns ``(indices,
    distances)`` with every row re-sorted ascending, stably (padding
    ``-1``/``inf`` entries last).
    """
    data = engine.prepare(data)
    sorted_ids = np.empty_like(indices)
    distances = np.empty(indices.shape, dtype=np.float64)
    for start in range(0, indices.shape[0], GATHER_ROWS):
        rows = slice(start, start + GATHER_ROWS)
        ids = indices[rows]
        valid = ids >= 0
        safe = np.where(valid, ids, 0)
        block = engine.from_inner(
            np.einsum("id,ikd->ik", data[rows], data[safe]),
            norms[rows], norms[safe])
        block[~valid] = np.inf
        order = np.argsort(block, axis=1, kind="stable")
        sorted_ids[rows] = np.take_along_axis(ids, order, axis=1)
        distances[rows] = np.take_along_axis(block, order, axis=1)
    return sorted_ids, distances
