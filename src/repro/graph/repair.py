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
   the κ best of its row plus its pushes in one stable merge, so the new
   rows become *reachable* and the touched rows improve toward their true
   k-NN rows.

The searcher then re-derives only the adjacency rows the repair touched
(:meth:`~repro.graph.knngraph.KNNGraph.adjacency`) and splices them into
its CSR, so the committed adjacency is exactly what a fresh searcher
derives from the repaired graph and a save/load round trip of the owning
index serves bit-identical results.

Ties: the join keeps the nearest candidates by ``(distance, id)``; the
merge orders a target's entries by ``(distance, position)`` with the
existing entries first among equals — the row one-at-a-time pushes in
position order would leave.  Repair is deterministic.  A new row does not
seed from rows inserted earlier in the same call (the walk sees the
pre-insert graph); the in-batch join takes over that role.  The per-row
loop this replaced is the quality oracle of ``tests/_insert_oracle.py``.
The join is quadratic in the call's row count (the batch is one
cluster), so bulk loads of many thousands of rows belong in several calls
or a rebuild.
"""

from __future__ import annotations

import numpy as np

from ..distance import DistanceEngine
from ..distance.kernels import stable_smallest

__all__ = ["refine_neighborhood", "push_back_edges",
           "materialize_row_distances", "JOIN_CHUNK", "GATHER_ROWS"]

#: New rows joined per distance block.  A chunk is scored against the
#: union of its rows' candidates, so the entries no row asked for grow with
#: the chunk; 32 matches the walk's query group.
JOIN_CHUNK = 32

#: Rows per gathered ``(rows, κ, d)`` block when distances are
#: materialized: bounds the gather at a few MB whatever ``n``.
GATHER_ROWS = 1024


def refine_neighborhood(engine: DistanceEngine, data: np.ndarray,
                        norms: np.ndarray | None, indices: np.ndarray,
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
            a_norms=None if norms is None else norms[chunk],
            b_norms=None if norms is None else norms[union])
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


def push_back_edges(indices: np.ndarray, distances: np.ndarray, first: int,
                    row_ids: np.ndarray, row_dists: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Offer every new row to each node of its graph row, all at once.

    Row ``i`` of ``row_ids`` / ``row_dists`` is new row ``first + i``'s
    joined row; each of its ``(id, distance)`` entries pushes ``first + i``
    into that id's row of ``indices`` / ``distances`` (the new rows
    included).  A push whose target already lists its pusher — a mutual
    in-batch pair — is skipped, or the row would hold the id twice.  Each
    target keeps the κ best of its row plus its pushes by ``(distance,
    position)``, the existing entries first among equals, which is the row
    the pushes would leave one at a time in position order.  ``indices`` and
    ``distances`` are updated in place.

    Returns ``(changed, dropped)``: the ascending rows some push entered,
    and the ids those rows lost to make room.
    """
    n_neighbors = indices.shape[1]
    targets = row_ids.ravel()
    valid = targets >= 0
    pushers = np.repeat(np.arange(first, first + row_ids.shape[0]),
                        row_ids.shape[1])[valid]
    targets = targets[valid]
    dists = row_dists.ravel()[valid]
    fresh = ~(indices[targets] == pushers[:, None]).any(axis=1)
    pushers, targets, dists = pushers[fresh], targets[fresh], dists[fresh]
    if not targets.size:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    # Group the pushes by target, each group in arrival order: by distance,
    # then position.
    order = np.lexsort((pushers, dists, targets))
    pushers, targets, dists = pushers[order], targets[order], dists[order]
    hit, starts, counts = np.unique(targets, return_index=True,
                                    return_counts=True)
    lane = np.repeat(np.arange(hit.size), counts)
    at = np.arange(n_neighbors, n_neighbors + targets.size)
    at -= np.repeat(starts, counts)
    # [existing row | pushes], one merge row per target; the stable sort
    # keeps the existing entries first among equals.
    shape = (hit.size, n_neighbors + int(counts.max()))
    cat_ids = np.full(shape, -1, dtype=np.int64)
    cat_dists = np.full(shape, np.inf, dtype=np.float64)
    cat_ids[:, :n_neighbors] = indices[hit]
    cat_dists[:, :n_neighbors] = distances[hit]
    cat_ids[lane, at] = pushers
    cat_dists[lane, at] = dists
    order = cat_dists.argsort(axis=1, kind="stable")
    entered = (order[:, :n_neighbors] >= n_neighbors).any(axis=1)
    order = order[entered]
    lanes = entered.nonzero()[0][:, None]
    changed = hit[entered]
    indices[changed] = cat_ids[lanes, order[:, :n_neighbors]]
    distances[changed] = cat_dists[lanes, order[:, :n_neighbors]]
    lost = order[:, n_neighbors:]
    dropped = cat_ids[lanes, lost][lost < n_neighbors]
    return changed, dropped[dropped >= 0]


def materialize_row_distances(data: np.ndarray, indices: np.ndarray,
                              engine: DistanceEngine,
                              norms: np.ndarray | None
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Compute (and sort by) per-row neighbour distances for a graph
    that carries none.

    Back-edge pushes merge into distance-sorted rows; a graph built without
    distances (adjacency-only constructions) gets them materialized once,
    on the first insert: one gathered ``(n, κ)`` inner-product block
    (``GATHER_ROWS`` rows at a time) turned into distances by
    :meth:`DistanceEngine.from_inner
    <repro.distance.DistanceEngine.from_inner>`.  Returns ``(indices,
    distances)`` with every row re-sorted ascending (padding ``-1``/``inf``
    entries stay last).
    """
    data = engine.prepare(data)
    if norms is None:
        norms = engine.norms(data)                   # still None for dot
    valid = indices >= 0
    safe = np.where(valid, indices, 0)
    inner = np.empty(indices.shape, dtype=data.dtype)
    for start in range(0, indices.shape[0], GATHER_ROWS):
        rows = slice(start, start + GATHER_ROWS)
        inner[rows] = np.einsum("id,ikd->ik", data[rows], data[safe[rows]])
    inner = engine.from_inner(inner, norms,
                              None if norms is None else norms[safe])
    distances = np.where(valid, inner, np.inf).astype(np.float64)
    order = np.argsort(distances, axis=1, kind="stable")
    return (np.take_along_axis(indices, order, axis=1),
            np.take_along_axis(distances, order, axis=1))
