"""NN-Descent-style local repair for online inserts into a k-NN graph.

An online insert must not rebuild the graph: the new point's neighbourhood
is *repaired in* locally, the way NN-Descent converges a graph — from good
candidates, look at the candidates' own neighbours.  The flow (driven by
:meth:`~repro.search.greedy.GraphSearcher.insert_points`) is:

1. **Seed** — an exact graph walk over the current graph (the same walk
   that serves queries) returns the new vector's best reachable candidates.
2. **Refine** (:func:`refine_neighborhood`) — the local join: the candidate
   set is expanded with the candidates' out-neighbours, scored in one gemm,
   and the ``n_neighbors`` nearest become the new node's graph row.
3. **Back-edges** (:func:`push_back_edges`) — the new node is offered to
   each chosen neighbour's row, displacing that row's current worst entry
   when the new point is closer, so the new point becomes *reachable* and
   the repaired rows keep improving toward the true k-NN rows.

The helpers maintain the searcher's symmetrised adjacency incrementally and
exactly: after every insert the adjacency equals what
:meth:`~repro.graph.knngraph.KNNGraph.symmetrized_adjacency` would derive
from the repaired graph, so a save/load round-trip of the owning index
serves bit-identical results.

All candidate orderings break distance ties by ascending id (stable sorts
over id-sorted candidate sets), so repair is deterministic.
"""

from __future__ import annotations

import numpy as np

from ..distance import DistanceEngine

__all__ = ["refine_neighborhood", "push_back_edges",
           "materialize_row_distances"]


def refine_neighborhood(engine: DistanceEngine, data: np.ndarray,
                        norms: np.ndarray | None, indices: np.ndarray,
                        vector: np.ndarray, seeds: np.ndarray,
                        n_neighbors: int
                        ) -> tuple[np.ndarray, np.ndarray]:
    """The local join: pick a new vector's graph row from seed candidates.

    The candidate set is ``seeds`` (frontier-search results for ``vector``)
    united with the seeds' own out-neighbours (``indices[seeds]``), scored
    against ``vector`` in one gemm.  Returns ``(row_ids, row_dists)`` — the
    ``n_neighbors`` nearest candidates in ascending distance order (fewer
    when the graph holds fewer points), distances as float64 like every
    stored graph row.
    """
    neighbor_pool = indices[seeds].ravel()
    candidates = np.unique(np.concatenate(
        [np.asarray(seeds, dtype=np.int64),
         neighbor_pool[neighbor_pool >= 0]]))
    dists = engine.cross(
        vector, data[candidates],
        b_norms=None if norms is None else norms[candidates])[0]
    # candidates is id-sorted (np.unique), so the stable argsort breaks
    # distance ties by ascending id — deterministic repair.
    order = np.argsort(dists, kind="stable")[:n_neighbors]
    return candidates[order], dists[order].astype(np.float64)


def push_back_edges(indices: np.ndarray, distances: np.ndarray,
                    adjacency: list, pos: int, row_ids: np.ndarray,
                    row_dists: np.ndarray) -> None:
    """Offer new node ``pos`` as a neighbour to each node of its row.

    For every ``j`` in ``row_ids``: ``pos`` is inserted into ``j``'s
    distance-sorted row when closer than the row's worst entry (ties lose —
    the incumbent keeps its slot), displacing that worst entry.  ``indices``
    and ``distances`` are mutated in place; ``adjacency`` rows are
    *replaced* (never mutated), and kept exactly consistent with the
    symmetrised adjacency of the updated graph: ``adjacency[j]`` gains
    ``pos`` (the new node lists ``j``, so the reverse edge exists
    regardless of the push), and a displaced neighbour's edge is removed
    from both sides unless its own row still lists ``j``.
    """
    n_neighbors = indices.shape[1]
    for j, dj in zip(row_ids.tolist(), row_dists.tolist()):
        # The new node's row lists j, so j's symmetrised neighbourhood
        # gains pos whether or not the push below succeeds.  Rows are
        # id-sorted and pos is new to them: splice it into a new array.
        row = adjacency[j]
        at = row.searchsorted(pos)
        adjacency[j] = np.concatenate((row[:at], [pos], row[at:]))
        slot = int(np.searchsorted(distances[j], dj, side="right"))
        if slot >= n_neighbors:
            continue
        dropped = int(indices[j, n_neighbors - 1])
        indices[j, slot + 1:] = indices[j, slot:n_neighbors - 1].copy()
        indices[j, slot] = pos
        distances[j, slot + 1:] = distances[j, slot:n_neighbors - 1].copy()
        distances[j, slot] = dj
        if dropped >= 0 and not np.any(indices[dropped] == j):
            # The j<->dropped edge survives in the symmetrised adjacency
            # only while one of the two rows lists the other; dropped just
            # left j's row and does not list j itself — remove both sides.
            adjacency[j] = adjacency[j][adjacency[j] != dropped]
            adjacency[dropped] = adjacency[dropped][adjacency[dropped] != j]


def materialize_row_distances(data: np.ndarray, indices: np.ndarray,
                              engine: DistanceEngine,
                              norms: np.ndarray | None
                              ) -> tuple[np.ndarray, np.ndarray]:
    """Compute (and sort by) per-row neighbour distances for a graph
    that carries none.

    Back-edge pushes need distance-sorted rows to splice into; a graph
    built without distances (adjacency-only constructions) gets them
    materialized once, on the first insert.  Returns ``(indices,
    distances)`` with every row re-sorted ascending (padding ``-1``/``inf``
    entries stay last).
    """
    n, n_neighbors = indices.shape
    distances = np.full((n, n_neighbors), np.inf, dtype=np.float64)
    for row in range(n):
        valid = indices[row] >= 0
        if not valid.any():
            continue
        cols = indices[row][valid]
        distances[row, valid] = engine.cross(
            data[row], data[cols],
            a_norms=None if norms is None else norms[row:row + 1],
            b_norms=None if norms is None else norms[cols])[0]
    order = np.argsort(distances, axis=1, kind="stable")
    return (np.take_along_axis(indices, order, axis=1),
            np.take_along_axis(distances, order, axis=1))
