"""Starting graphs (G0) for Alg. 3 and NN-Descent.

Alg. 3 of the paper starts from a *random* graph ("Initialize G0 with random
lists") and refines it by alternating clustering and within-cluster
comparison.  NN-Descent starts the same way.  Every starting graph is drawn
by one routine, :func:`fill_random_neighbors`, which turns the ``-1`` holes
of a neighbour table into random ids: a random graph
(:func:`random_knn_graph`) is an all-hole table filled.

Compaction resumes Alg. 3 instead: the graph that survives a delete is a
late-round state of the same evolving process, so its lists are renumbered
onto the live rows (:func:`surviving_lists`) and only the entries that
pointed at a removed row are holes to fill.
"""

from __future__ import annotations

import numpy as np

from ..distance import DistanceEngine
from ..validation import check_data_matrix, check_positive_int, check_random_state
from .knngraph import KNNGraph
from .repair import materialize_row_distances

__all__ = ["random_knn_graph", "fill_random_neighbors",
           "surviving_lists"]


def random_knn_graph(data: np.ndarray, n_neighbors: int, *, random_state=None,
                     metric: str = "sqeuclidean", dtype=np.float64,
                     engine: DistanceEngine | None = None) -> KNNGraph:
    """Graph whose neighbour lists are uniform random samples (no self-loops).

    The lists are an all-hole table filled by :func:`fill_random_neighbors`;
    their true distances are then computed and every row sorted by them —
    the distance-sorted rows NN-Descent's merges
    (:func:`~repro.graph.repair.merge_offers`) start from.

    Parameters
    ----------
    data:
        ``(n, d)`` dataset the graph indexes.
    n_neighbors:
        Number of neighbours per point (must be < n).
    random_state:
        Seed or generator.
    metric, dtype:
        Distance engine configuration; ignored when ``engine`` is given.
    engine:
        Optional pre-built :class:`~repro.distance.DistanceEngine`.
    """
    if engine is None:
        engine = DistanceEngine(metric, dtype)
    data = check_data_matrix(data, min_samples=2, dtype=engine.dtype)
    n = data.shape[0]
    n_neighbors = check_positive_int(n_neighbors, name="n_neighbors",
                                     maximum=n - 1)
    indices = fill_random_neighbors(np.full((n, n_neighbors), -1),
                                    random_state)
    indices, distances = materialize_row_distances(data, indices, engine,
                                                   engine.norms(data))
    return KNNGraph(indices, distances, metric=engine.metric)


def fill_random_neighbors(indices: np.ndarray,
                          random_state=None) -> np.ndarray:
    """Draw every ``-1`` entry of a neighbour table at random.

    This is the random lists' rule (Alg. 3, line 1).  Row ``i`` of the
    ``(n, κ)`` table holds distinct ids of other rows and ``-1`` holes.
    Each hole becomes a uniform draw among the ids its row lacks — not
    ``i``, not an id the row holds or an earlier draw took — so an all-hole
    row becomes a uniform κ-subset in uniform order.  While at least half
    the ids are free (``2κ ≤ n``) a hole is drawn from ``[0, n - 1)``,
    shifted past the row itself, and drawn again while it repeats an entry
    of its row; beyond that each hole takes the row's next free id in a
    random order.  Rows without holes are untouched and consume no
    randomness.  Returns a new table.
    """
    rng = check_random_state(random_state)
    table = np.array(indices, dtype=np.int64)
    n, n_neighbors = table.shape
    holed = np.flatnonzero((table < 0).any(axis=1))
    if not holed.size:
        return table
    rows = table[holed]
    holes = rows < 0
    if 2 * n_neighbors > n:
        # Few ids are free, so a redraw would rarely hit one — and the
        # (rows, n) score table is small, n being below 2κ.  Each hole
        # takes the row's next free id in a random order.
        scores = rng.random((holed.size, n))
        lanes = np.arange(holed.size)[:, None]
        scores[lanes, np.where(holes, holed[:, None], rows)] = np.inf
        scores[lanes[:, 0], holed] = np.inf
        free = np.argsort(scores, axis=1, kind="stable")
        lane, slot = holes.nonzero()
        rank = np.cumsum(holes, axis=1)[lane, slot] - 1
        rows[lane, slot] = free[lane, rank]
    else:
        unsettled = np.arange(holed.size)
        while unsettled.size:
            block, redraw = rows[unsettled], holes[unsettled]
            lane = redraw.nonzero()[0]
            draws = rng.integers(0, n - 1, size=lane.size)
            draws[draws >= holed[unsettled][lane]] += 1
            block[redraw] = draws
            # Kept entries are distinct and sort first among equals, so
            # only a draw is ever flagged as the repeat.
            order = np.lexsort((redraw, block), axis=1)
            ranked = np.take_along_axis(block, order, axis=1)
            repeats = np.zeros(block.shape, dtype=bool)
            np.put_along_axis(repeats, order[:, 1:],
                              ranked[:, 1:] == ranked[:, :-1], axis=1)
            rows[unsettled], holes[unsettled] = block, repeats
            unsettled = unsettled[repeats.any(axis=1)]
    table[holed] = rows
    return table


def surviving_lists(indices: np.ndarray, live: np.ndarray,
                    n_neighbors: int) -> np.ndarray:
    """The live rows' neighbour lists, renumbered onto the live rows.

    ``indices`` is the ``(n_rows, w)`` table of a graph some of whose rows
    are removed; ``live`` masks the rows that stay.  Returns the live rows'
    ``(n_live, n_neighbors)`` lists in live-row numbering, in their order,
    with ``-1`` where an entry named a removed row (or was padding) — the
    holes :func:`fill_random_neighbors` draws.  When ``w`` differs from
    ``n_neighbors`` the kept entries close ranks first and the lists are
    cut or padded to width.
    """
    position = np.full(live.size + 1, -1, dtype=np.int64)
    position[:-1][live] = np.arange(np.count_nonzero(live))
    table = position[indices[live]]           # -1 padding reads the last
    width = table.shape[1]
    if width != n_neighbors:
        table = np.take_along_axis(
            table, np.argsort(table < 0, axis=1, kind="stable"), axis=1)
        table = table[:, :n_neighbors]
        if width < n_neighbors:
            table = np.pad(table, ((0, 0), (0, n_neighbors - width)),
                           constant_values=-1)
    return table
