"""Oracle for online inserts: the per-row loop the batched repair replaced.

``GraphSearcher.insert_points`` seeds a whole call with one walk over the
pre-insert graph, joins the batch as one cluster and merges every back-edge
at once.  The loop it replaced — each row seeded by a batch-of-one walk over
the rows before it, joined on its own, its back-edges pushed one at a time
into an unpacked row list — lives here.  New rows no longer seed from rows
inserted earlier in the same call, so the two are not bitwise equal: the
loop is a *quality* oracle (``tests/test_insert_contract.py`` holds the
batched graph to its recall), and its one-at-a-time push is the order the
batched merge must reproduce.
"""

import numpy as np

from repro.graph.csr import CSRAdjacency
from repro.graph.knngraph import KNNGraph
from repro.search.frontier import frontier_batch_search


def to_rows(adjacency: CSRAdjacency) -> list:
    """Unpack a CSR adjacency into a list of int64 id arrays."""
    return [adjacency[node].astype(np.int64) for node in range(len(adjacency))]


def refine_row(engine, data, norms, indices, vector, seeds, n_neighbors):
    """One row's local join: ``seeds`` and their out-neighbours, deduped,
    scored in one gemm, the ``n_neighbors`` nearest by ``(distance, id)``."""
    neighbor_pool = indices[seeds].ravel()
    candidates = np.unique(np.concatenate(
        [np.asarray(seeds, dtype=np.int64),
         neighbor_pool[neighbor_pool >= 0]]))
    dists = engine.cross(
        vector, data[candidates],
        b_norms=None if norms is None else norms[candidates])[0]
    order = np.argsort(dists, kind="stable")[:n_neighbors]
    return candidates[order], dists[order].astype(np.float64)


def push_row(indices, distances, pos, row_ids, row_dists, adjacency=None):
    """Offer ``pos`` to each node of its row, one push at a time.

    A push enters a distance-sorted row at its ``searchsorted(side=
    "right")`` slot when that is inside the row (ties lose) and displaces
    the worst entry.  ``adjacency``, when given, is a symmetrised row list
    kept consistent edge by edge.
    """
    n_neighbors = indices.shape[1]
    for j, dj in zip(row_ids.tolist(), row_dists.tolist()):
        if adjacency is not None:
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
        if adjacency is not None and dropped >= 0 \
                and not np.any(indices[dropped] == j):
            adjacency[j] = adjacency[j][adjacency[j] != dropped]
            adjacency[dropped] = adjacency[dropped][adjacency[dropped] != j]


def insert_per_row(searcher, vectors) -> KNNGraph:
    """The repaired graph the per-row loop builds over ``searcher``'s data
    plus ``vectors`` (the searcher itself is left as it was).  Every row is
    seeded from the searcher's partition of the pre-insert rows."""
    engine = searcher.engine_
    vectors = engine.prepare(vectors)
    graph = searcher.graph
    n_neighbors = graph.n_neighbors
    first = searcher.data.shape[0]
    total = first + vectors.shape[0]
    indices = np.full((total, n_neighbors), -1, dtype=np.int64)
    indices[:first] = graph.indices
    distances = np.full((total, n_neighbors), np.inf, dtype=np.float64)
    distances[:first] = graph.distances
    data = np.vstack([searcher.data, vectors])
    norms = engine.norms(data)
    adjacency = to_rows(graph.adjacency())
    ef = max(searcher.pool_size, 2 * n_neighbors)
    for pos in range(first, total):
        row_norms = None if norms is None else norms[:pos]
        found, _, _, _ = frontier_batch_search(
            data[:pos], adjacency, data[pos], min(ef, pos), pool_size=ef,
            n_starts=searcher.n_starts, partition=searcher._partition,
            engine=engine, data_norms=row_norms)
        seeds = found[0][found[0] >= 0]
        row_ids, row_dists = refine_row(engine, data[:pos], row_norms,
                                        indices[:pos], data[pos], seeds,
                                        n_neighbors)
        indices[pos, :row_ids.size] = row_ids
        distances[pos, :row_dists.size] = row_dists
        adjacency.append(np.sort(row_ids).astype(np.int64))
        push_row(indices, distances, pos, row_ids, row_dists, adjacency)
    return KNNGraph(indices, distances, metric=graph.metric)
