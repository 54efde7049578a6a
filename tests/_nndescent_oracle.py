"""Oracle for NN-Descent: the pair-at-a-time heap loop the batched build
replaced.

``NNDescent.build`` runs each local-join round as whole-array batches and
merges the round's updates at its end (:func:`repro.graph.repair.merge_offers`).
The loop it replaced lives here: candidate lists gathered one slot at a
time, and every scored pair pushed into a :class:`NeighborHeap` as soon as
it is scored.  It starts from the batched build's random graph (its own
per-row start is gone), so under one seed both start alike.  Given the
same candidate lists both leave each row the κ best of itself and its
offers, but the two draw their subsamples differently, so the loop is a
*quality* oracle: ``tests/test_nndescent_contract.py`` holds the batched
build to its recall and its evaluation count.
"""

import numpy as np

from repro.distance import DistanceEngine, resolve_metric
from repro.exceptions import GraphError
from repro.graph import KNNGraph, random_knn_graph
from repro.validation import check_positive_int, check_random_state


class NeighborHeap:
    """Per-point bounded lists of the closest neighbours seen so far.

    Parameters
    ----------
    n_points:
        Number of points in the dataset.
    n_neighbors:
        Capacity ``k`` of every neighbour list.
    metric:
        Metric the pushed distances are computed under.  Bookkeeping only, but
        it travels into :func:`to_graph` so graphs extracted from the heap
        keep the right label.

    Notes
    -----
    Rows are kept sorted in ascending distance.  Empty slots hold index ``-1``
    and distance ``+inf``.  Duplicate (point, neighbour) pairs are ignored.
    """

    def __init__(self, n_points: int, n_neighbors: int, *,
                 metric: str = "sqeuclidean") -> None:
        self.n_points = check_positive_int(n_points, name="n_points")
        self.n_neighbors = check_positive_int(n_neighbors, name="n_neighbors")
        self.metric = resolve_metric(metric)
        self.indices = np.full((n_points, n_neighbors), -1, dtype=np.int64)
        self.distances = np.full((n_points, n_neighbors), np.inf,
                                 dtype=np.float64)
        # "new" flags drive NN-Descent's incremental local join.
        self.flags = np.zeros((n_points, n_neighbors), dtype=bool)

    def push(self, point: int, neighbor: int, distance: float, *,
             flag: bool = True) -> bool:
        """Offer ``neighbor`` at ``distance`` to ``point``'s list.

        Returns ``True`` if the list changed (the candidate was closer than the
        current worst and not already present).
        """
        if point == neighbor:
            return False
        row_dist = self.distances[point]
        if distance >= row_dist[-1]:
            return False
        row_idx = self.indices[point]
        # Reject duplicates.
        if neighbor in row_idx:
            return False
        # Find insertion position in the sorted row.
        position = int(np.searchsorted(row_dist, distance))
        row_idx[position + 1:] = row_idx[position:-1]
        row_dist[position + 1:] = row_dist[position:-1]
        row_flags = self.flags[point]
        row_flags[position + 1:] = row_flags[position:-1]
        row_idx[position] = neighbor
        row_dist[position] = distance
        row_flags[position] = flag
        return True

    def push_symmetric(self, i: int, j: int, distance: float, *,
                       flag: bool = True) -> int:
        """Offer the pair ``(i, j)`` to both lists; return how many changed."""
        changed = 0
        if self.push(i, j, distance, flag=flag):
            changed += 1
        if self.push(j, i, distance, flag=flag):
            changed += 1
        return changed

    def worst_distance(self, point: int) -> float:
        """Distance of the current ``k``-th neighbour (``inf`` if not full)."""
        return float(self.distances[point, -1])

    def neighbors_of(self, point: int) -> np.ndarray:
        """Valid (non-padding) neighbour indices of ``point``."""
        row = self.indices[point]
        return row[row >= 0]

    def mark_all_old(self) -> None:
        """Clear every "new" flag (used between NN-Descent rounds)."""
        self.flags[:] = False

    def to_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the (indices, distances) matrices, sorted by distance."""
        return self.indices.copy(), self.distances.copy()

    def validate(self) -> None:
        """Check the internal invariants; raises :class:`GraphError` if broken.

        Invariants: rows sorted by distance, no self-loops, no duplicate
        neighbours, padding (-1/inf) only at the tail.
        """
        for point in range(self.n_points):
            row_idx = self.indices[point]
            row_dist = self.distances[point]
            valid = row_idx >= 0
            if np.any(np.diff(row_dist[valid]) < -1e-12):
                raise GraphError(f"row {point} is not sorted by distance")
            if np.any(row_idx[valid] == point):
                raise GraphError(f"row {point} contains a self-loop")
            valid_ids = row_idx[valid]
            if len(np.unique(valid_ids)) != len(valid_ids):
                raise GraphError(f"row {point} contains duplicate neighbours")
            if valid.any():
                last_valid = np.nonzero(valid)[0][-1]
                if not valid[: last_valid + 1].all():
                    raise GraphError(
                        f"row {point} has padding before a valid neighbour")


def to_graph(heap: NeighborHeap) -> KNNGraph:
    """The heap's rows as a graph labelled with the heap's metric."""
    indices, distances = heap.to_arrays()
    return KNNGraph(indices, distances, metric=heap.metric)


def heap_nn_descent(data, n_neighbors, *, max_iterations=10,
                    sample_rate=1.0, early_termination=0.001,
                    random_state=None, metric="sqeuclidean",
                    dtype=np.float64):
    """NN-Descent one pushed pair at a time.

    Returns ``(graphs, n_updates, evaluations)``: the graph after every
    round, the successful pushes per round, and the running distance
    evaluation count after every round (the random start's included).
    """
    engine = DistanceEngine(metric, dtype)
    data = engine.prepare(data)
    norms = engine.norms(data)
    rng = check_random_state(random_state)
    n = data.shape[0]

    def cross(rows, cols):
        return engine.cross(
            data[rows], data[cols],
            a_norms=None if norms is None else norms[rows],
            b_norms=None if norms is None else norms[cols])

    # The batched build's random start, so a shared seed gives both one
    # starting graph and they differ only in the joins and subsamples.
    start = random_knn_graph(data, n_neighbors, random_state=rng,
                             engine=engine)
    heap = NeighborHeap(n, n_neighbors, metric=engine.metric)
    heap.indices[:] = start.indices
    heap.distances[:] = start.distances
    heap.flags[:] = True
    evaluations = n * n_neighbors
    max_candidates = max(n_neighbors, 2) * 2
    graphs, n_updates, counts = [], [], []
    for _ in range(max_iterations):
        new_candidates = [[] for _ in range(n)]
        old_candidates = [[] for _ in range(n)]
        for point in range(n):
            for slot in range(n_neighbors):
                neighbor = int(heap.indices[point, slot])
                if neighbor < 0:
                    continue
                is_new = bool(heap.flags[point, slot])
                if is_new and (sample_rate >= 1.0
                               or rng.random() < sample_rate):
                    new_candidates[point].append(neighbor)
                    new_candidates[neighbor].append(point)
                    heap.flags[point, slot] = False
                elif not is_new:
                    old_candidates[point].append(neighbor)
                    old_candidates[neighbor].append(point)
        updates = 0
        for point in range(n):
            new_ids = np.unique(np.asarray(new_candidates[point],
                                           dtype=np.int64))
            old_ids = np.unique(np.asarray(old_candidates[point],
                                           dtype=np.int64))
            if new_ids.size > max_candidates:
                new_ids = rng.choice(new_ids, size=max_candidates,
                                     replace=False)
            if old_ids.size > max_candidates:
                old_ids = rng.choice(old_ids, size=max_candidates,
                                     replace=False)
            if new_ids.size == 0:
                continue
            if new_ids.size > 1:
                block = cross(new_ids, new_ids)
                evaluations += new_ids.size * (new_ids.size - 1) // 2
                for a in range(new_ids.size):
                    for b in range(a + 1, new_ids.size):
                        updates += heap.push_symmetric(
                            int(new_ids[a]), int(new_ids[b]),
                            float(block[a, b]))
            if old_ids.size:
                block = cross(new_ids, old_ids)
                evaluations += new_ids.size * old_ids.size
                for a in range(new_ids.size):
                    for b in range(old_ids.size):
                        if new_ids[a] == old_ids[b]:
                            continue
                        updates += heap.push_symmetric(
                            int(new_ids[a]), int(old_ids[b]),
                            float(block[a, b]))
        graphs.append(to_graph(heap))
        n_updates.append(updates)
        counts.append(evaluations)
        if updates <= early_termination * n * n_neighbors:
            break
    return graphs, n_updates, counts
