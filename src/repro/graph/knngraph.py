"""Immutable-ish k-NN graph container shared by clustering and search code."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distance import resolve_metric
from ..exceptions import GraphError
from ..validation import check_knn_indices

__all__ = ["KNNGraph"]


@dataclass
class KNNGraph:
    """An approximate k-nearest-neighbour graph over ``n`` points.

    Attributes
    ----------
    indices:
        ``(n, k)`` int64 matrix; row ``i`` lists the (approximate) nearest
        neighbours of point ``i`` in ascending distance order.  ``-1`` marks a
        missing neighbour (only possible when ``k >= n``).
    distances:
        ``(n, k)`` float64 matrix of distances aligned with ``indices``
        (``inf`` for missing entries).  Optional — algorithms that only need
        the adjacency (GK-means) accept graphs without distances.
    metric:
        The metric the distances were computed under (``"sqeuclidean"``,
        ``"cosine"`` or ``"dot"``).  Bookkeeping only; note that ``dot``
        distances (negated inner products) are legitimately negative.
    """

    indices: np.ndarray
    distances: np.ndarray | None = None
    metric: str = "sqeuclidean"

    def __post_init__(self) -> None:
        self.indices = check_knn_indices(self.indices, self.indices.shape[0])
        # Canonicalise eagerly so every downstream metric comparison (searcher
        # guards, persistence, truncation) sees one spelling per metric.
        self.metric = resolve_metric(self.metric)
        if self.distances is not None:
            self.distances = np.asarray(self.distances, dtype=np.float64)
            if self.distances.shape != self.indices.shape:
                raise GraphError(
                    f"distances shape {self.distances.shape} does not match "
                    f"indices shape {self.indices.shape}")

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_points(self) -> int:
        """Number of points the graph indexes."""
        return int(self.indices.shape[0])

    @property
    def n_neighbors(self) -> int:
        """Number of neighbour slots per point (κ)."""
        return int(self.indices.shape[1])

    def __len__(self) -> int:
        return self.n_points

    # ------------------------------------------------------------------ #
    # Accessors
    # ------------------------------------------------------------------ #
    def neighbors(self, point: int) -> np.ndarray:
        """Valid neighbour ids of ``point`` (padding removed)."""
        row = self.indices[point]
        return row[row >= 0]

    def truncated(self, n_neighbors: int) -> "KNNGraph":
        """A new graph keeping only the first ``n_neighbors`` columns."""
        if n_neighbors > self.n_neighbors:
            raise GraphError(
                f"cannot truncate to {n_neighbors} neighbours, graph only has "
                f"{self.n_neighbors}")
        distances = None
        if self.distances is not None:
            distances = self.distances[:, :n_neighbors].copy()
        return KNNGraph(self.indices[:, :n_neighbors].copy(), distances,
                        metric=self.metric)

    def symmetrized_adjacency(self) -> list[np.ndarray]:
        """Per-point union of out-neighbours and in-neighbours.

        Greedy graph search benefits from the reverse edges; this helper builds
        the symmetrised adjacency once so search does not repeatedly scan the
        index matrix.
        """
        n = self.n_points
        sources = np.repeat(np.arange(n, dtype=np.int64),
                            self.n_neighbors)
        targets = self.indices.ravel()
        keep = (targets >= 0) & (targets != sources)
        sources, targets = sources[keep], targets[keep]
        # Every edge in both directions as one ``row * n + column`` key:
        # sorting the keys groups them by row with ascending columns and
        # puts duplicates side by side.  (Sorted in place: ``np.unique``
        # costs three times the memory here.)
        keys = np.concatenate([sources * n + targets, targets * n + sources])
        keys.sort()
        fresh = np.ones(keys.size, dtype=bool)
        fresh[1:] = keys[1:] != keys[:-1]
        keys = keys[fresh]
        bounds = np.searchsorted(keys, np.arange(n + 1) * n)
        keys %= n
        return [keys[bounds[point]:bounds[point + 1]] for point in range(n)]

    # ------------------------------------------------------------------ #
    # Validation
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise :class:`GraphError` if the graph breaks a structural invariant."""
        n = self.n_points
        if np.any(self.indices == np.arange(n)[:, None]):
            raise GraphError("graph contains self-loops")
        for point in range(n):
            valid = self.indices[point][self.indices[point] >= 0]
            if len(np.unique(valid)) != len(valid):
                raise GraphError(f"row {point} contains duplicate neighbours")
        if self.distances is not None:
            finite = self.indices >= 0
            # "dot" distances are negated inner products and may legitimately
            # be negative; the other metrics are non-negative by definition.
            if self.metric != "dot" and np.any(self.distances[finite] < 0):
                raise GraphError("graph contains negative distances")
            ordered = np.all(np.diff(self.distances, axis=1) >= -1e-9, axis=1)
            if not np.all(ordered):
                raise GraphError("graph rows are not sorted by distance")

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_heap(cls, heap, *, metric: str | None = None) -> "KNNGraph":
        """Build a graph from a :class:`~repro.graph.neighbor_heap.NeighborHeap`.

        The metric defaults to the one the heap's distances were pushed under
        (``heap.metric``), so a heap built for cosine or inner-product work
        cannot silently produce a ``sqeuclidean``-labelled graph.  An explicit
        ``metric`` is accepted only when it agrees with the heap's.
        """
        heap_metric = getattr(heap, "metric", None)
        if metric is None:
            metric = "sqeuclidean" if heap_metric is None else heap_metric
        elif heap_metric is not None and \
                resolve_metric(metric) != resolve_metric(heap_metric):
            raise GraphError(
                f"heap distances were computed under metric {heap_metric!r} "
                f"but from_heap was asked to label the graph {metric!r}")
        indices, distances = heap.to_arrays()
        return cls(indices, distances, metric=metric)
