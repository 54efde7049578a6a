"""Immutable-ish k-NN graph container shared by clustering and search code."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..distance import resolve_metric
from ..exceptions import GraphError
from ..validation import check_knn_indices
from .csr import CSRAdjacency

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
        The metric the distances were computed under (``"sqeuclidean"`` or
        ``"cosine"``).  Bookkeeping only.
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

    def adjacency(self, *, nodes: np.ndarray | None = None) -> CSRAdjacency:
        """The search adjacency of ``nodes`` (every point by default).

        A point's row is the ascending union of its out- and in-neighbours,
        padding and self-loops dropped — graph search gains markedly from
        the reverse edges.  The rows come back packed as a
        :class:`~repro.graph.csr.CSRAdjacency`, one per node of ``nodes``
        (ascending, distinct) in that order; an online insert asks for just
        the rows its repair touched.
        """
        n = self.n_points
        if nodes is None:
            nodes = np.arange(n)
            wanted = None
        else:
            nodes = np.asarray(nodes, dtype=np.int64)
            wanted = np.zeros(n, dtype=bool)
            wanted[nodes] = True
        indptr = np.zeros(nodes.size + 1, dtype=np.int64)
        sources = np.repeat(np.arange(n, dtype=np.int64), self.n_neighbors)
        targets = self.indices.ravel()
        keep = (targets >= 0) & (targets != sources)
        sources, targets = sources[keep], targets[keep]
        # Every edge in both directions as one ``row * n + column`` key,
        # kept only when its row is wanted: sorting the keys groups them
        # by row with ascending columns — CSR order — and puts duplicates
        # side by side.  (Sorted in place: ``np.unique`` costs three times
        # the memory here.)
        forward = sources * n + targets
        backward = targets * n + sources
        if wanted is not None:
            forward = forward[wanted[sources]]
            backward = backward[wanted[targets]]
        keys = np.empty(forward.size + backward.size, dtype=np.int64)
        keys[:forward.size] = forward
        keys[forward.size:] = backward
        keys.sort()
        fresh = np.ones(keys.size, dtype=bool)
        fresh[1:] = keys[1:] != keys[:-1]
        keys = keys[fresh]
        np.cumsum(np.bincount(keys // n, minlength=n)[nodes], out=indptr[1:])
        return CSRAdjacency(indptr, keys % n)

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
            if np.any(self.distances[finite] < 0):
                raise GraphError("graph contains negative distances")
            ordered = np.all(np.diff(self.distances, axis=1) >= -1e-9, axis=1)
            if not np.all(ordered):
                raise GraphError("graph rows are not sorted by distance")
