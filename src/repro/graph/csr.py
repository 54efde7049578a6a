"""Flat CSR adjacency: the searcher's cache-friendly graph layout.

A Python list of per-node id arrays is simple, but a walk over it chases
one heap-allocated object per expansion and the neighbour ids of adjacent
nodes are scattered across the heap.  :class:`CSRAdjacency` packs the rows
into the classic compressed-sparse-row pair — one ``indptr`` offset array
plus one contiguous int32 ``indices`` array — so a node's neighbourhood is
a constant-time slice of a single buffer and consecutive nodes'
neighbourhoods are physically adjacent.

:meth:`~repro.graph.knngraph.KNNGraph.adjacency` derives the searcher's
rows straight into this form (its edge-key sort already yields CSR order),
and an online insert re-derives only the rows its repair touched and swaps
them in with :meth:`splice`.  ``csr[node]`` returns the same values as a
row list's ``rows[node]`` would, and the walks accept either
representation, so the exact walks are bit-for-bit unchanged by the
layout — a contract the determinism suite enforces.  :meth:`from_rows`
packs a row list.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import GraphError

__all__ = ["CSRAdjacency"]


class CSRAdjacency:
    """Adjacency rows packed into one ``(indptr, indices)`` buffer pair.

    Attributes
    ----------
    indptr:
        ``(n + 1,)`` int64 row offsets; node ``i``'s neighbours live at
        ``indices[indptr[i]:indptr[i + 1]]``.
    indices:
        ``(nnz,)`` int32 neighbour ids, rows concatenated in node order
        (each row keeps the ascending id order symmetrisation produces).
    """

    __slots__ = ("indptr", "indices")

    def __init__(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        self.indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        self.indices = np.ascontiguousarray(indices, dtype=np.int32)
        if self.indptr.ndim != 1 or self.indptr.size == 0:
            raise GraphError("CSR indptr must be a non-empty 1-D array")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size or \
                np.any(np.diff(self.indptr) < 0):
            raise GraphError(
                "CSR indptr must be non-decreasing, start at 0 and end at "
                f"len(indices)={self.indices.size}")

    @classmethod
    def from_rows(cls, rows) -> "CSRAdjacency":
        """Pack a list of per-node neighbour-id arrays (or another
        ``CSRAdjacency``, returned as-is) into CSR form."""
        if isinstance(rows, cls):
            return rows
        counts = np.fromiter((len(row) for row in rows), dtype=np.int64,
                             count=len(rows))
        indptr = np.zeros(len(rows) + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        if len(rows):
            indices = np.concatenate(
                [np.asarray(row, dtype=np.int32) for row in rows])
        else:
            indices = np.empty(0, dtype=np.int32)
        return cls(indptr, indices)

    def splice(self, nodes: np.ndarray,
               rows: "CSRAdjacency") -> "CSRAdjacency":
        """A new adjacency whose rows ``nodes`` are the rows of ``rows``.

        ``nodes`` is ascending and distinct, ``rows`` holds one row per
        node in that order.  Nodes from ``len(self)`` on grow the
        adjacency (rows past the end that ``nodes`` skips are empty).
        Every other row is copied from ``self`` in one masked pass — no
        per-row work and no sort.
        """
        nodes = np.asarray(nodes, dtype=np.int64)
        old = len(self)
        n = max(old, int(nodes[-1]) + 1) if nodes.size else old
        old_counts = np.diff(self.indptr)
        counts = np.zeros(n, dtype=np.int64)
        counts[:old] = old_counts
        counts[nodes] = np.diff(rows.indptr)
        replaced = np.zeros(n, dtype=bool)
        replaced[nodes] = True
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        fresh = np.repeat(replaced, counts)
        indices[fresh] = rows.indices
        indices[~fresh] = self.indices[~np.repeat(replaced[:old], old_counts)]
        return CSRAdjacency(indptr, indices)

    @property
    def n_edges(self) -> int:
        """Total number of stored (directed) edges."""
        return int(self.indices.size)

    def __len__(self) -> int:
        return int(self.indptr.size - 1)

    def __getitem__(self, node: int) -> np.ndarray:
        """Neighbour ids of ``node`` — a zero-copy slice of the flat
        buffer."""
        return self.indices[self.indptr[node]:self.indptr[node + 1]]

    def gather(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Neighbour ids of many nodes in one ragged gather.

        Returns ``(flat_ids, lengths)``: the rows of ``nodes`` concatenated
        in the order given (a repeated node repeats its row) and each row's
        length — ``np.concatenate([self[i] for i in nodes])`` without the
        per-node slicing.
        """
        ends = self.indptr[1:][nodes]
        lengths = ends - self.indptr[nodes]
        # Flat position p, inside row r, reads indices[ends[r] - (cumulative
        # length through r) + p].
        position = (ends - lengths.cumsum()).repeat(lengths)
        position += np.arange(position.size)
        return self.indices[position], lengths

    def __repr__(self) -> str:
        return (f"CSRAdjacency(n={len(self)}, "
                f"n_edges={self.n_edges})")
