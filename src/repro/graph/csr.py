"""Flat CSR adjacency: the searcher's cache-friendly graph layout.

:meth:`~repro.graph.knngraph.KNNGraph.symmetrized_adjacency` produces a
Python list of per-node id arrays — simple, but the frontier walk then
chases one heap-allocated object per expansion and the neighbour ids of
adjacent nodes are scattered across the heap.  :class:`CSRAdjacency` packs
the same rows into the classic compressed-sparse-row pair — one ``indptr``
offset array plus one contiguous int32 ``indices`` array — so a node's
neighbourhood is a constant-time slice of a single buffer and consecutive
nodes' neighbourhoods are physically adjacent.

Row *contents* are preserved exactly (same ids, same ascending order the
symmetrisation produces), and ``csr[node]`` returns the same values
``rows[node]`` would — the exact walks are therefore bit-for-bit unchanged
by the layout, a contract the determinism suite enforces.  The walks accept
either representation (a plain list of arrays or a ``CSRAdjacency``), so
graph-repair code that edits individual rows keeps its list-of-arrays
working form and converts at the searcher boundary via :meth:`from_rows` /
:meth:`to_rows`.
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

    def to_rows(self) -> list:
        """Unpack into the list-of-int64-arrays form graph repair edits."""
        return [self.indices[self.indptr[node]:self.indptr[node + 1]]
                .astype(np.int64)
                for node in range(len(self))]

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
        nodes = np.asarray(nodes, dtype=np.int64)
        starts = self.indptr[nodes]
        lengths = self.indptr[nodes + 1] - starts
        firsts = np.cumsum(lengths) - lengths
        # Flat position p, inside row r, reads indices[starts[r] + p -
        # firsts[r]].
        position = np.repeat(starts - firsts, lengths)
        position += np.arange(position.size)
        return self.indices[position], lengths

    def __repr__(self) -> str:
        return (f"CSRAdjacency(n={len(self)}, "
                f"n_edges={self.n_edges})")
