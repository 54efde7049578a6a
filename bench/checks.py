"""Output checks, run after (never inside) the timed section.

Every check works from plain numpy on the arrays the program returned — the
oracle shares no code with ``repro``.  A violated check marks the operation
that produced the output as failed and is reported by name; workload-level
checks (recall floors, post-compaction state, executor parity) count as one
failed operation each.
"""

from __future__ import annotations

import collections

import numpy as np

__all__ = ["K", "RECALL_FLOOR", "DISTORTION_CEILING",
           "Violations", "brute_force_topk", "check_search_output",
           "graph_recall_at_k", "rows_match_up_to_ties"]

#: Neighbours requested by every search in the benchmark.
K = 10
#: Floor on ``recall_at_10``.  Measured 0.9992–0.9998 on seeds 1, 2, 3, 7
#: for every search workload and 0.9994 for the Alg. 3 graph on ``build``.
RECALL_FLOOR = 0.98
#: GK-means distortion over the Lloyd reference; measured 0.960–0.962.
DISTORTION_CEILING = 1.02
#: The exact re-rank contract: a returned distance equals the float64
#: metric of (query, row) within this factor of ‖q‖² + ‖x‖².
DISTANCE_TOLERANCE = 1e-3


class Violations:
    """Named check failures, per operation and per workload."""

    def __init__(self) -> None:
        self.by_name: collections.Counter = collections.Counter()
        self.failed_ops: set = set()

    def add(self, name: str, op) -> None:
        """Record that check ``name`` failed for operation ``op`` (any
        hashable; workload-level checks pass a string)."""
        self.by_name[name] += 1
        self.failed_ops.add(op)

    def require(self, ok: bool, name: str, op) -> None:
        """Record a violation of ``name`` unless ``ok``."""
        if not ok:
            self.add(name, op)


def brute_force_topk(queries: np.ndarray, corpus: np.ndarray, k: int = K,
                     block: int = 128) -> np.ndarray:
    """``(m, k)`` ascending squared-Euclidean distances of each query's true
    nearest corpus rows, in float64."""
    queries = np.asarray(queries, dtype=np.float64)
    corpus = np.asarray(corpus, dtype=np.float64)
    corpus_norms = np.einsum("ij,ij->i", corpus, corpus)
    out = np.empty((queries.shape[0], k), dtype=np.float64)
    for start in range(0, queries.shape[0], block):
        rows = queries[start:start + block]
        dists = corpus_norms[None, :] - 2.0 * (rows @ corpus.T)
        dists += np.einsum("ij,ij->i", rows, rows)[:, None]
        out[start:start + block] = np.sort(
            np.partition(dists, k - 1, axis=1)[:, :k], axis=1)
    return np.maximum(out, 0.0)


def check_search_output(violations: Violations, ops, queries: np.ndarray,
                        ids: np.ndarray, dists: np.ndarray,
                        corpus: np.ndarray, corpus_ids: np.ndarray,
                        k: int = K) -> float:
    """Check search results row by row against the live corpus.

    ``ops`` names the operation behind each row — one label for a batch
    call, one per row when every row was its own request — so a violation
    fails exactly the operation that returned it.  ``corpus``/``corpus_ids``
    are the live rows and their external ids (ascending).  Returns the
    number of true top-``k`` neighbours found, summed over the rows (0 when
    the shape is wrong), so the caller can pool recall over calls.
    """
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    ids = np.atleast_2d(np.asarray(ids))
    dists = np.atleast_2d(np.asarray(dists, dtype=np.float64))
    m = queries.shape[0]
    ops = np.broadcast_to(np.asarray(ops, dtype=object), (m,))
    if ids.shape != (m, k) or dists.shape != (m, k):
        for op in set(ops):
            violations.add("shape", op)
        return 0.0
    slots = np.searchsorted(corpus_ids, ids).clip(0, corpus_ids.size - 1)
    live = corpus_ids[slots] == ids
    ordered = np.sort(ids, axis=1)
    rows = np.asarray(corpus[slots], dtype=np.float64)          # (m, k, d)
    exact = ((rows - queries[:, None, :]) ** 2).sum(axis=2)
    scale = (queries ** 2).sum(axis=1)[:, None] + (rows ** 2).sum(axis=2)
    close = np.abs(exact - dists) <= DISTANCE_TOLERANCE * scale
    passed = {
        "ids_live": live.all(axis=1),
        "ids_unique": (ordered[:, 1:] != ordered[:, :-1]).all(axis=1),
        "distances_finite": np.isfinite(dists).all(axis=1),
        "distances_sorted": (np.diff(dists, axis=1) >= 0).all(axis=1),
        "distances_exact": (close | ~live).all(axis=1),
    }
    for name, ok in passed.items():
        for row in np.flatnonzero(~ok):
            violations.add(name, ops[row])
    # A returned row counts as found when it is no farther than the true
    # k-th neighbour, so ties at the boundary cannot cost recall.
    kth = brute_force_topk(queries, corpus, k)[:, -1:]
    found = live & (exact <= kth * (1.0 + 1e-9) + 1e-9)
    return float(found.sum())


def graph_recall_at_k(indices: np.ndarray, data: np.ndarray,
                      k: int = K) -> float:
    """Share of each point's true ``k`` nearest other points that its graph
    row lists (ties at the boundary count as found)."""
    data = np.asarray(data, dtype=np.float64)
    norms = np.einsum("ij,ij->i", data, data)
    found = 0
    for start in range(0, data.shape[0], 256):
        stop = min(start + 256, data.shape[0])
        dists = norms[None, :] - 2.0 * (data[start:stop] @ data.T)
        dists += norms[start:stop, None]
        dists[np.arange(stop - start), np.arange(start, stop)] = np.inf
        kth = np.partition(dists, k - 1, axis=1)[:, k - 1:k]
        listed = indices[start:stop, :k]
        picked = np.take_along_axis(dists, np.maximum(listed, 0), axis=1)
        found += int(((listed >= 0)
                      & (picked <= kth + 1e-9 * np.abs(kth) + 1e-9)).sum())
    return found / (data.shape[0] * k)


def rows_match_up_to_ties(ids_a: np.ndarray, dists_a: np.ndarray,
                          ids_b: np.ndarray, dists_b: np.ndarray) -> bool:
    """Whether two result sets agree row-wise up to permutations among
    equal distances (the executors' parity contract)."""
    if ids_a.shape != ids_b.shape or not np.allclose(
            dists_a, dists_b, rtol=1e-6, atol=0.0):
        return False
    differs = ids_a != ids_b
    if not differs.any():
        return True
    # Where ids differ, both sides must hold the same multiset of ids among
    # entries sharing that distance — i.e. a pure tie permutation.
    for row in np.flatnonzero(differs.any(axis=1)):
        for value in np.unique(dists_a[row][differs[row]]):
            tied_a = np.isclose(dists_a[row], value, rtol=1e-6, atol=0.0)
            tied_b = np.isclose(dists_b[row], value, rtol=1e-6, atol=0.0)
            if sorted(ids_a[row][tied_a]) != sorted(ids_b[row][tied_b]):
                return False
    return True
