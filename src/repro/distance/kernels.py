"""Blocked squared-Euclidean distance kernels.

The k-means family and the k-NN graph construction all reduce to two
primitives:

* ``cross_squared_euclidean(A, B)`` — the ``(len(A), len(B))`` matrix of
  squared l2 distances, computed via the expansion
  ``||a - b||^2 = ||a||^2 - 2 a·b + ||b||^2`` so the inner loop is a single
  BLAS ``gemm``.
* ``assign_to_nearest(X, C)`` — the nearest centroid (index and distance) for
  every sample, computed in row blocks so the full distance matrix is never
  materialised for large ``n``/``k``.

``stable_smallest(block, count)`` selects from any distance block: each
row's ``count`` smallest columns, ties kept in column order.

Negative distances that appear from floating point cancellation are clipped to
zero so downstream square roots and distortion sums stay well defined.
"""

from __future__ import annotations

import numpy as np

from .norms import squared_norms

__all__ = [
    "squared_euclidean",
    "pairwise_squared_euclidean",
    "cross_squared_euclidean",
    "assign_to_nearest",
    "nearest_among",
    "pairwise_within_block",
    "stable_smallest",
]

#: Default number of rows processed per block in the chunked kernels.  The
#: value keeps the temporary distance block under ~64 MB for k up to ~8k.
DEFAULT_BLOCK_SIZE = 1024

#: Blocks of at most this many entries are selected from by a whole-row
#: sort: below it the sort costs less than the partition path's extra calls.
SORT_WHOLE = 1024


def squared_euclidean(x: np.ndarray, y: np.ndarray) -> float:
    """Squared l2 distance between two single vectors."""
    diff = np.asarray(x, dtype=np.float64) - np.asarray(y, dtype=np.float64)
    return float(np.dot(diff, diff))


def cross_squared_euclidean(a: np.ndarray, b: np.ndarray,
                            a_norms: np.ndarray | None = None,
                            b_norms: np.ndarray | None = None) -> np.ndarray:
    """Squared distances between every row of ``a`` and every row of ``b``.

    Parameters
    ----------
    a, b:
        Arrays of shape ``(m, d)`` and ``(n, d)``.
    a_norms, b_norms:
        Optional precomputed squared row norms, avoiding recomputation inside
        tight loops (e.g. repeated centroid assignment).

    Returns
    -------
    numpy.ndarray
        Matrix of shape ``(m, n)``; entries are clipped to be non-negative.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    if a_norms is None:
        a_norms = squared_norms(a)
    if b_norms is None:
        b_norms = squared_norms(b)
    distances = a_norms[:, None] - 2.0 * (a @ b.T) + b_norms[None, :]
    np.maximum(distances, 0.0, out=distances)
    return distances


def pairwise_squared_euclidean(data: np.ndarray) -> np.ndarray:
    """Full symmetric pairwise squared-distance matrix of a dataset.

    Only intended for small blocks (e.g. within-cluster exhaustive comparison
    in Alg. 3 where the block size is the constant ξ).
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    norms = squared_norms(data)
    distances = cross_squared_euclidean(data, data, norms, norms)
    np.fill_diagonal(distances, 0.0)
    return distances


def pairwise_within_block(data: np.ndarray, members: np.ndarray) -> np.ndarray:
    """Pairwise squared distances restricted to the rows listed in ``members``."""
    members = np.asarray(members, dtype=np.int64)
    return pairwise_squared_euclidean(data[members])


def assign_to_nearest(data: np.ndarray, centroids: np.ndarray, *,
                      data_norms: np.ndarray | None = None,
                      centroid_norms: np.ndarray | None = None,
                      block_size: int = DEFAULT_BLOCK_SIZE,
                      counter: "DistanceCounter | None" = None,
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Assign every sample to its nearest centroid.

    Parameters
    ----------
    data:
        Sample matrix of shape ``(n, d)``.
    centroids:
        Centroid matrix of shape ``(k, d)``.
    data_norms, centroid_norms:
        Optional precomputed squared norms.
    block_size:
        Number of samples processed per block.
    counter:
        Optional :class:`DistanceCounter` accumulating the number of
        sample-to-centroid distance evaluations (used by the scalability
        experiments to report algorithmic work independent of Python overhead).

    Returns
    -------
    (labels, distances):
        ``labels`` is ``(n,)`` int64 with the index of the nearest centroid and
        ``distances`` the corresponding squared distance.
    """
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    centroids = np.atleast_2d(np.asarray(centroids, dtype=np.float64))
    n = data.shape[0]
    if data_norms is None:
        data_norms = squared_norms(data)
    if centroid_norms is None:
        centroid_norms = squared_norms(centroids)

    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        block = cross_squared_euclidean(
            data[start:stop], centroids,
            data_norms[start:stop], centroid_norms)
        labels[start:stop] = np.argmin(block, axis=1)
        best[start:stop] = block[np.arange(stop - start), labels[start:stop]]
    if counter is not None:
        counter.add(n * centroids.shape[0])
    return labels, best


def nearest_among(data: np.ndarray, sample_index: int,
                  candidate_centroids: np.ndarray,
                  candidate_ids: np.ndarray) -> tuple[int, float]:
    """Nearest centroid of a single sample among an explicit candidate subset.

    This is the pruned assignment used by GK-means⁻ (the traditional-k-means
    flavour of Alg. 2): the sample is only compared against the centroids of
    clusters where its graph neighbours live.
    """
    sample = data[sample_index]
    distances = cross_squared_euclidean(sample[None, :], candidate_centroids)[0]
    best = int(np.argmin(distances))
    return int(candidate_ids[best]), float(distances[best])


def stable_smallest(block: np.ndarray, count: int) -> np.ndarray:
    """Columns of each row's ``count`` smallest entries, ascending, the
    earlier column first among equals.

    Equals ``np.argsort(block, axis=1, kind="stable")[:, :count]`` on every
    input, without sorting whole rows: partition for the ``count``-th value,
    then order only the columns at or below it.  A row whose boundary value
    is tied (or NaN) falls back to its full stable sort, and so does a block
    too small for the partition's fixed cost to pay.  The graph walk's seed
    and pool selections and the insert join's neighbour selection use it.
    """
    n_rows, width = block.shape
    if count >= width or block.size <= SORT_WHOLE:
        return block.argsort(axis=1, kind="stable")[:, :count]
    kth = np.partition(block, count - 1, axis=1)[:, count - 1:count]
    below = block <= kth
    tied = below.sum(axis=1) != count
    any_tied = tied.any()
    if any_tied:
        below[tied] = False
    # The untied rows' survivors, as flat positions in column order.
    flat = np.flatnonzero(below).reshape(-1, count)
    order = block.ravel()[flat].argsort(axis=1, kind="stable")
    cols = flat[np.arange(flat.shape[0])[:, None], order] % width
    if not any_tied:
        return cols
    picked = np.empty((n_rows, count), dtype=np.intp)
    picked[~tied] = cols
    picked[tied] = block[tied].argsort(axis=1, kind="stable")[:, :count]
    return picked


class DistanceCounter:
    """Accumulates the number of distance evaluations performed.

    The paper reports speed-ups that come from *fewer sample-to-centroid
    comparisons*; counting them gives a hardware-independent view of the same
    effect, which the scalability benchmarks report alongside wall-clock time.
    """

    def __init__(self) -> None:
        self.count = 0

    def add(self, amount: int) -> None:
        """Record ``amount`` additional distance evaluations."""
        self.count += int(amount)

    def reset(self) -> None:
        """Zero the counter (e.g. between benchmark iterations)."""
        self.count = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DistanceCounter(count={self.count})"
