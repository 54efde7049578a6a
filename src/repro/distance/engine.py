"""Pluggable metric/dtype distance engine.

Every hot loop in this library — centroid assignment in the k-means family,
the local joins of NN-Descent, the within-cluster refinement of Alg. 3 and
greedy graph search — reduces to "turn one BLAS ``gemm`` block into a distance
block".  :class:`DistanceEngine` centralises that reduction for two metrics
and two floating dtypes so the whole stack can run on cosine workloads (text
embeddings, visual vocabularies) and in float32 (half the memory traffic of
float64 in the assignment kernel):

============  =============================  ==============================
metric        distance                       notes
============  =============================  ==============================
sqeuclidean   ``||a - b||^2``                the paper's setting
cosine        ``1 - a.b / (|a| |b|)``        range [0, 2]; zero vectors are
                                             treated as orthogonal to
                                             everything (distance 1)
============  =============================  ==============================

Both metrics reduce to squared-Euclidean *geometry*: after
:meth:`prepare_clustering` (row normalisation for cosine) the k-means
objective, Lloyd's assignment, the boost ΔI moves and the two-means tree are
all valid in the transformed space.  On the unit sphere
``||a - b||^2 = 2 (1 - cos(a, b))``, so squared-Euclidean distances of
normalised data are exactly ``2x`` the cosine distance.

Norms are computed once per dataset and threaded through the blocked kernels,
so every block costs exactly one ``gemm`` plus O(block) epilogue work.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ValidationError

__all__ = ["DistanceEngine", "METRICS", "resolve_metric", "resolve_dtype"]

#: Canonical metric names.
METRICS = ("sqeuclidean", "cosine")

#: Accepted spellings → canonical metric name.
_METRIC_ALIASES = {
    "sqeuclidean": "sqeuclidean",
    "squared-euclidean": "sqeuclidean",
    "squared_euclidean": "sqeuclidean",
    "euclidean": "sqeuclidean",
    "l2": "sqeuclidean",
    "cosine": "cosine",
    "cos": "cosine",
    "angular": "cosine",
}

#: Default number of rows processed per block in the chunked kernels.  The
#: value keeps the temporary distance block under ~64 MB for k up to ~8k.
DEFAULT_BLOCK_SIZE = 1024


def resolve_metric(metric) -> str:
    """Normalise a metric spelling to one of :data:`METRICS`."""
    key = str(metric).lower().strip()
    if key not in _METRIC_ALIASES:
        raise ValidationError(
            f"unknown metric {metric!r}; expected one of {sorted(METRICS)} "
            f"(aliases: l2, euclidean, cos, angular)")
    return _METRIC_ALIASES[key]


def resolve_dtype(dtype) -> np.dtype:
    """Normalise a dtype spec to ``float32`` or ``float64``."""
    try:
        resolved = np.dtype(dtype)
    except TypeError as exc:
        raise ValidationError(f"invalid dtype {dtype!r}") from exc
    if resolved not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValidationError(
            f"dtype must be float32 or float64, got {dtype!r}")
    return resolved


class DistanceEngine:
    """Blocked distance kernels for one (metric, dtype) combination.

    Parameters
    ----------
    metric:
        ``"sqeuclidean"`` (default) or ``"cosine"`` — any alias accepted
        by :func:`resolve_metric`.
    dtype:
        ``float64`` (default) or ``float32``.  All kernels compute (and
        return) in this dtype; float32 halves the memory traffic of the
        ``gemm``-bound kernels.
    """

    def __init__(self, metric="sqeuclidean", dtype=np.float64) -> None:
        self.metric = resolve_metric(metric)
        self.dtype = resolve_dtype(dtype)

    # ------------------------------------------------------------------ #
    # Capabilities
    # ------------------------------------------------------------------ #
    def clustering_engine(self) -> "DistanceEngine":
        """Engine for the transformed space of :meth:`prepare_clustering`.

        Cosine work happens in squared-Euclidean geometry on normalised rows,
        so the inner engine is a ``sqeuclidean`` engine of the same dtype;
        ``sqeuclidean`` works in its own space.
        """
        if self.metric == "cosine":
            return DistanceEngine("sqeuclidean", self.dtype)
        return self

    # ------------------------------------------------------------------ #
    # Data preparation
    # ------------------------------------------------------------------ #
    def prepare(self, data) -> np.ndarray:
        """Cast to a C-contiguous 2-D array of the engine dtype (no copy if
        already in that form)."""
        array = np.ascontiguousarray(data, dtype=self.dtype)
        if array.ndim == 1:
            array = array.reshape(1, -1)
        return array

    def prepare_clustering(self, data) -> np.ndarray:
        """Transform ``data`` so squared-Euclidean machinery applies.

        Identity for ``sqeuclidean``; l2 row normalisation for
        ``cosine`` (zero rows stay zero).  Use together with
        :meth:`clustering_engine`.

        Caveat: a zero row cannot be placed on the unit sphere, so in the
        transformed space it sits at the origin — squared distance 1 to every
        unit vector, i.e. effective cosine distance 0.5 instead of the direct
        kernels' convention of 1.  Zero vectors are degenerate under cosine
        anyway; filter them out upstream if the distinction matters.
        """
        data = self.prepare(data)
        if self.metric == "cosine":
            data = data / self.norms(data)[:, None]
        return data

    def norms(self, data) -> np.ndarray:
        """Per-row auxiliary norms the metric needs; always an array.

        ``sqeuclidean`` → squared l2 norms; ``cosine`` → l2 norms with zeros
        replaced by 1 (the zero-vector convention above).  Compute this once
        per dataset and pass it to the kernels — that is the "cached norms"
        contract used throughout the library.
        """
        data = self.prepare(data)
        squared = np.einsum("ij,ij->i", data, data)
        if self.metric == "sqeuclidean":
            return squared
        lengths = np.sqrt(squared)
        lengths[lengths == 0] = 1.0
        return lengths

    # ------------------------------------------------------------------ #
    # Kernels
    # ------------------------------------------------------------------ #
    def from_inner(self, inner: np.ndarray, a_norms=None,
                   b_norms=None) -> np.ndarray:
        """Turn an inner-product block ``A @ B.T`` into metric distances.

        ``inner`` is modified in place (it is assumed to be a freshly computed
        gemm result).  ``a_norms`` may be 1-D ``(m,)``; ``b_norms`` may be 1-D
        ``(n,)`` or 2-D ``(m, n)`` (the gathered-candidates layout used by
        GK-means⁻).
        """
        if a_norms is None or b_norms is None:
            raise ValidationError(
                f"metric {self.metric!r} requires row norms; "
                "compute them with DistanceEngine.norms()")
        a_norms = np.asarray(a_norms)
        b_norms = np.asarray(b_norms)
        a_col = a_norms[:, None] if a_norms.ndim == 1 else a_norms
        b_row = b_norms[None, :] if b_norms.ndim == 1 else b_norms
        if self.metric == "sqeuclidean":
            inner *= -2.0
            inner += a_col
            inner += b_row
            np.maximum(inner, 0.0, out=inner)
            return inner
        # cosine: 1 - inner / (|a| |b|), without materialising the norm outer
        # product.
        inner /= a_col
        inner /= b_row
        np.subtract(1.0, inner, out=inner)
        np.clip(inner, 0.0, 2.0, out=inner)
        return inner

    def cross(self, a, b, a_norms=None, b_norms=None) -> np.ndarray:
        """``(m, n)`` matrix of distances between rows of ``a`` and ``b``.

        One gemm; norms are computed on the fly when not supplied.
        """
        a = self.prepare(a)
        b = self.prepare(b)
        if a_norms is None:
            a_norms = self.norms(a)
        if b_norms is None:
            b_norms = self.norms(b)
        return self.from_inner(a @ b.T, a_norms, b_norms)

    def paired(self, a, b, a_norms=None, b_norms=None) -> np.ndarray:
        """``(m, w)`` distances between each row ``a[i]`` and its own ``w``
        candidates ``b[i]`` (a ``(m, w, d)`` block): one batched product,
        no cross terms.  ``b_norms``, when given, is ``(m, w)``."""
        a = self.prepare(a)
        b = np.ascontiguousarray(b, dtype=self.dtype)
        if a_norms is None:
            a_norms = self.norms(a)
        if b_norms is None:
            b_norms = self.norms(b.reshape(-1, b.shape[-1])).reshape(
                b.shape[:2])
        return self.from_inner(np.matmul(b, a[:, :, None])[:, :, 0],
                               a_norms, b_norms)

    def pairwise(self, data, norms=None) -> np.ndarray:
        """Full symmetric pairwise distance matrix; the diagonal is forced
        to the exact self-distance 0."""
        data = self.prepare(data)
        if norms is None:
            norms = self.norms(data)
        distances = self.from_inner(data @ data.T, norms, norms)
        np.fill_diagonal(distances, 0.0)
        return distances

    def rowwise(self, a, b) -> np.ndarray:
        """Distance between aligned rows of ``a`` and ``b`` (no gemm).

        Used for "distance of every sample to its assigned centroid" style
        reductions.  The squared-Euclidean path uses the difference form,
        which is more accurate than the gemm expansion.
        """
        a = self.prepare(a)
        b = self.prepare(b)
        if self.metric == "sqeuclidean":
            diff = a - b
            return np.einsum("ij,ij->i", diff, diff)
        inner = np.einsum("ij,ij->i", a, b)
        distances = 1.0 - inner / (self.norms(a) * self.norms(b))
        return np.clip(distances, 0.0, 2.0)

    def assign_to_nearest(self, data, points, *, data_norms=None,
                          point_norms=None,
                          block_size: int = DEFAULT_BLOCK_SIZE,
                          counter=None) -> tuple[np.ndarray, np.ndarray]:
        """Nearest row of ``points`` for every row of ``data``, blocked.

        Returns ``(labels, distances)`` with ``labels`` int64 and
        ``distances`` float64 (distortion accumulation stays in double
        precision regardless of the kernel dtype).  ``counter`` is a
        :class:`~repro.distance.kernels.DistanceCounter` accumulating
        ``n * len(points)`` evaluations.
        """
        data = self.prepare(data)
        points = self.prepare(points)
        if data_norms is None:
            data_norms = self.norms(data)
        if point_norms is None:
            point_norms = self.norms(points)
        n = data.shape[0]
        block_size = max(1, int(block_size))
        labels = np.empty(n, dtype=np.int64)
        best = np.empty(n, dtype=np.float64)
        for start in range(0, n, block_size):
            stop = min(start + block_size, n)
            inner = data[start:stop] @ points.T
            block = self.from_inner(inner, data_norms[start:stop],
                                    point_norms)
            rows = np.arange(stop - start)
            labels[start:stop] = np.argmin(block, axis=1)
            best[start:stop] = block[rows, labels[start:stop]]
        if counter is not None:
            counter.add(n * points.shape[0])
        return labels, best

    def __repr__(self) -> str:
        return (f"DistanceEngine(metric={self.metric!r}, "
                f"dtype={np.dtype(self.dtype).name!r})")
