"""Input validation helpers shared across the library.

The helpers normalise user input into the canonical representations used
internally (C-contiguous ``float64``/``int64`` arrays) and raise
:class:`~repro.exceptions.ValidationError` with actionable messages otherwise.
"""

from __future__ import annotations

import os
import warnings

import numpy as np

from .exceptions import GraphError, ValidationError

__all__ = [
    "check_data_matrix",
    "check_queries",
    "check_bounds",
    "check_labels",
    "check_positive_int",
    "check_fraction",
    "check_random_state",
    "check_knn_indices",
    "clamp_workers",
]

#: The floating dtypes :func:`check_data_matrix` keeps when ``dtype=None``.
_FLOATS = (np.dtype(np.float32), np.dtype(np.float64))

#: One-time flag of :func:`clamp_workers` — oversubscription is a
#: configuration smell worth one warning, not one per search call.
_OVERSUBSCRIPTION_WARNED = False


def clamp_workers(value: int, *, name: str = "workers") -> int:
    """Clamp a requested worker count to the machine's CPU count.

    Spreading GIL-releasing gemms (or shard walks) over more workers
    than there are CPUs cannot add parallelism — it only adds scheduler
    churn, which on a 1-core box makes ``workers=4`` measurably *slower*
    than ``workers=1``.  Worker counts are pure throughput knobs (results
    are bit-for-bit identical at every level), so clamping is always safe;
    the first clamped call emits a :class:`RuntimeWarning` so the
    misconfiguration is visible without spamming every search.
    """
    global _OVERSUBSCRIPTION_WARNED
    if value <= 1:
        return value
    cpus = os.cpu_count() or 1
    if value <= cpus:
        return value
    if not _OVERSUBSCRIPTION_WARNED:
        warnings.warn(
            f"{name}={value} exceeds os.cpu_count()={cpus}; clamping to "
            f"{cpus}.  Worker counts are pure throughput knobs, so the "
            "results are unchanged (further oversubscription warnings "
            "are suppressed)", RuntimeWarning, stacklevel=3)
        _OVERSUBSCRIPTION_WARNED = True
    return cpus


def check_data_matrix(data, *, name: str = "data", min_samples: int = 1,
                      dtype=np.float64, range_dtype=None) -> np.ndarray:
    """Validate and return a 2-D floating point data matrix.

    Parameters
    ----------
    data:
        Array-like of shape ``(n_samples, n_features)``.
    name:
        Name used in error messages.
    min_samples:
        Minimum number of rows required.
    dtype:
        Floating dtype the returned array is cast to.  ``None`` keeps a
        float32 or float64 input's dtype (and casts anything else to
        float64), so a float32 matrix is validated without a copy.
    range_dtype:
        Floating dtype whose range bounds the rows (``None``: the returned
        array's own) — narrower than ``dtype`` where a later stage computes
        in a narrower dtype, as an ``int8`` index's scorer does
        (:func:`~repro.distance.quantized.input_range_dtype`).

    Returns
    -------
    numpy.ndarray
        A C-contiguous array of the requested dtype.

    Every row's squared norm must stay at or below a quarter of the range
    dtype's largest value: under that bound every pairwise distance,
    centroid and partial gemm sum of admitted rows is finite.  The one pass
    of row norms that enforces it also refuses NaN and infinite entries.
    """
    source = np.asarray(data)
    if dtype is None:
        dtype = source.dtype if source.dtype in _FLOATS else np.float64
    if source.dtype.kind == "f" and (source.dtype.itemsize
                                     > np.dtype(dtype).itemsize):
        # A finite row past the narrower dtype's range casts to inf: the
        # norm check below refuses it, so the cast itself must not warn.
        with np.errstate(over="ignore"):
            array = source.astype(dtype)
    else:
        array = np.asarray(source, dtype=dtype)
    if array.ndim == 1:
        array = array.reshape(1, -1)
    if array.ndim != 2:
        raise ValidationError(
            f"{name} must be a 2-D array, got {array.ndim} dimensions")
    if array.shape[0] < min_samples:
        raise ValidationError(
            f"{name} must contain at least {min_samples} samples, "
            f"got {array.shape[0]}")
    if array.shape[1] < 1:
        raise ValidationError(f"{name} must have at least one feature")
    array = np.ascontiguousarray(array)
    # einsum raises no floating-point warnings, and NaN compares False, so
    # one test refuses both failure kinds.
    squared = np.einsum("ij,ij->i", array, array)
    limit = np.finfo(array.dtype if range_dtype is None else range_dtype)
    if not (squared <= limit.max / 4).all():
        # A finite float row that overflowed the cast is out of range, not
        # infinite: judge the values as given.
        if not np.isfinite(source if source.dtype.kind == "f"
                           else array).all():
            raise ValidationError(f"{name} contains NaN or infinite values")
        raise ValidationError(
            f"{name} has rows whose squared norm exceeds a quarter of the "
            f"{limit.dtype} range, so their distances would overflow")
    return array


def check_queries(queries, n_features: int, *,
                  dtype=np.float64, range_dtype=None) -> np.ndarray:
    """Validate a query batch for an index of ``n_features`` columns.

    A ``(d,)`` vector is a batch of one; ``dtype`` and ``range_dtype`` are
    :func:`check_data_matrix`'s.  Raises
    :class:`~repro.exceptions.ValidationError` for a wrong shape, an empty
    batch or non-finite values and :class:`~repro.exceptions.GraphError`
    for a dimension mismatch.
    """
    queries = check_data_matrix(queries, name="queries", dtype=dtype,
                                range_dtype=range_dtype)
    if queries.shape[1] != n_features:
        raise GraphError(
            f"queries have dimension {queries.shape[1]}, data has "
            f"{n_features}")
    return queries


def check_bounds(bounds, n_queries: int) -> np.ndarray | None:
    """Validate per-query search bounds: ``None`` or a floating ``(m,)``
    array without NaN (``inf`` is no bound), returned as ``float64``."""
    if bounds is None:
        return None
    array = np.asarray(bounds)
    if not np.issubdtype(array.dtype, np.floating):
        raise ValidationError(
            f"bounds must be a floating array, got dtype {array.dtype}")
    if array.shape != (n_queries,):
        raise ValidationError(
            f"bounds must have shape ({n_queries},), got {array.shape}")
    if np.isnan(array).any():
        raise ValidationError("bounds contain NaN")
    return array.astype(np.float64, copy=False)


def check_labels(labels, n_samples: int, *, name: str = "labels") -> np.ndarray:
    """Validate an integer label vector of length ``n_samples``.

    A non-integer array is accepted only if every entry is exactly an
    integer: a label of 1.99999 is an error, not cluster 1.
    """
    array = np.asarray(labels)
    if array.ndim != 1:
        raise ValidationError(f"{name} must be 1-D, got {array.ndim}-D")
    if array.shape[0] != n_samples:
        raise ValidationError(
            f"{name} has length {array.shape[0]}, expected {n_samples}")
    if not np.issubdtype(array.dtype, np.integer):
        if not (np.isfinite(array).all()
                and np.array_equal(array, np.round(array))):
            raise ValidationError(f"{name} must contain integers")
    array = array.astype(np.int64, copy=False)
    if array.size and array.min() < 0:
        raise ValidationError(f"{name} must be non-negative")
    return array


def check_positive_int(value, *, name: str, minimum: int = 1,
                       maximum: int | None = None) -> int:
    """Validate an integer in ``[minimum, maximum]`` and return it as ``int``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValidationError(f"{name} must be <= {maximum}, got {value}")
    return value


def check_fraction(value, *, name: str, allow_zero: bool = False) -> float:
    """Validate a float in ``(0, 1]`` (or ``[0, 1]`` when ``allow_zero``)."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a float, got {value!r}") from exc
    lower_ok = value >= 0.0 if allow_zero else value > 0.0
    if not lower_ok or value > 1.0:
        bound = "[0, 1]" if allow_zero else "(0, 1]"
        raise ValidationError(f"{name} must lie in {bound}, got {value}")
    return value


def check_random_state(seed) -> np.random.Generator:
    """Turn ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, a ``Generator`` (returned
    unchanged) or a legacy ``RandomState`` (wrapped).
    """
    if seed is None or isinstance(seed, (int, np.integer)):
        return np.random.default_rng(seed)
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.RandomState):
        return np.random.default_rng(seed.randint(0, 2**32 - 1))
    raise ValidationError(
        f"random_state must be None, an int or a numpy Generator, got {seed!r}")


def check_knn_indices(indices, n_samples: int, *, name: str = "knn graph") -> np.ndarray:
    """Validate a ``(n_samples, k)`` neighbour index matrix.

    Neighbour ids must be valid row indices of the dataset; ``-1`` is allowed as
    a padding value for missing neighbours.
    """
    array = np.asarray(indices)
    if array.ndim != 2:
        raise ValidationError(f"{name} indices must be 2-D, got {array.ndim}-D")
    if array.shape[0] != n_samples:
        raise ValidationError(
            f"{name} has {array.shape[0]} rows, expected {n_samples}")
    if not np.issubdtype(array.dtype, np.integer):
        raise ValidationError(f"{name} indices must be integers")
    array = array.astype(np.int64, copy=False)
    if array.size and (array.max() >= n_samples or array.min() < -1):
        raise ValidationError(
            f"{name} indices must lie in [-1, {n_samples - 1}]")
    return array
