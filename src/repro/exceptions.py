"""Exception hierarchy for the :mod:`repro` package.

All errors raised by the library derive from :class:`ReproError` so callers can
catch library failures without catching unrelated bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the :mod:`repro` package."""


class ValidationError(ReproError, ValueError):
    """An argument failed validation (wrong shape, dtype, range or type)."""


class NotFittedError(ReproError, RuntimeError):
    """A model method requiring a fitted estimator was called before ``fit``."""


class DatasetError(ReproError):
    """A dataset could not be generated, read or written."""


class GraphError(ReproError):
    """A k-NN graph is malformed or inconsistent with the data it indexes."""


class ServingError(ReproError, RuntimeError):
    """A serving-side failure: a shard worker pool died or a request could
    not be served for an operational (not validation) reason."""


class ProtocolError(ServingError):
    """A network frame violated the shard-serving wire protocol: bad magic,
    unsupported protocol version, oversized payload or checksum mismatch.
    The connection that produced it cannot be trusted and is closed."""


class ServerClosedError(ServingError):
    """A request reached a coalescing server that has been closed."""


class ServerOverloadedError(ServingError):
    """Admission control rejected a request: the server's bounded request
    queue was full.  Back off and retry — the request was never enqueued."""
