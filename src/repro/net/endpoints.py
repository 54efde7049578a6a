"""Endpoint addressing for networked shard serving.

An endpoint is one ``host:port`` shard server.  This module parses and
validates the textual forms used everywhere endpoints travel — CLI flags,
the sharded deployment manifest and the
``RemoteShardExecutor`` — into a canonical :class:`Endpoint` value.

A multi-node deployment is simply an ordered endpoint list, one per shard:
``endpoints[s]`` serves shard ``s`` of the index.  Ordering is load-bearing
(the merge lifts shard-local row ids through ``shard_ids[s]``), which is
why the list lives in the manifest next to the shard id maps
rather than in ad-hoc configuration.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..exceptions import ValidationError

__all__ = ["Endpoint", "parse_endpoint", "parse_endpoints"]


@dataclass(frozen=True)
class Endpoint:
    """One shard server address (``host``, ``port``)."""

    host: str
    port: int

    def __post_init__(self) -> None:
        if not self.host:
            raise ValidationError("endpoint host must be non-empty")
        if not isinstance(self.port, int) or isinstance(self.port, bool) \
                or not (0 < self.port < 65536):
            raise ValidationError(
                f"endpoint port must be an integer in [1, 65535], got "
                f"{self.port!r}")

    @property
    def address(self) -> tuple[str, int]:
        """``(host, port)`` tuple for the socket layer."""
        return self.host, self.port

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


def parse_endpoint(value) -> Endpoint:
    """Canonicalise one endpoint: an :class:`Endpoint` or ``"host:port"``.

    Raises :class:`~repro.exceptions.ValidationError` on anything else —
    a mistyped endpoint must fail at configuration time, not as a
    connection error mid-serve.
    """
    if isinstance(value, Endpoint):
        return value
    if not isinstance(value, str):
        raise ValidationError(
            f"endpoint must be an Endpoint or a 'host:port' string, got "
            f"{type(value).__name__}")
    host, sep, port_text = value.rpartition(":")
    if not sep or not host:
        raise ValidationError(
            f"endpoint {value!r} is not of the form 'host:port'")
    try:
        port = int(port_text)
    except ValueError as exc:
        raise ValidationError(
            f"endpoint {value!r} has a non-integer port") from exc
    return Endpoint(host=host, port=port)


def parse_endpoints(value) -> tuple[Endpoint, ...]:
    """Canonicalise an endpoint list, one endpoint per shard, in shard order.

    Accepts a comma-separated string (the CLI form) or an iterable of
    endpoint strings / :class:`Endpoint` values, and returns an
    :class:`Endpoint` tuple.
    """
    if isinstance(value, str):
        parts = [part.strip() for part in value.split(",")]
        parts = [part for part in parts if part]
        if not parts:
            raise ValidationError(
                f"endpoint list {value!r} names no endpoints")
        return tuple(parse_endpoint(part) for part in parts)
    try:
        items = list(value)
    except TypeError as exc:
        raise ValidationError(
            f"endpoints must be a comma-separated string or an iterable "
            f"of 'host:port' values, got {type(value).__name__}") from exc
    if not items:
        raise ValidationError("endpoint list is empty")
    return tuple(parse_endpoint(item) for item in items)
