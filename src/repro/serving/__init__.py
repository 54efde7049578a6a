"""Online serving front end: request coalescing over the batch walk.

The batch search layers (frontier-merged walk, sharded fan-out, thread /
remote executors) all want *batches* — but online traffic arrives as
single queries.  :class:`~repro.serving.server.CoalescingServer` bridges
the two: an asyncio front end that accepts concurrent single-query
requests, coalesces them under a latency budget into one batch walk, and
slices each request's top-k back out, with bounded-queue admission control
and per-request :class:`~repro.serving.server.RequestStats`.
"""

from .server import CoalescingServer, RequestStats, serve_concurrently

__all__ = ["CoalescingServer", "RequestStats", "serve_concurrently"]
