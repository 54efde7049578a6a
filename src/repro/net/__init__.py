"""Networked shard serving: the RPC transport behind the executor seam.

The sharded search fan-out is a set of self-contained, picklable
``ShardSearchTask``/``SearchResult`` messages behind a pluggable
executor (see :mod:`repro.index.executors`) — so distribution is "only" a
transport.  This package supplies it:

* :mod:`repro.net.framing` — a length-prefixed binary frame protocol over
  TCP (versioned header, payload checksum, typed error frames);
* :mod:`repro.net.endpoints` — ``host:port`` endpoint parsing and the
  per-shard endpoint lists carried by deployment manifests;
* :mod:`repro.net.client` — pooled, retrying RPC stubs
  (:class:`~repro.net.client.ShardClient`) plus health-check-driven
  connection maintenance (:class:`~repro.net.client.EndpointPool`);
* :mod:`repro.net.server` — the shard daemon
  (:class:`~repro.net.server.ShardServer`, ``gkmeans serve``) answering
  search / ping / info RPCs from a handler pool.

The transport is a pure placement knob: a search served over
``executor="remote"`` is bit-for-bit identical to the ``thread``
executor and the serial inline path — enforced by the serving
determinism suite, like every other serving knob in this repo.  Daemons
on localhost are how shard walks run on separate cores.
"""

from .endpoints import Endpoint, parse_endpoint, parse_endpoints
from .framing import PROTOCOL_VERSION, MAX_PAYLOAD
from .client import EndpointPool, ShardClient
from .server import ShardServer, load_shard_for_serving

__all__ = [
    "Endpoint",
    "parse_endpoint",
    "parse_endpoints",
    "PROTOCOL_VERSION",
    "MAX_PAYLOAD",
    "EndpointPool",
    "ShardClient",
    "ShardServer",
    "load_shard_for_serving",
]
