"""Shard rebalancing of an on-disk sharded deployment.

Online mutations keep a sharded :class:`~repro.index.facade.Index` correct
(inserts are routed to the nearest coarse centroid, tombstones never
surface), but they slowly invalidate the *partition* itself: a hot shard
grows, a delete-heavy shard starves, and the coarse centroids computed at
build time stop describing the rows they route to, so routed search
(``shard_probe < n_shards``) loses recall.
:meth:`Index.rebalance <repro.index.facade.Index.rebalance>`
closes that loop with the build's own partition re-run over the live rows:
afterwards the index answers bitwise as a fresh build of those rows would,
under the same global ids and shard count.

:class:`Rebalancer` (``gkmeans rebalance``) runs that pass against a saved
directory.  It is copy-on-write end to end: the new shard files and the
manifest land through the same atomic-rename ``save`` the mutations use,
running daemons keep serving their loaded generation until the ``reload``
RPC moves them over, and a daemon left behind fail-fasts through the remote
executor's generation handshake instead of serving stale rows.
"""

from __future__ import annotations

import os

from ..exceptions import ServingError, ValidationError
from .facade import Index
from .sharded import read_manifest

__all__ = ["Rebalancer"]


class Rebalancer:
    """Background-rebalancer driver for an on-disk sharded deployment.

    Wraps the whole copy-on-write maintenance cycle around one saved
    sharded directory: :meth:`inspect` reads the manifest's per-shard
    generations and interrogates each daemon's ``info`` RPC for its
    shard id and generation (the staleness signal), :meth:`run` loads
    the index, re-partitions it via :meth:`Index.rebalance
    <repro.index.facade.Index.rebalance>`, persists the result through
    the atomic-rename ``save`` and issues the ``reload`` RPC to
    every daemon whose reported generation lags the new manifest.  Serving
    is never blocked: daemons answer from their loaded snapshot
    throughout and swap generations under their own search lock.

    Parameters
    ----------
    path:
        An index written by ``Index.save``: a directory or a single file.
    endpoints:
        Optional ``host:port`` list, one per shard in shard order, of the
        running daemons to inspect and reload.  ``None`` skips the
        serving-side steps (the manifest is still rebalanced).
    client_options:
        Extra keyword arguments for each
        :class:`~repro.net.client.ShardClient` (timeouts, retries).
    """

    def __init__(self, path, *, endpoints=None,
                 client_options: dict | None = None) -> None:
        self.path = os.fspath(path)
        self.endpoints: tuple | None = None
        if endpoints is not None:
            from ..net.endpoints import parse_endpoints

            self.endpoints = tuple(
                str(endpoint) for endpoint in parse_endpoints(endpoints))
        self.client_options = dict(client_options or {})

    def inspect(self) -> list:
        """Compare every daemon's ``info`` against the on-disk index's
        shard generations (a directory's manifest, or a single file's
        own generation).

        Returns one dict per configured endpoint with the daemon's
        reported ``shard_id``/``generation``, the manifest's expected
        generation, and a ``stale`` flag (also set when the daemon
        answers for the wrong shard).  A dead endpoint yields an
        ``error`` entry instead of raising, so one down daemon does not
        hide the health of the rest.
        """
        from ..net.client import EndpointPool

        if os.path.isdir(self.path):
            expected = read_manifest(self.path).shard_generations
        else:
            with Index.load(self.path) as index:
                expected = index.shard_generations
        if self.endpoints is None:
            raise ValidationError(
                "no endpoints configured; pass endpoints= to inspect a "
                "running deployment")
        pool = EndpointPool(self.endpoints, **self.client_options)
        try:
            infos = pool.collect_info()
        finally:
            pool.close()
        rows = []
        for shard, (endpoint, info) in enumerate(zip(self.endpoints,
                                                     infos)):
            row = {"endpoint": endpoint, "shard": shard,
                   "expected_generation":
                       expected[shard] if shard < len(expected) else None,
                   "generation": None, "served_shard": None,
                   "stale": None, "error": None}
            if info is None:
                row["error"] = f"endpoint {endpoint} is unreachable"
            else:
                row["served_shard"] = info.get("shard_id")
                row["generation"] = info.get("generation")
                row["stale"] = (info.get("shard_id") != shard
                                or info.get("generation")
                                != row["expected_generation"])
            rows.append(row)
        return rows

    def run(self) -> tuple:
        """Rebalance the on-disk index, then reload stale daemons.

        Returns ``(report, reloads)``: the
        :class:`~repro.index.sharded.RebalanceReport` of the pass, and one
        status dict per configured endpoint describing what the
        serving-side step did (``reloaded``, ``fresh`` or an ``error``).  The
        manifest lands through the atomic-rename ``save`` *before* any
        daemon is told to reload, so a crash between the two leaves
        daemons serving the old generation — stale but correct, and
        fail-fast under the remote executor's handshake.
        """
        with Index.load(self.path) as index:
            report = index.rebalance()
            if report.changed:
                index.save(self.path)
        if self.endpoints is None:
            return report, []
        reloads = []
        for row in self.inspect():
            status = {"endpoint": row["endpoint"], "shard": row["shard"],
                      "status": None, "error": row["error"]}
            if row["error"] is not None:
                status["status"] = "error"
            elif row["served_shard"] != row["shard"]:
                status["status"] = "error"
                status["error"] = (
                    f"endpoint {row['endpoint']} serves shard "
                    f"{row['served_shard']}, but the deployment maps it "
                    f"to shard {row['shard']}")
            elif row["stale"]:
                status.update(self._reload(row["endpoint"]))
            else:
                status["status"] = "fresh"
            reloads.append(status)
        return report, reloads

    def _reload(self, endpoint) -> dict:
        """Issue the ``reload`` RPC to one endpoint; never raises."""
        from ..net.client import ShardClient

        client = ShardClient(endpoint, **self.client_options)
        try:
            info = client.reload()
        except (ServingError, ValidationError) as exc:
            return {"status": "error", "error": str(exc)}
        finally:
            client.close()
        return {"status": "reloaded", "error": None,
                "generation": info.get("generation")}
