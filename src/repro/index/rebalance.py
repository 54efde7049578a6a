"""Shard rebalancing: split, merge and centroid refresh for drifted shards.

Online mutations keep a :class:`~repro.index.sharded.ShardedIndex` correct
(inserts are routed to the nearest coarse centroid, tombstones never
surface), but they slowly invalidate the *partition* itself: a hot shard
grows without bound, a delete-heavy shard starves, and the coarse
centroids — computed once at build time — stop describing the rows they
route to, so routed search (``shard_probe < n_shards``) quietly loses
recall.  This module is the maintenance layer that closes that loop:

* **split** — a shard whose live row count exceeds
  ``RebalancePolicy.max_shard_rows`` is re-partitioned by a coarse 2-means
  over its live rows into two child shards, spliced into the shard list at
  the parent's position with fresh generations and live-row-mean centroids;
* **merge** — a shard that falls below ``min_shard_rows`` is folded into
  its nearest-centroid sibling: the combined live rows are rebuilt into
  one fresh shard at the sibling's slot (tombstones of both drop out,
  exactly as :meth:`~repro.index.sharded.ShardedIndex.compact` would);
* **centroid refresh** — every shard's coarse centroid is recomputed as
  the mean of its live rows in the partitioner's clustering space
  (l2-normalised for cosine), so routing replays the partition's true
  current assignment geometry instead of the build-time one.

All three are driven by
:meth:`ShardedIndex.rebalance <repro.index.sharded.ShardedIndex.rebalance>`
and, against an on-disk deployment, by :class:`Rebalancer` /
``gkmeans rebalance``: rebalancing is copy-on-write end to end — new shard
NPZs and a manifest bump land through the same atomic-rename ``save`` the
mutations use, running daemons keep serving their loaded generation until
the ``reload`` RPC moves them over, and a daemon left behind fail-fasts
through the remote executor's generation handshake instead of serving
stale rows.  A split or merge changes the shard count, so it detaches any
attached endpoint deployment (one daemon per shard no longer holds);
refresh-only rebalances keep the running deployment valid, because shard
contents — and therefore per-shard generations — are untouched.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..cluster import KMeans
from ..distance import DistanceEngine, resolve_dtype
from ..exceptions import ServingError, ValidationError
from ..search._seeding import coarse_metric
from ..validation import check_positive_int, check_random_state
from .facade import Index

__all__ = ["RebalancePolicy", "RebalanceAction", "RebalanceReport",
           "Rebalancer"]


@dataclass(frozen=True)
class RebalancePolicy:
    """Thresholds and switches one rebalance pass applies.

    Attributes
    ----------
    max_shard_rows:
        Split every shard whose *live* row count exceeds this (``None``
        disables splitting).  Splits repeat until no shard exceeds the
        threshold or a shard's rows no longer separate (a 2-means child
        with fewer than 2 rows is refused and the shard is left whole).
    min_shard_rows:
        Merge every shard whose live row count falls below this into its
        nearest-centroid sibling (``None`` disables merging).  Merges run
        before splits, so a merge that overshoots ``max_shard_rows`` is
        re-split in the same pass.
    refresh_centroids:
        Recompute every shard's coarse routing centroid from its live rows
        (default ``True``).  Shards touched by a split or merge always get
        fresh centroids regardless of this switch.
    """

    max_shard_rows: int | None = None
    min_shard_rows: int | None = None
    refresh_centroids: bool = True

    def __post_init__(self) -> None:
        """Validate threshold types and their relative order."""
        if self.max_shard_rows is not None:
            check_positive_int(self.max_shard_rows, name="max_shard_rows")
        if self.min_shard_rows is not None:
            check_positive_int(self.min_shard_rows, name="min_shard_rows")
        if (self.max_shard_rows is not None
                and self.min_shard_rows is not None
                and self.max_shard_rows <= self.min_shard_rows):
            raise ValidationError(
                f"max_shard_rows={self.max_shard_rows} must be greater "
                f"than min_shard_rows={self.min_shard_rows}")
        if (self.max_shard_rows is None and self.min_shard_rows is None
                and not self.refresh_centroids):
            raise ValidationError(
                "an empty policy (no thresholds, refresh disabled) would "
                "never do anything; enable at least one action")


@dataclass(frozen=True)
class RebalanceAction:
    """One applied rebalance step, for the report.

    ``kind`` is ``"split"``, ``"merge"`` or ``"refresh"``; ``shards``
    names the shard positions involved *at the time the action ran*
    (splits and merges renumber later shards); ``detail`` is a
    human-readable summary with the row counts.
    """

    kind: str
    shards: tuple
    detail: str


@dataclass(frozen=True)
class RebalanceReport:
    """Outcome of one :meth:`ShardedIndex.rebalance` pass.

    An empty ``actions`` tuple means the pass was a no-op: nothing
    crossed a threshold and the refreshed centroids were bit-identical,
    so no generation was bumped and no state changed.  ``notes`` carries
    advisory messages (e.g. an oversized shard whose rows would not
    separate) that did not mutate anything.
    """

    actions: tuple = ()
    notes: tuple = ()
    n_shards_before: int = 0
    n_shards_after: int = 0
    shard_sizes_before: tuple = ()
    shard_sizes_after: tuple = ()
    generation: int = 0
    endpoints_detached: bool = False

    @property
    def changed(self) -> bool:
        """Whether the pass mutated the index at all."""
        return bool(self.actions)

    @property
    def n_splits(self) -> int:
        """Number of shard splits applied."""
        return sum(1 for action in self.actions if action.kind == "split")

    @property
    def n_merges(self) -> int:
        """Number of shard merges applied."""
        return sum(1 for action in self.actions if action.kind == "merge")

    @property
    def refreshed(self) -> bool:
        """Whether a centroid refresh changed any routing centroid."""
        return any(action.kind == "refresh" for action in self.actions)

    @property
    def topology_changed(self) -> bool:
        """Whether any split or merge changed the shard layout.

        A topology change invalidates a one-daemon-per-shard deployment:
        the endpoint list is detached and the shards must be re-served.
        """
        return self.n_splits > 0 or self.n_merges > 0


def _coarse_engine(metric: str, dtype) -> DistanceEngine:
    """The engine whose space the routing centroids live in."""
    return DistanceEngine(coarse_metric(metric), dtype)


def _centroid_of(engine: DistanceEngine, rows: np.ndarray,
                 dtype) -> np.ndarray:
    """Coarse centroid of ``rows``: their mean in the clustering space.

    Matches the k-means partitioner's centroid semantics — means are
    accumulated in float64 over the transformed rows (l2-normalised for
    cosine) and cast once to the engine dtype — so refreshed routing
    replays exactly the assignment rule inserts were placed under.
    """
    prepared = engine.prepare_clustering(np.ascontiguousarray(rows))
    mean = prepared.mean(axis=0, dtype=np.float64)
    return np.ascontiguousarray(mean, dtype=resolve_dtype(dtype))


def _rebuild_shard(sharded, rows: np.ndarray, generation: int) -> Index:
    """Build a fresh shard ``Index`` over ``rows`` at ``generation``.

    Same recipe as the shard builds of ``ShardedIndex.build`` and
    ``compact``: the spec is narrowed to one shard and the graph width is
    clamped to the row count, so local ids equal physical positions (the
    invariant the global id lift relies on).
    """
    spec = sharded.spec.replace(
        n_shards=1, shard_probe=None,
        n_neighbors=min(sharded.spec.n_neighbors, rows.shape[0] - 1))
    rebuilt = Index.build(rows, spec)
    rebuilt.generation = generation
    return rebuilt


def _live_rows(sharded, shard: int) -> tuple[np.ndarray, np.ndarray]:
    """``(live vectors, their global ids)`` of one shard, physical order."""
    index = sharded.shards[shard]
    live = index.live_mask
    return (np.ascontiguousarray(index.data[live]),
            sharded.shard_ids[shard][live])


def _merge_pass(sharded, policy, engine, centroid_rows, actions) -> None:
    """Fold every shard below ``min_shard_rows`` into its nearest sibling."""
    while policy.min_shard_rows is not None and len(sharded.shards) > 1:
        sizes = [index.n_points for index in sharded.shards]
        starving = [shard for shard, size in enumerate(sizes)
                    if size < policy.min_shard_rows]
        if not starving:
            return
        shard = starving[0]
        # Nearest-centroid sibling in the clustering space; argmin is
        # first-occurrence on ties, so the choice is deterministic.
        scores = engine.clustering_engine().cross(
            centroid_rows[shard][None, :], np.vstack(centroid_rows))[0]
        scores[shard] = np.inf
        sibling = int(np.argmin(scores))
        rows_s, ids_s = _live_rows(sharded, sibling)
        rows_t, ids_t = _live_rows(sharded, shard)
        merged_rows = np.ascontiguousarray(np.vstack([rows_s, rows_t]))
        generation = max(sharded.shards[shard].generation,
                         sharded.shards[sibling].generation) + 1
        merged = _rebuild_shard(sharded, merged_rows, generation)
        actions.append(RebalanceAction(
            kind="merge", shards=(shard, sibling),
            detail=f"shard {shard} ({len(ids_t)} rows) folded into its "
                   f"nearest-centroid sibling {sibling} "
                   f"({len(ids_s)} rows) -> {merged.n_points} rows"))
        sharded.shards[sibling].close()
        sharded.shards[shard].close()
        sharded.shards[sibling] = merged
        sharded.shard_ids[sibling] = np.concatenate([ids_s, ids_t])
        centroid_rows[sibling] = _centroid_of(engine, merged_rows,
                                              sharded.spec.dtype)
        del sharded.shards[shard]
        del sharded.shard_ids[shard]
        del centroid_rows[shard]


def _split_pass(sharded, policy, engine, centroid_rows, actions,
                notes) -> None:
    """Split every shard above ``max_shard_rows`` by a coarse 2-means."""
    if policy.max_shard_rows is None:
        return
    unsplittable: set[int] = set()
    while True:
        oversized = [shard for shard, index in enumerate(sharded.shards)
                     if index.n_points > policy.max_shard_rows
                     and id(index) not in unsplittable]
        if not oversized:
            return
        shard = oversized[0]
        rows, ids = _live_rows(sharded, shard)
        splitter = KMeans(
            2, init="k-means++", max_iter=10,
            random_state=check_random_state(sharded.spec.random_state),
            metric=coarse_metric(sharded.metric),
            dtype=sharded.spec.dtype)
        splitter.fit(rows)
        labels = splitter.labels_
        counts = np.bincount(labels, minlength=2)
        if counts.min() < 2:
            # The rows do not separate (e.g. near-duplicates): refuse the
            # degenerate child instead of creating an unservable shard.
            unsplittable.add(id(sharded.shards[shard]))
            notes.append(
                f"shard {shard} ({rows.shape[0]} rows) exceeds "
                f"max_shard_rows={policy.max_shard_rows} but its rows "
                "do not separate; left whole")
            continue
        generation = sharded.shards[shard].generation + 1
        children = []
        for label in (0, 1):
            member = labels == label
            child_rows = np.ascontiguousarray(rows[member])
            children.append((
                _rebuild_shard(sharded, child_rows, generation),
                ids[member],
                _centroid_of(engine, child_rows, sharded.spec.dtype)))
        actions.append(RebalanceAction(
            kind="split", shards=(shard, shard + 1),
            detail=f"shard {shard} ({rows.shape[0]} rows) split into "
                   f"{int(counts[0])} + {int(counts[1])} rows"))
        sharded.shards[shard].close()
        sharded.shards[shard] = children[0][0]
        sharded.shard_ids[shard] = children[0][1]
        centroid_rows[shard] = children[0][2]
        sharded.shards.insert(shard + 1, children[1][0])
        sharded.shard_ids.insert(shard + 1, children[1][1])
        centroid_rows.insert(shard + 1, children[1][2])


def apply_rebalance(sharded, policy: RebalancePolicy) -> RebalanceReport:
    """Run one merge → split → refresh pass over ``sharded`` in place.

    The engine behind
    :meth:`ShardedIndex.rebalance <repro.index.sharded.ShardedIndex.rebalance>`
    — see there for the caller-facing contract.
    """
    if not isinstance(policy, RebalancePolicy):
        raise ValidationError(
            f"policy must be a RebalancePolicy, got "
            f"{type(policy).__name__}")
    if sharded.centroids is None:
        raise ValidationError(
            "rebalance splits, merges and refreshes shards by their coarse "
            "centroids, and this index has none: only the geometric "
            "'gkmeans' partitioner with n_shards > 1 records them "
            "(round_robin shards are dealt by row order)")
    engine = _coarse_engine(sharded.metric, sharded.spec.dtype)
    n_before = sharded.n_shards
    sizes_before = sharded.shard_sizes
    centroids_before = np.array(sharded.centroids, copy=True)
    centroid_rows = [np.array(row, copy=True) for row in sharded.centroids]
    actions: list = []
    notes: list = []

    _merge_pass(sharded, policy, engine, centroid_rows, actions)
    _split_pass(sharded, policy, engine, centroid_rows, actions, notes)

    topology_changed = any(action.kind in ("split", "merge")
                           for action in actions)
    if policy.refresh_centroids:
        for shard in range(len(sharded.shards)):
            rows, _ = _live_rows(sharded, shard)
            centroid_rows[shard] = _centroid_of(engine, rows,
                                                sharded.spec.dtype)
    centroids = np.ascontiguousarray(np.vstack(centroid_rows))
    refreshed = (centroids.shape != centroids_before.shape
                 or not np.array_equal(centroids, centroids_before))
    if refreshed and not topology_changed:
        actions.append(RebalanceAction(
            kind="refresh", shards=tuple(range(len(sharded.shards))),
            detail=f"coarse centroids of {len(sharded.shards)} shard(s) "
                   "recomputed from live rows"))

    if not actions:
        return RebalanceReport(
            actions=(), notes=tuple(notes),
            n_shards_before=n_before, n_shards_after=n_before,
            shard_sizes_before=sizes_before, shard_sizes_after=sizes_before,
            generation=sharded.generation)

    sharded.centroids = centroids
    endpoints_detached = False
    if topology_changed:
        probe = sharded.spec.shard_probe
        if probe is not None:
            probe = min(probe, len(sharded.shards))
        sharded.spec = sharded.spec.replace(
            n_shards=len(sharded.shards), shard_probe=probe)
        if sharded.endpoints is not None:
            # One daemon per shard no longer matches the new layout; the
            # deployment must be re-served and re-attached explicitly.
            sharded.endpoints = None
            endpoints_detached = True
        sharded.generation += 1
        sharded._invalidate_serving_state()
    else:
        # Refresh-only: shard NPZs (and so per-shard generations) are
        # untouched — running daemons and cached executors stay valid,
        # only the routing geometry and the global generation move.
        sharded.generation += 1
        sharded._data = None
        sharded._global_lookup = None
    return RebalanceReport(
        actions=tuple(actions), notes=tuple(notes),
        n_shards_before=n_before,
        n_shards_after=sharded.n_shards,
        shard_sizes_before=sizes_before,
        shard_sizes_after=sharded.shard_sizes,
        generation=sharded.generation,
        endpoints_detached=endpoints_detached)


class Rebalancer:
    """Background-rebalancer driver for an on-disk sharded deployment.

    Wraps the whole copy-on-write maintenance cycle around one saved
    sharded directory: :meth:`inspect` reads the manifest's per-shard
    generations and interrogates each daemon's ``info`` RPC for its
    shard id and generation (the staleness signal), :meth:`run` loads
    the index, applies the policy via
    :meth:`ShardedIndex.rebalance
    <repro.index.sharded.ShardedIndex.rebalance>`, persists the result
    through the atomic-rename ``save`` and — when the shard topology is
    unchanged — issues the ``reload`` RPC to every daemon whose reported
    generation lags the new manifest.  Serving is never blocked: daemons
    answer from their loaded snapshot throughout and swap generations
    under their own search lock.

    Parameters
    ----------
    path:
        A sharded index directory written by ``ShardedIndex.save``.
    policy:
        The :class:`RebalancePolicy` to apply (default: centroid refresh
        only).
    endpoints:
        Optional ``host:port`` list, one per shard in shard order, of the
        running daemons to inspect and reload.  ``None`` skips the
        serving-side steps (the manifest is still rebalanced).
    client_options:
        Extra keyword arguments for each
        :class:`~repro.net.client.ShardClient` (timeouts, retries).
    """

    def __init__(self, path, policy: RebalancePolicy | None = None, *,
                 endpoints=None, client_options: dict | None = None) -> None:
        self.path = os.fspath(path)
        self.policy = RebalancePolicy() if policy is None else policy
        if not isinstance(self.policy, RebalancePolicy):
            raise ValidationError(
                f"policy must be a RebalancePolicy, got "
                f"{type(self.policy).__name__}")
        self.endpoints: tuple | None = None
        if endpoints is not None:
            from ..net.endpoints import parse_endpoints

            self.endpoints = tuple(
                str(endpoint) for endpoint in parse_endpoints(endpoints))
        self.client_options = dict(client_options or {})

    def inspect(self) -> list:
        """Compare every daemon's ``info`` against the on-disk manifest.

        Returns one dict per configured endpoint with the daemon's
        reported ``shard_id``/``generation``, the manifest's expected
        generation, and a ``stale`` flag (also set when the daemon
        answers for the wrong shard).  A dead endpoint yields an
        ``error`` entry instead of raising, so one down daemon does not
        hide the health of the rest.
        """
        from ..net.client import EndpointPool
        from .sharded import read_manifest

        expected = read_manifest(self.path).shard_generations
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

        Returns ``(report, reloads)``: the :class:`RebalanceReport` of
        the pass, and one status dict per configured endpoint describing
        what the serving-side step did (``reloaded``, ``fresh``,
        ``detached`` after a topology change, or an ``error``).  The
        manifest lands through the atomic-rename ``save`` *before* any
        daemon is told to reload, so a crash between the two leaves
        daemons serving the old generation — stale but correct, and
        fail-fast under the remote executor's handshake.
        """
        from .sharded import ShardedIndex

        with ShardedIndex.load(self.path) as index:
            report = index.rebalance(self.policy)
            if report.changed:
                index.save(self.path)
        if self.endpoints is None:
            return report, []
        if report.topology_changed:
            return report, [
                {"endpoint": endpoint, "shard": shard, "status": "detached",
                 "error": None}
                for shard, endpoint in enumerate(self.endpoints)]
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
