"""Horizontally sharded ANN serving: S sub-indexes behind one ``Index`` API.

The natural scale-out step after the thread-parallel frontier walk is the
shard-then-merge decomposition used by every large-scale ANN system: split
the dataset into ``n_shards`` partitions, build one
:class:`~repro.index.facade.Index` per partition (builds are independent, so
they run on a worker pool), and serve a query batch by fanning the
frontier-merged walk out across the shards and merging the per-shard top-k
by true distance.

Two partitioners are supported (see
:data:`~repro.index.spec.PARTITIONERS`): ``round_robin`` deals rows out in
order — balanced shards, no build-time cost — while ``gkmeans`` runs a
coarse ``n_shards``-way k-means and routes each vector to its nearest
centroid, so a query's true neighbours concentrate in few shards and each
shard's sub-graph stays locally dense.

The PR 3 determinism contract extends verbatim: every shard's walk is a
seeded deterministic function of its own data, the merge is a stable sort of
the per-shard results in shard order, and no state is shared across shards —
so ``shard_workers`` (like ``workers`` inside each shard) is a pure
throughput knob, and a :meth:`ShardedIndex.load` round-trip serves
bit-for-bit identical results at every shard-parallelism level.

For the geometric ``gkmeans`` partitioner the coarse centroids are kept with
the index, which unlocks *routed* search: ``shard_probe=P`` scores each query
batch against the S centroids in one small gemm, routes every query to its P
nearest shards and walks only the shards that received queries: first each
query's nearest shard, then its other probed shards with the walk capped at
the k-th distance the nearest shard returned.  The full fan-out is the same
search path at ``P = S`` (every shard probed in one uncapped fan-out, no
routing gemm); ``P < S`` trades recall for throughput and the routing
decision is deterministic and ``shard_workers``-invariant.

Every shard is an ``Index`` whose external ids are the global ids of its
rows, so a shard answers in global ids wherever it runs and owns its part of
the id map: inserts pass the new global ids to the shard, deletes and
compaction are the shard's own.

Persistence is one directory — ``manifest.npz`` (spec, generations,
``next_id``; optionally the gkmeans partitioner's routing centroids and one
endpoint per shard) beside one index file per shard (``shard_0000.idx``,
...) — written atomically by renaming a temp directory into place.
:func:`read_manifest` is its one reader, shared with the shard server and
the rebalancer; anything but the current format version with every key of
the right dtype and shape raises :class:`~repro.exceptions.ValidationError`,
and :func:`migrate` rewrites indexes of retired versions.

Inserts go to the nearest coarse centroid's shard, so drift slowly bends
the partition away from what a build would choose.
:meth:`ShardedIndex.rebalance` straightens it with the build itself: the live
rows go through the same partition-then-build-shards helper
:meth:`ShardedIndex.build` runs, under their global ids and at the same shard
count, and the index then answers bitwise as a fresh build of those rows.

The manifest doubles as a *deployment* manifest: ``executor="remote"`` fans
out to its endpoints, one ``gkmeans serve`` daemon per shard, each of which
must report its shard's generation.  Inserts, deletes, compaction and
rebalancing (driven on disk by :mod:`repro.index.rebalance`) go live through
the atomic-rename ``save``;
daemons serve the generation they loaded until the ``reload`` RPC, and the
remote executor's handshake turns a stale daemon into a
:class:`~repro.exceptions.ServingError`, never silent wrong results.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..cluster import KMeans
from ..distance import DistanceEngine, resolve_dtype
from ..distance.quantized import input_range_dtype
from ..exceptions import ServingError, ValidationError
from ..net.endpoints import parse_endpoints
from ..search._seeding import default_seed_labels, nearest_centroids
from ..search._walk import SearchResult
from ..validation import (
    check_data_matrix,
    check_positive_int,
    check_queries,
    check_random_state,
    clamp_workers,
)
from .executors import (
    RemoteShardExecutor,
    ShardSearchTask,
    ThreadShardExecutor,
)
from .facade import (FORMAT_VERSION, Index, atomic_savez, check_fields,
                     check_insert, read_npz)
from .spec import EXECUTORS, IndexSpec, PARTITIONERS

__all__ = ["ShardedIndex", "ShardedServingStats", "SHARDED_FORMAT_VERSION",
           "MANIFEST_NAME", "Manifest", "read_manifest", "partition_dataset",
           "build_index", "load_index", "migrate", "build_shard",
           "RebalanceReport"]

#: Version of the manifest layout :meth:`ShardedIndex.save` writes and,
#: alone, :func:`read_manifest` reads; ``gkmeans migrate`` rewrites older
#: directories.  Version 6 moved the id map into the shard files: each
#: shard's ``ids`` are its rows' global ids.
SHARDED_FORMAT_VERSION = 6

#: File name of the manifest NPZ inside a sharded index directory.
MANIFEST_NAME = "manifest.npz"

#: Keys of the manifest NPZ: ``(dtype kind, ndim, required)``.
_MANIFEST_SCHEMA = {
    "sharded_format_version": ("i", 0, True), "spec_json": ("U", 0, True),
    "generation": ("i", 0, True), "shard_generations": ("i", 1, True),
    "next_id": ("i", 0, True), "centroids": ("f", 2, False),
    "endpoints": ("U", 1, False),
}

#: Lloyd iterations of the coarse partitioning k-means — the partition only
#: has to be locality-preserving, not optimal, so a short run suffices.
_PARTITION_ITER = 10


def _shard_name(shard: int) -> str:
    return f"shard_{shard:04d}.idx"


def build_shard(spec: IndexSpec, rows: np.ndarray, ids: np.ndarray) -> Index:
    """One shard of a sharded ``spec``: an ``Index`` over ``rows`` whose
    external ids are their global ``ids``, its spec narrowed to one shard
    and its graph width clamped to the row count."""
    return Index.build(rows, spec.replace(
        n_shards=1, shard_probe=None,
        n_neighbors=min(spec.n_neighbors, rows.shape[0] - 1)), ids=ids)


def partition_dataset(data: np.ndarray, n_shards: int, partitioner: str, *,
                      metric: str = "sqeuclidean", dtype="float64",
                      random_state=0, return_centroids: bool = False):
    """Split ``data`` into ``n_shards`` row-id groups.

    Returns one sorted ``(n_s,)`` int64 array of global row ids per shard;
    together the arrays form a permutation of ``arange(len(data))``.  The
    assignment is deterministic in ``random_state``.  With
    ``return_centroids=True`` the return value is ``(shard_ids, centroids)``
    where ``centroids`` is the ``(n_shards, d)`` coarse centroid matrix the
    ``gkmeans`` partitioner assigned against (in the transformed clustering
    space — l2-normalised rows for cosine) and ``None`` for the non-geometric
    cases (``round_robin``, single shard).

    Raises :class:`~repro.exceptions.ValidationError` when the partitioner is
    unknown or when any shard would receive fewer than 2 points (too few to
    index) — use fewer shards or the balanced ``round_robin`` partitioner.
    """
    n = data.shape[0]
    n_shards = check_positive_int(n_shards, name="n_shards", maximum=n // 2)
    if partitioner not in PARTITIONERS:
        raise ValidationError(
            f"unknown partitioner {partitioner!r}; expected one of "
            f"{list(PARTITIONERS)}")
    centroids = None
    if n_shards == 1:
        shard_ids = [np.arange(n, dtype=np.int64)]
    elif partitioner == "round_robin":
        shard_ids = [np.arange(shard, n, n_shards, dtype=np.int64)
                     for shard in range(n_shards)]
    else:
        coarse = KMeans(n_shards, init="k-means++",
                        max_iter=_PARTITION_ITER,
                        random_state=check_random_state(random_state),
                        metric=metric, dtype=dtype)
        coarse.fit(data)
        labels = coarse.labels_
        # The centroids live in the clustering space the labels were
        # assigned in; routed search replays exactly that assignment for
        # queries, so keep them in the engine dtype verbatim.
        centroids = np.ascontiguousarray(coarse.cluster_centers_,
                                         dtype=resolve_dtype(dtype))
        shard_ids = [np.flatnonzero(labels == shard).astype(np.int64)
                     for shard in range(n_shards)]
        starved = [shard for shard, ids in enumerate(shard_ids)
                   if ids.size < 2]
        if starved:
            raise ValidationError(
                f"gkmeans partitioner left shards {starved} with fewer "
                f"than 2 points (n={n}, n_shards={n_shards}); use fewer "
                "shards or the round_robin partitioner")
    if return_centroids:
        return shard_ids, centroids
    return shard_ids


def _partition_and_build(spec: IndexSpec, rows: np.ndarray, ids: np.ndarray,
                         build_workers: int | None = None) -> tuple:
    """Partition ``rows`` (global ids ``ids``) into ``spec.n_shards`` groups
    and build one shard per group on a ``build_workers``-thread pool
    (default: one thread per shard, capped at the CPU count).

    The one body of :meth:`ShardedIndex.build` (``ids = arange(n)``) and
    :meth:`ShardedIndex.rebalance` (the live ids).  Returns ``(shards,
    centroids)``.
    """
    groups, centroids = partition_dataset(
        rows, spec.n_shards, spec.partitioner, metric=spec.metric,
        dtype=spec.dtype, random_state=spec.random_state,
        return_centroids=True)
    if build_workers is None:
        build_workers = min(len(groups), os.cpu_count() or 1)
    build_workers = check_positive_int(build_workers, name="build_workers")

    def build(group: np.ndarray) -> Index:
        """Build the shard over the partition rows ``group``."""
        return build_shard(spec, rows[group], ids[group])

    if build_workers == 1 or len(groups) == 1:
        shards = [build(group) for group in groups]
    else:
        with ThreadPoolExecutor(max_workers=build_workers) as executor:
            shards = list(executor.map(build, groups))
    return shards, centroids


def _same_shard(old: Index, new: Index) -> bool:
    """Whether ``new`` holds exactly what ``old`` persists, its mutation
    counter aside — rows, ids, tombstones, graph and seed partition."""
    old_fields, new_fields = old._fields(), new._fields()
    del old_fields["generation"], new_fields["generation"]
    return (old_fields.keys() == new_fields.keys()
            and all(np.array_equal(old_fields[key], new_fields[key])
                    for key in old_fields))


@dataclass(frozen=True)
class RebalanceReport:
    """Outcome of one :meth:`ShardedIndex.rebalance` pass.

    ``changed`` is ``False`` when the re-partition reproduced the current
    shards and routing centroids bit for bit: nothing was swapped and no
    generation moved.  ``shard_sizes_*`` are the live row counts per shard
    (the shard count never changes); ``generation`` is the index's global
    generation after the pass.
    """

    changed: bool
    shard_sizes_before: tuple
    shard_sizes_after: tuple
    generation: int


@dataclass(frozen=True)
class ShardedServingStats:
    """Combined execution profile of one sharded batch search.

    Aggregates the per-shard :class:`~repro.search._walk.ServingStats`
    into one record with the same summary surface (``workers``,
    ``n_groups``, ``n_rounds``, ``n_gemms``, ``queries_per_second``), so
    tables and probes render sharded and monolithic serving uniformly.

    Attributes
    ----------
    n_shards:
        Number of shards of the index.
    shard_workers:
        Workers the shard fan-out ran on (clamped to the shard count and
        the CPU count).  Purely a throughput knob — results are identical
        at every level.
    executor:
        Executor the fan-out ran on (see
        :data:`~repro.index.spec.EXECUTORS`): ``"thread"`` or
        ``"remote"``.  Also purely a throughput knob.
    n_queries:
        Number of queries served.
    shard_probe:
        Shards each query was routed to: ``n_shards`` for the exact full
        fan-out, less for routed (approximate) search.
    routing_gemms:
        Query-against-centroids gemms the routing step issued (0 for the
        full fan-out, 1 for a routed batch).
    queries_per_shard:
        Per-shard routed query counts, in shard order (the full batch size
        for every shard under full fan-out).
    shard_stats:
        Per-walk :class:`~repro.search._walk.ServingStats`, in fan-out
        order: shard order for the full fan-out; for a routed search the
        nearest-shard walks (routing rank 0) in shard order, then the
        capped walks of the other probed shards in shard order.  Shards
        that received no queries are skipped, so a fan-out may list fewer
        than ``n_shards`` entries.
    total_seconds:
        Wall-clock time of the whole sharded call, routing and merge
        included.
    """

    n_shards: int
    shard_workers: int
    n_queries: int
    shard_probe: int = 0
    executor: str = "thread"
    routing_gemms: int = 0
    queries_per_shard: tuple = ()
    shard_stats: tuple = ()
    total_seconds: float = 0.0

    @property
    def probed_shards_per_query(self) -> float:
        """Mean number of shards that served each query."""
        if self.n_queries <= 0:
            return 0.0
        return float(sum(self.queries_per_shard)) / self.n_queries

    @property
    def workers(self) -> int:
        """Largest per-shard frontier worker count (the in-shard knob)."""
        return max((stats.workers for stats in self.shard_stats), default=1)

    @property
    def n_groups(self) -> int:
        """Total walked query groups across shards."""
        return int(sum(stats.n_groups for stats in self.shard_stats))

    @property
    def n_rounds(self) -> int:
        """Total walk rounds across shards."""
        return int(sum(stats.n_rounds for stats in self.shard_stats))

    @property
    def n_gemms(self) -> int:
        """Total frontier gemms issued across shards."""
        return int(sum(stats.n_gemms for stats in self.shard_stats))

    @property
    def queries_per_second(self) -> float:
        """Serving throughput of this call (0.0 for an instantaneous call)."""
        if self.total_seconds <= 0.0:
            return 0.0
        return self.n_queries / self.total_seconds


def _merge_parts(landed: list, widths: list, m: int, n_results: int,
                 routing_evaluations: int) -> tuple:
    """Merge a sharded search's per-shard parts into the global top-k.

    ``landed`` holds ``(shard, rows, part)`` triples in fan-out order:
    ``part`` is the shard's :class:`~repro.search.SearchResult` for the
    ascending batch ``rows`` (of ``m``), ``widths[shard]`` columns wide,
    and no (query, shard) pair appears twice.  Each shard's part lands as
    an ``(m, widths[shard])`` block — the part itself when it served every
    row, otherwise its rows of a block of ``(-1, inf)`` pairs, which is
    also all an unprobed shard contributes — and the blocks, concatenated
    in shard order, go through one stable sort on distance.  Ties keep
    shard-then-rank order, so the merge is deterministic and independent
    of ``shard_workers``.  Every ``inf`` entry is a ``(-1, inf)`` pair (the
    range gate keeps real distances finite; tombstone filtering and the
    walks pad with them), so they sort last and become the output padding;
    the widths sum to at least ``n_results``.

    Returns ``(ids, distances, evaluations)``: ``(m, n_results)`` int64
    ids and float64 distances, and the ``(m,)`` int64 evaluation counts —
    ``routing_evaluations`` each plus the parts' own.
    """
    ids, dists = [None] * len(widths), [None] * len(widths)
    evaluations = np.full(m, routing_evaluations, dtype=np.int64)
    for shard, rows, part in landed:
        if rows.size == m:
            ids[shard], dists[shard] = part.indices, part.distances
            evaluations += part.evaluations
            continue
        if ids[shard] is None:
            ids[shard] = np.full((m, widths[shard]), -1, dtype=np.int64)
            dists[shard] = np.full((m, widths[shard]), np.inf)
        ids[shard][rows] = part.indices
        dists[shard][rows] = part.distances
        evaluations[rows] += part.evaluations
    for shard, width in enumerate(widths):
        if ids[shard] is None:
            ids[shard] = np.full((m, width), -1, dtype=np.int64)
            dists[shard] = np.full((m, width), np.inf)
    all_ids = np.concatenate(ids, axis=1, dtype=np.int64)
    all_dist = np.concatenate(dists, axis=1, dtype=np.float64)
    order = all_dist.argsort(axis=1, kind="stable")[:, :n_results]
    # Row-wise gathers, as take_along_axis does them without its set-up.
    lanes = np.arange(m)[:, None]
    return all_ids[lanes, order], all_dist[lanes, order], evaluations


class ShardedIndex:
    """``n_shards`` sub-indexes served and persisted as one index.

    Construct with :meth:`build` (partitions the dataset, builds one
    :class:`~repro.index.facade.Index` per shard on a worker pool) or
    :meth:`load`; the raw constructor accepts pre-built shards whose ids —
    the global ids of their rows — no two shards share.  The API mirrors
    ``Index`` — ``search`` serves 1-D queries and 2-D batches,
    ``save``/``load`` round-trip the full serving state, and searches are
    deterministic under ``spec.random_state`` — so everything that consumes
    an ``Index`` (``evaluate_search``, the CLI, the probes) accepts a
    ``ShardedIndex`` unchanged.

    Attributes
    ----------
    spec:
        The sharded :class:`~repro.index.spec.IndexSpec`
        (``spec.n_shards >= 1``).
    shards:
        The per-shard ``Index`` objects, in shard order; ``shards[s].ids``
        are the global ids of ``shards[s].data``'s rows.
    centroids:
        ``(n_shards, d)`` coarse centroids the ``gkmeans`` partitioner
        assigned rows against (in the transformed clustering space), or
        ``None`` when the index carries no routing geometry (round_robin
        partitioner or single shard).
        Routed search (``shard_probe < n_shards``) requires them.
    build_seconds:
        Wall-clock construction time — partitioning plus the pooled shard
        builds (``None`` for loaded indexes).
    """

    def __init__(self, shards: list, spec: IndexSpec, *,
                 centroids: np.ndarray | None = None,
                 endpoints=None, generation: int = 0,
                 next_id: int | None = None,
                 build_seconds: float | None = None) -> None:
        if not isinstance(spec, IndexSpec):
            raise ValidationError(
                f"spec must be an IndexSpec, got {type(spec).__name__}")
        if len(shards) != spec.n_shards:
            raise ValidationError(
                f"spec declares {spec.n_shards} shards but {len(shards)} "
                "were given")
        # Freshly built indexes use ids 0..n-1; mutated indexes may carry
        # holes (deleted-then-compacted ids are never reused), so the
        # shards' ids only have to be disjoint.
        merged = np.concatenate([index.ids for index in shards])
        if np.unique(merged).size != merged.size:
            raise ValidationError(
                "shard ids must be globally unique — a row id appears in "
                "more than one shard")
        if centroids is not None:
            centroids = np.asarray(centroids)
            if centroids.shape != (len(shards), shards[0].n_features):
                raise ValidationError(
                    f"routing centroids must have shape ({len(shards)}, "
                    f"{shards[0].n_features}), got {centroids.shape}")
        self.spec = spec
        self.shards = list(shards)
        self.centroids = centroids
        self.build_seconds = build_seconds
        #: Global mutation counter of the whole sharded index — bumped by
        #: every insert/delete/compact.  The per-shard counters daemons are
        #: checked against are :attr:`shard_generations`.
        self.generation = int(generation)
        floor = int(merged.max()) + 1 if merged.size else 0
        self._next_id = floor if next_id is None else max(int(next_id),
                                                          floor)
        self._data: np.ndarray | None = None
        self._last: SearchResult | None = None
        # Serving state: one persistent fan-out executor per executor kind
        # (recreated when the requested worker count changes).
        self._executors: dict = {}
        self._endpoints: tuple | None = None
        #: Transport knobs (``connect_timeout``, ``read_timeout``,
        #: ``retries``) applied when the remote fan-out executor is built.
        self.remote_options: dict = {}
        if endpoints is not None:
            self.endpoints = endpoints

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def last_n_evaluations(self) -> int:
        """Total distance evaluations of the most recent search call."""
        return 0 if self._last is None else int(self._last.evaluations.sum())

    @property
    def last_serving_stats(self) -> ShardedServingStats | None:
        """Stats of the most recent search (``None`` before the first)."""
        return None if self._last is None else self._last.stats

    @property
    def n_shards(self) -> int:
        """Number of shards."""
        return len(self.shards)

    @property
    def n_points(self) -> int:
        """Total number of *live* (non-tombstoned) vectors across shards."""
        return sum(index.n_points for index in self.shards)

    @property
    def n_rows(self) -> int:
        """Total physical rows across shards, tombstoned ones included."""
        return sum(index.n_rows for index in self.shards)

    @property
    def n_tombstones(self) -> int:
        """Total tombstoned (deleted, not yet compacted) rows."""
        return sum(index.n_tombstones for index in self.shards)

    @property
    def shard_ids(self) -> list:
        """Per-shard ``(n_s,)`` global row ids — each shard's own ``ids``:
        ``shards[s].data`` is ``data`` at ``shard_ids[s]``'s ranks."""
        return [index.ids for index in self.shards]

    @property
    def ids(self) -> np.ndarray:
        """Global external ids of every physical row (ascending)."""
        return np.sort(np.concatenate(self.shard_ids))

    @property
    def tombstone_ids(self) -> np.ndarray:
        """Global external ids of the tombstoned rows (ascending)."""
        return np.sort(np.concatenate([index.tombstone_ids
                                       for index in self.shards]))

    @property
    def evaluation_corpus(self) -> tuple:
        """``(live vectors, their global ids)`` in ascending-id order —
        the ground-truth corpus an exact oracle must score searches
        against (searches return global ids, never tombstoned rows)."""
        parts = [index.evaluation_corpus for index in self.shards]
        vectors = np.vstack([rows for rows, _ in parts])
        ids = np.concatenate([ids for _, ids in parts])
        order = np.argsort(ids, kind="stable")
        return np.ascontiguousarray(vectors[order]), ids[order]

    @property
    def shard_generations(self) -> tuple:
        """Per-shard mutation counters, in shard order — what each shard's
        serving daemon must report in the ``info`` handshake."""
        return tuple(index.generation for index in self.shards)

    @property
    def n_features(self) -> int:
        """Dimensionality of the indexed vectors."""
        return self.shards[0].n_features

    @property
    def metric(self) -> str:
        """Canonical metric name the index scores queries under."""
        return self.shards[0].metric

    @property
    def engine_(self):
        """The shards' shared :class:`~repro.distance.DistanceEngine`."""
        return self.shards[0].engine_

    @property
    def data(self) -> np.ndarray:
        """``(n_rows, d)`` indexed vectors, in ascending global-id order.

        For an unmutated index the global ids are ``0..n-1``, so this is
        the original row order; mutated indexes may carry id holes, and the
        rows come back rank-ordered by id (tombstoned rows included).
        """
        if self._data is None:
            stacked = np.vstack([index.data for index in self.shards])
            merged = np.concatenate(self.shard_ids)
            self._data = np.ascontiguousarray(
                stacked[np.argsort(merged, kind="stable")])
        return self._data

    @property
    def shard_sizes(self) -> tuple:
        """Per-shard point counts, in shard order."""
        return tuple(index.n_points for index in self.shards)

    def __len__(self) -> int:
        return self.n_points

    def __repr__(self) -> str:
        return (f"ShardedIndex(backend={self.spec.backend!r}, "
                f"n_shards={self.n_shards}, n={self.n_points}, "
                f"d={self.n_features}, "
                f"partitioner={self.spec.partitioner!r}, "
                f"metric={self.metric!r}, dtype={self.spec.dtype!r})")

    # ------------------------------------------------------------------ #
    # Serving resources
    # ------------------------------------------------------------------ #
    @property
    def endpoints(self) -> tuple | None:
        """Per-shard ``host:port`` strings the remote executor fans out to,
        in shard order, or ``None`` when no deployment is attached."""
        return self._endpoints

    @endpoints.setter
    def endpoints(self, value) -> None:
        """Attach (or detach with ``None``) the per-shard deployment."""
        if value is None:
            self._endpoints = None
            return
        parsed = parse_endpoints(value)
        if len(parsed) != self.n_shards:
            raise ValidationError(
                f"endpoint list names {len(parsed)} endpoints but the "
                f"index has {self.n_shards} shards; exactly one endpoint "
                "per shard, in shard order")
        # _get_executor keys the cached remote executor by this tuple, so
        # a redeployment (new endpoints) transparently rebuilds the pool.
        self._endpoints = tuple(str(endpoint) for endpoint in parsed)

    def close(self) -> None:
        """Release serving resources: fan-out pools and per-shard walk
        pools.

        Idempotent — closing twice (or racing a ``__del__``) is a no-op the
        second time — and safe while searches are in flight: executors are
        drained (their ``close`` joins running tasks) *before* the shard
        walk pools those tasks use are torn down.  The index stays usable —
        the next search simply recreates what it needs.  Call this (or use
        the index as a context manager) after serving with
        ``executor="remote"`` to release pooled connections.
        """
        # Fan-out executors first: their close() waits for in-flight tasks,
        # which may still be using the shard searchers released below.
        executors, self._executors = self._executors, {}
        for _, executor in executors.values():
            executor.close()
        for shard in self.shards:
            shard.close()

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    def _get_executor(self, name: str, shard_workers: int):
        """Persistent fan-out executor for ``name``, sized ``shard_workers``.

        One executor per kind is kept alive across search calls (the whole
        point — no per-call pool construction); a call with a different
        worker count — or, for the remote executor, a different endpoint
        list or transport options — closes and replaces it, so the common
        stable serving loop always hits the cache.
        """
        if name == "remote":
            if self._endpoints is None:
                raise ServingError(
                    "executor='remote' needs one endpoint per shard; set "
                    "index.endpoints (or save/load a deployment manifest "
                    "carrying them, or pass --endpoints on the CLI) to "
                    f"the {self.n_shards} 'host:port' shard servers")
            # Keyed by the per-shard generations too: a mutation bumps
            # them, forcing a fresh executor whose handshake re-validates
            # every daemon against the new expectations.  The options
            # compare as a dict against the snapshot the cached key holds,
            # so editing remote_options in place misses the cache too.
            key = (shard_workers, self._endpoints, self.shard_generations,
                   self.remote_options)
        else:
            key = shard_workers
        cached = self._executors.get(name)
        if cached is not None:
            cached_key, executor = cached
            if cached_key == key:
                return executor
            executor.close()
        if name == "thread":
            executor = ThreadShardExecutor(self.shards, shard_workers)
        else:
            executor = RemoteShardExecutor(
                self._endpoints, shard_workers,
                expected_generations=self.shard_generations,
                **self.remote_options)
            key = key[:-1] + (dict(self.remote_options),)
        self._executors[name] = (key, executor)
        return executor

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, data: np.ndarray, spec: IndexSpec | None = None, *,
              build_workers: int | None = None,
              **overrides) -> "ShardedIndex":
        """Partition ``data`` and build one sub-index per shard.

        ``overrides`` are :class:`~repro.index.spec.IndexSpec` fields applied
        on top of ``spec``, exactly as in ``Index.build``.  The shard builds
        are independent seeded computations, so they run on a
        ``build_workers``-thread pool (default: one thread per shard, capped
        at the CPU count) without changing the result.

        Shards whose point count cannot support the spec's graph width get a
        clamped ``n_neighbors`` (``shard_size - 1``); the serving results
        still cover the full dataset.
        """
        if spec is None:
            spec = IndexSpec(**overrides)
        elif overrides:
            spec = spec.replace(**overrides)
        started = time.perf_counter()
        # Cast once to the engine dtype (as Index.build does) so the shard
        # slices are taken from an already-converted matrix instead of
        # materializing a float64 copy of a float32 corpus.
        engine = DistanceEngine(spec.metric, spec.dtype)
        data = check_data_matrix(data, min_samples=2 * spec.n_shards,
                                 dtype=engine.dtype,
                                 range_dtype=input_range_dtype(spec.quantize))
        shards, centroids = _partition_and_build(
            spec, data, np.arange(data.shape[0], dtype=np.int64),
            build_workers)
        return cls(shards, spec, centroids=centroids,
                   build_seconds=time.perf_counter() - started)

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def search(self, queries: np.ndarray, n_results: int = 10, *,
               pool_size: int | None = None,
               workers: int | None = None, shard_workers: int | None = None,
               shard_probe: int | None = None, executor: str | None = None
               ) -> SearchResult:
        """Serve one query or a batch on each query's ``shard_probe`` shards.

        Parameters match :meth:`Index.search <repro.index.facade.Index.search>`
        plus ``shard_workers`` — the workers the shard fan-out runs on
        (default 1, clamped to the shard count and the CPU count) — plus
        ``shard_probe`` and ``executor``.  ``workers`` (inside each shard),
        ``shard_workers`` (across shards) and ``executor`` are pure
        throughput knobs: results are bit-for-bit identical at every level.

        ``executor`` selects where the per-shard walks run (see
        :data:`~repro.index.spec.EXECUTORS`): ``"thread"`` fans out on a
        persistent in-process thread pool, ``"remote"`` sends each shard's
        task to its ``gkmeans serve`` daemon (:attr:`endpoints`).  Defaults
        to ``spec.executor``.  Pools and connections live until
        :meth:`close`.

        ``shard_probe=P`` routes each query to its ``P`` nearest shards
        (one gemm of the batch against the persisted coarse centroids) and
        walks only the shards that received queries.  The default
        (``shard_probe`` unset in call and spec) is ``P = n_shards``, the
        full fan-out: every shard serves the whole batch and no routing
        gemm is issued.  ``P < n_shards`` is an approximation knob (recall
        may drop for queries whose true neighbours live in an unprobed
        shard) and requires the geometric ``gkmeans`` partitioner's
        centroids.  The routing decision is deterministic and
        ``shard_workers``-invariant.

        A routed search fans out twice.  Each query first walks its nearest
        shard; its k-th distance there (``inf`` when that shard returned
        fewer than k live rows) is then the ``bounds`` cap of its walks in
        its other probed shards, which never expand a candidate the merge
        would discard against the k results already held.  With
        ``shard_workers > 1`` or the remote executor the two fan-outs run
        one after the other.  The full fan-out is one uncapped fan-out.

        Per-shard query subsets are regrouped into one batched walk per
        probed shard (a shard serving every query walks the checked batch
        itself).  Each shard's top-k (its own rows, in the global ids the
        shard carries) lands as one batch-order block, ``(-1, inf)`` where
        the shard was not probed; the blocks are concatenated in shard
        order and one stable sort by true distance picks the global top-k
        (:func:`_merge_parts`).  Returns a
        :class:`~repro.search.SearchResult` in global row ids, shaped
        exactly like the monolithic index's, whose ``stats`` is a
        :class:`ShardedServingStats`.
        """
        # One read of every shard's live count serves the validation and
        # the per-shard widths.
        live = [index.n_points for index in self.shards]
        n_results = check_positive_int(n_results, name="n_results",
                                       maximum=sum(live))
        n_shards = len(live)
        shard_workers = 1 if shard_workers is None else check_positive_int(
            shard_workers, name="shard_workers")
        shard_workers = clamp_workers(min(shard_workers, n_shards),
                                      name="shard_workers")
        executor = self.spec.executor if executor is None else executor
        if executor not in EXECUTORS:
            raise ValidationError(
                f"unknown executor {executor!r}; expected one of "
                f"{list(EXECUTORS)}")
        probe = self.spec.shard_probe if shard_probe is None else shard_probe
        probe = n_shards if probe is None else check_positive_int(
            probe, name="shard_probe", maximum=n_shards)
        routed = probe < n_shards
        if routed and self.centroids is None:
            raise ValidationError(
                f"shard_probe={probe} < n_shards={n_shards} routes on "
                "coarse centroids, and this index has none: only the "
                "geometric 'gkmeans' partitioner records them (round_robin "
                "shards are dealt by row order)")
        started = time.perf_counter()
        single = np.ndim(queries) == 1
        queries = check_queries(
            queries, self.n_features, dtype=self.engine_.dtype,
            range_dtype=input_range_dtype(self.spec.quantize))
        m = queries.shape[0]
        widths = [min(n_results, count) for count in live]
        if routed:
            routes = self._route(queries, probe)
            served = np.bincount(routes.ravel(), minlength=n_shards)
            queries_per_shard = tuple(served.tolist())
            active = int(np.count_nonzero(served))
        else:
            queries_per_shard = (m,) * n_shards
            active = n_shards
        runner = self._get_executor(executor, min(shard_workers, active))

        def fan_out(shard_rows: list, caps: np.ndarray | None = None
                    ) -> list:
            """Walk each shard on its ascending batch rows ``shard_rows[s]``
            (capped at ``caps``); returns ``(shard, rows, part)`` triples.

            A shard serving every query gets the checked batch itself, not
            a copy.  Shards share no state and each task is internally
            deterministic, so neither the fan-out order nor the executor
            kind can influence the merge.
            """
            probed = [shard for shard, rows in enumerate(shard_rows)
                      if rows.size]
            tasks = []
            for shard in probed:
                rows = shard_rows[shard]
                every = rows.size == m
                tasks.append(ShardSearchTask(
                    shard=shard, queries=queries if every else queries[rows],
                    shard_k=widths[shard], pool_size=pool_size,
                    workers=workers,
                    bounds=caps if caps is None or every else caps[rows]))
            return [(shard, shard_rows[shard], part)
                    for shard, part in zip(probed, runner.run(tasks))]

        if not routed:
            landed = fan_out([np.arange(m)] * n_shards)
        else:
            # The nearest shard first; its k-th distance (inf when it holds
            # fewer than k live rows) caps the query's other probed shards,
            # whose walks then skip everything the merge would discard.
            landed = fan_out([np.flatnonzero(routes[:, 0] == shard)
                              for shard in range(n_shards)])
            bounds = np.full(m, np.inf)
            for _, rows, part in landed:
                if part.distances.shape[1] == n_results:
                    bounds[rows] = part.distances[:, -1]
            landed += fan_out(
                [np.flatnonzero((routes[:, 1:] == shard).any(axis=1))
                 for shard in range(n_shards)], bounds)

        # Routing scores every query against all centroids: one gemm,
        # n_shards evaluations per query.
        out_idx, out_dist, evaluations = _merge_parts(
            landed, widths, m, n_results, n_shards if routed else 0)
        stats = ShardedServingStats(
            n_shards=n_shards, shard_workers=shard_workers,
            n_queries=m, shard_probe=probe, executor=executor,
            routing_gemms=int(routed), queries_per_shard=queries_per_shard,
            shard_stats=tuple(part.stats for _, _, part in landed),
            total_seconds=time.perf_counter() - started)
        if single:
            out_idx, out_dist = out_idx[0], out_dist[0]
        result = SearchResult(out_idx, out_dist, evaluations, stats)
        self._last = result
        return result

    def _route(self, queries: np.ndarray, probe: int) -> np.ndarray:
        """``(m, probe)`` nearest-shard ids per query, nearest first.

        Replays the partitioner's own assignment rule: queries are scored
        against the persisted coarse centroids in the transformed
        clustering space (l2-normalised rows for cosine) with one gemm —
        the nearest-centroid step seeding runs inside every shard
        (:func:`~repro.search._seeding.nearest_centroids`).  Ties resolve by
        shard order, so the routing is deterministic.
        """
        return nearest_centroids(self.engine_, queries, self.centroids,
                                 probe)

    # ------------------------------------------------------------------ #
    # Online mutations
    # ------------------------------------------------------------------ #
    def _invalidate_serving_state(self) -> None:
        """Drop every cache a mutation makes stale.

        Fan-out executors are closed (the remote executor's handshake
        expectations changed) and the reassembled-data cache resets.  The
        next search simply recreates what it needs.
        """
        executors, self._executors = self._executors, {}
        for _, executor in executors.values():
            executor.close()
        self._data = None

    def insert(self, vectors: np.ndarray,
               ids: np.ndarray | None = None) -> np.ndarray:
        """Insert vectors online with routing-aware shard placement.

        Each new vector goes to its *nearest coarse centroid's* shard (one
        gemm against the persisted routing centroids — the same assignment
        rule routed search replays), so the gkmeans partition stays locally
        dense under inserts; round-robin indexes deal new ids out by
        ``id % n_shards``.  The chosen shard inserts the rows under their
        global ids (see :meth:`Index.insert
        <repro.index.facade.Index.insert>`), bumping that shard's
        generation — other shards' daemons stay valid.  ``ids`` optionally
        assigns the global external ids (unique, non-negative, disjoint
        from every existing id).  Returns the ``(m,)`` new global ids.
        """
        vectors, new_ids = check_insert(
            self, vectors, ids,
            lambda value: any(value in index._lookup()
                              for index in self.shards))
        if self.centroids is not None:
            placement = self._route(vectors, 1)[:, 0]
        else:
            placement = new_ids % self.n_shards
        for shard, index in enumerate(self.shards):
            rows = np.flatnonzero(placement == shard)
            if rows.size:
                index.insert(vectors[rows], ids=new_ids[rows])
        self._next_id = max(self._next_id, int(new_ids.max()) + 1)
        self.generation += 1
        self._invalidate_serving_state()
        return new_ids.copy()

    def delete(self, ids) -> int:
        """Tombstone global ids across shards (removed by :meth:`compact`).

        The whole request is validated before anything mutates — an
        unknown, duplicate or already-deleted id, or a deletion that would
        leave any shard with fewer than 2 live points, fails the call
        atomically.  Only the shards that lose points bump their
        generation.  Returns the number of points deleted.
        """
        wanted = np.atleast_1d(np.asarray(ids, dtype=np.int64)).ravel()
        if wanted.size == 0:
            return 0
        owned = [np.isin(wanted, index.ids) for index in self.shards]
        unknown = wanted[~np.logical_or.reduce(owned)]
        if unknown.size:
            raise ValidationError(f"id {unknown[0]} is not in the index")
        groups = [wanted[mask] for mask in owned]
        for shard, (index, group) in enumerate(zip(self.shards, groups)):
            if group.size:
                index._resolve_live_positions(group)
                if index.n_points - group.size < 2:
                    raise ValidationError(
                        f"deleting {group.size} of {index.n_points} live "
                        f"points from shard {shard} would leave fewer "
                        "than 2 — compact or rebuild with fewer shards "
                        "instead")
        for index, group in zip(self.shards, groups):
            if group.size:
                index.delete(group)
        self.generation += 1
        self._invalidate_serving_state()
        return int(wanted.size)

    def compact(self) -> int:
        """Compact every tombstone-carrying shard (:meth:`Index.compact
        <repro.index.facade.Index.compact>`).

        Untouched shards keep their structure *and* their generation, so
        their daemons stay valid.  Global ids are stable across
        compaction.  A no-op returning 0 when nothing is tombstoned;
        otherwise returns the number of rows removed.
        """
        removed = self.n_tombstones
        if removed == 0:
            return 0
        for index in self.shards:
            if index.n_tombstones:
                index.compact()
        self.generation += 1
        self._invalidate_serving_state()
        return removed

    def rebalance(self) -> RebalanceReport:
        """Re-partition the live rows exactly as a fresh build would.

        The live rows, in ascending-id order (:attr:`evaluation_corpus`),
        go through the build's own partition at the same ``n_shards``,
        ``partitioner`` and ``random_state``, and every shard is rebuilt
        over its group under the rows' global ids.  Searches afterwards
        are bitwise those of ``ShardedIndex.build(rows, spec)`` with its
        positional ids mapped through the live ids; tombstones drop out,
        inserts land where the partition puts them, and a ``gkmeans``
        index's routing centroids describe the rows they route again (one
        loaded without centroids gets them back).

        Global ids, ``next_id``, the shard count and any attached endpoint
        deployment are kept.  Each shard's generation becomes its old one
        plus one and the global generation is bumped, so every daemon goes
        stale until reloaded.  All new shards are built before any is
        swapped in: a :class:`~repro.exceptions.ValidationError` (fewer
        than ``2 * n_shards`` live rows, or a ``gkmeans`` partition that
        starves a shard) leaves the index untouched.  When the rebuild
        reproduces the current shards and centroids bit for bit (a second
        pass, or a freshly built index) nothing is swapped and no
        generation moves.  Returns a :class:`RebalanceReport`.
        """
        rows, ids = self.evaluation_corpus
        if ids.size < 2 * self.n_shards:
            raise ValidationError(
                f"cannot rebalance {ids.size} live rows into "
                f"{self.n_shards} shards: every shard needs at least 2")
        shards, centroids = _partition_and_build(self.spec, rows, ids)
        before = self.shard_sizes
        # array_equal is True for two Nones and False for None vs array.
        if np.array_equal(centroids, self.centroids) and all(
                _same_shard(old, new)
                for old, new in zip(self.shards, shards)):
            for shard in shards:
                shard.close()
            return RebalanceReport(False, before, before, self.generation)
        for old, new in zip(self.shards, shards):
            new.generation = old.generation + 1
        self._invalidate_serving_state()
        retired, self.shards = self.shards, shards
        for shard in retired:
            shard.close()
        self.centroids = centroids
        self.generation += 1
        return RebalanceReport(True, before, self.shard_sizes,
                               self.generation)

    def check_endpoints(self) -> dict:
        """Health-check the attached deployment before serving queries.

        Pings every endpoint of :attr:`endpoints` through the remote
        executor's pool — no search frame is sent — and returns
        ``{endpoint: latency_seconds | None}``; ``None`` marks a dead
        endpoint whose pooled connections were evicted, so the next RPC
        reconnects from scratch.  Raises
        :class:`~repro.exceptions.ServingError` when no endpoints are
        attached.  The preflight behind ``gkmeans search --preflight``:
        a down daemon is reported up front instead of failing the first
        routed batch mid-flight.
        """
        return self._get_executor("remote", 1).check_health()

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Serialize the sharded index into one directory.

        Writes the manifest NPZ plus one ``Index`` NPZ per shard into a
        temporary directory next to ``path`` and renames it into place, so a
        crash mid-save never leaves a half-written index at ``path``.
        """
        path = os.fspath(path)
        parent = os.path.dirname(path) or "."
        tmp_dir = tempfile.mkdtemp(dir=parent, prefix=".sharded.tmp")
        try:
            for shard, index in enumerate(self.shards):
                index.save(os.path.join(tmp_dir, _shard_name(shard)))
            manifest = {
                "sharded_format_version": np.int64(SHARDED_FORMAT_VERSION),
                "spec_json": np.asarray(self.spec.to_json()),
                "generation": np.int64(self.generation),
                "shard_generations": np.asarray(self.shard_generations,
                                                dtype=np.int64),
                "next_id": np.int64(self._next_id),
            }
            if self.centroids is not None:
                manifest["centroids"] = self.centroids
            if self._endpoints is not None:
                manifest["endpoints"] = np.asarray(list(self._endpoints))
            atomic_savez(os.path.join(tmp_dir, MANIFEST_NAME), **manifest)
            if os.path.lexists(path):
                # Swap the finished directory for whatever occupies the
                # target — a previous sharded directory or a single-file
                # index — keeping the old artifact recoverable until the
                # new one is in place.
                backup = tempfile.mkdtemp(dir=parent, prefix=".sharded.old")
                os.rmdir(backup)
                os.rename(path, backup)
                try:
                    os.rename(tmp_dir, path)
                except BaseException:
                    os.rename(backup, path)
                    raise
                if os.path.isdir(backup) and not os.path.islink(backup):
                    shutil.rmtree(backup)
                else:
                    os.unlink(backup)
            else:
                os.rename(tmp_dir, path)
        except BaseException:
            if os.path.isdir(tmp_dir):
                shutil.rmtree(tmp_dir, ignore_errors=True)
            raise

    @classmethod
    def load(cls, path) -> "ShardedIndex":
        """Restore a sharded index saved by :meth:`save`; raises
        :class:`~repro.exceptions.ValidationError` when
        :func:`read_manifest` refuses the manifest, a shard file is absent
        or corrupt, or the shards do not fit the manifest."""
        path = os.fspath(path)
        return cls._assemble(path, read_manifest(path), Index.load)

    @classmethod
    def _assemble(cls, path: str, manifest: "Manifest",
                  load_shard) -> "ShardedIndex":
        """Build the index of ``manifest`` from its shard files, each read
        by ``load_shard(shard_path)``."""
        shards = []
        for shard, generation in enumerate(manifest.shard_generations):
            try:
                index = load_shard(os.path.join(path, _shard_name(shard)))
            except ValidationError as exc:
                raise ValidationError(
                    f"sharded index {path!r}: shard {shard} is missing or "
                    f"corrupt: {exc}") from exc
            index.generation = generation
            shards.append(index)
        try:
            return cls(shards, manifest.spec,
                       centroids=manifest.centroids,
                       endpoints=manifest.endpoints,
                       generation=manifest.generation,
                       next_id=manifest.next_id)
        except ValidationError as exc:
            raise ValidationError(
                f"sharded index {path!r} is inconsistent: {exc}") from exc


@dataclass(frozen=True)
class Manifest:
    """The checked contents of a sharded directory's manifest NPZ."""

    spec: IndexSpec
    generation: int
    shard_generations: tuple
    next_id: int
    centroids: np.ndarray | None = None
    endpoints: list | None = None


def read_manifest(path) -> Manifest:
    """Read and check the manifest of the sharded directory ``path`` — the
    one reader of the format, behind :meth:`ShardedIndex.load`, the shard
    server and the rebalancer.  Raises
    :class:`~repro.exceptions.ValidationError` unless every key of
    :data:`SHARDED_FORMAT_VERSION` has its dtype and rank and there is one
    generation per shard of the spec."""
    path = os.fspath(path)
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isdir(path) or not os.path.exists(manifest_path):
        raise ValidationError(
            f"{path!r} is not a sharded index directory (no "
            f"{MANIFEST_NAME}); single-file indexes load via Index.load")
    return _manifest_from_fields(
        read_npz(manifest_path, "sharded index manifest"), path)


def _manifest_from_fields(fields: dict, path: str) -> Manifest:
    """Check the arrays of a manifest NPZ and assemble the manifest."""
    check_fields(fields, _MANIFEST_SCHEMA, version=SHARDED_FORMAT_VERSION,
                 label="sharded index", path=path)
    spec = IndexSpec.from_json(str(fields["spec_json"]))
    generations = fields["shard_generations"]
    if generations.size != spec.n_shards:
        raise ValidationError(
            f"sharded index {path!r} is inconsistent: shard_generations "
            f"{generations!r} do not describe {spec.n_shards} shards")
    endpoints = fields.get("endpoints")
    return Manifest(
        spec, int(fields["generation"]), tuple(int(g) for g in generations),
        int(fields["next_id"]), fields.get("centroids"),
        None if endpoints is None else [str(value) for value in endpoints])


def build_index(data: np.ndarray, spec: IndexSpec | None = None,
                **overrides):
    """Build an :class:`Index` or a :class:`ShardedIndex` from one spec.

    Dispatches on ``spec.n_shards``: 1 builds the monolithic index, more
    builds the sharded one.  The two share the ``build/search/save/load``
    surface, so callers (CLI, probes, examples) need no branching beyond
    this call.
    """
    if spec is None:
        spec = IndexSpec(**overrides)
    elif overrides:
        spec = spec.replace(**overrides)
    if spec.n_shards > 1:
        return ShardedIndex.build(data, spec)
    return Index.build(data, spec)


def load_index(path):
    """Load a saved index, monolithic (NPZ file) or sharded (directory)."""
    return (ShardedIndex if os.path.isdir(path) else Index).load(path)


def _upgrade(fields: dict, key: str, current: int, defaults) -> bool:
    """Give an archive of a retired version the keys ``defaults(fields)``
    fills in; returns whether it was retired (the rest is the readers'
    check)."""
    found = fields.get(key)
    retired = found is not None and found.dtype.kind == "i" and \
        found.ndim == 0 and 1 <= int(found) < current
    if retired:
        try:
            extra = defaults(fields)
        except (KeyError, TypeError, ValueError):
            extra = {}   # malformed: the strict check names what is wrong
        fields.update({**extra, **fields, key: np.int64(current)})
    return retired


def _index_file(path: str, retired: list, global_ids=None) -> Index:
    """The index file at ``path``, upgraded; appends whether it was
    retired to ``retired``.  ``global_ids`` is this shard's part of a
    retired manifest's id map: the file's positional ids become those
    global ids."""
    fields = read_npz(path, "index file")
    retired.append(_upgrade(fields, "format_version", FORMAT_VERSION,
                            _index_defaults))
    if global_ids is not None:
        local = fields.get("ids")
        if local is None or local.dtype.kind != "i" or \
                local.shape != global_ids.shape or \
                np.any((local < 0) | (local >= local.size)):
            raise ValidationError(
                f"index file {path!r} does not fit the {global_ids.size} "
                "global ids its manifest maps it to")
        fields["ids"] = global_ids[local]
    return Index._from_fields(fields, path)


def _index_defaults(fields: dict) -> dict:
    """The keys index files before v4 lack, as their reader derived them:
    v1 had no mutations, v2 lacks the spec's ``quantize`` too (which reads
    as ``"none"``), and v1–v3 no seed partition — it gets the one a fresh
    index over the same rows computes, so an index whose backend left none
    serves after migration exactly what it served before."""
    data = fields["data"]
    n = len(data)
    spec = IndexSpec.from_json(str(fields["spec_json"]))
    return {"ids": np.arange(n, dtype=np.int64), "next_id": np.int64(n),
            "tombstones": np.zeros(n, dtype=bool), "generation": np.int64(0),
            "seed_labels": default_seed_labels(
                data.astype(spec.dtype), spec.metric, spec.dtype,
                spec.random_state)}


def _manifest_defaults(fields: dict) -> dict:
    """The keys manifests before v4 lack, as their reader derived them: v1
    and v2 had no generation (v1 no centroids, which stay absent), v1–v3
    no per-shard generations (every shard had the manifest's) and no
    ``next_id`` (one past the largest id); v4 lacks only the spec's
    ``quantize``.  The id map v1–v5 kept moves to the shard files
    (:func:`_split_id_map`)."""
    ids = fields["shard_ids"]
    generation = fields.get("generation", np.int64(0))
    return {"generation": generation,
            "shard_generations": np.full(fields["shard_offsets"].size - 1,
                                         generation, dtype=np.int64),
            "next_id": np.int64(ids.max() + 1 if ids.size else 0)}


def _split_id_map(merged, offsets, n_shards: int, path: str) -> dict:
    """``{shard file name: its rows' global ids}`` from a v1–v5 manifest's
    id map — ``shard_ids`` split by ``shard_offsets``."""
    if merged is None or offsets is None or merged.dtype.kind != "i" or \
            merged.ndim != 1 or offsets.dtype.kind != "i" or \
            offsets.shape != (n_shards + 1,) or offsets[0] != 0 or \
            offsets[-1] != merged.size or np.any(np.diff(offsets) < 0):
        raise ValidationError(
            f"sharded index {path!r}: its shard_ids and shard_offsets do "
            f"not describe {n_shards} shards")
    return {_shard_name(shard): merged[offsets[shard]:offsets[shard + 1]]
            for shard in range(n_shards)}


def migrate(path) -> bool:
    """``gkmeans migrate``: rewrite the index file or sharded directory at
    ``path`` at the current format versions.

    The readers take only the versions the writers emit.  A file of a
    retired version gets the keys it lacks — the values the retired
    readers assumed — and is saved back through the ordinary atomic
    ``save``, so it then serves exactly what the retired reader served.
    A manifest of version 1–5 held the id map its shard files now carry:
    each shard's positional ids become the global ids the map gave them.
    Every file is checked as the readers check it, and nothing is written
    unless one was retired: returns whether anything was rewritten, so a
    second call is a no-op returning ``False``.  Raises
    :class:`~repro.exceptions.ValidationError` for a file no version of
    its format describes.
    """
    path, retired = os.fspath(path), []
    if os.path.isdir(path):
        fields = read_npz(os.path.join(path, MANIFEST_NAME),
                          "sharded index manifest")
        old = _upgrade(fields, "sharded_format_version",
                       SHARDED_FORMAT_VERSION, _manifest_defaults)
        id_map = [fields.pop(key, None)
                  for key in ("shard_ids", "shard_offsets") if old]
        manifest = _manifest_from_fields(fields, path)
        global_ids = _split_id_map(*id_map, manifest.spec.n_shards,
                                   path) if old else {}
        retired.append(old)
        index = ShardedIndex._assemble(
            path, manifest, lambda shard_path: _index_file(
                shard_path, retired, global_ids.get(
                    os.path.basename(shard_path))))
    else:
        index = _index_file(path, retired)
    with index:
        if any(retired):
            index.save(path)
    return any(retired)
