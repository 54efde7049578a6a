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
nearest shards and walks only the shards that received queries.  The full
fan-out is the same search path at ``P = S`` (every shard probed, no routing
gemm); ``P < S`` trades recall for throughput and the routing decision is
deterministic and ``shard_workers``-invariant.

Persistence is one directory::

    corpus.shards/
      manifest.npz      format version, spec JSON, global row id per shard,
                        coarse routing centroids (gkmeans partitioner),
                        deployment endpoints + generation (format v3)
      shard_0000.idx    Index NPZ of shard 0 (rows shard_ids[0])
      shard_0001.idx    ...

written atomically (a temp directory is renamed into place) and validated on
load — a missing shard file, a foreign manifest or an id map that is not a
permutation of the dataset rows all raise
:class:`~repro.exceptions.ValidationError`.  Directories written by the
pre-routing format (version 1, no centroids) still load and serve the full
fan-out; requesting ``shard_probe < n_shards`` on them is a clear
``ValidationError`` instead of silent wrong routing.

Format version 3 turns the manifest into a *deployment* manifest: it
optionally carries a per-shard ``host:port`` endpoint list (one
``gkmeans serve`` daemon per shard) consumed by ``executor="remote"``, and
a ``generation`` counter naming which build of the index the daemons are
expected to serve (the ``info`` RPC reports it back).  v1/v2 directories
still load — they simply carry no deployment metadata.

Format version 4 makes the index *online*: :meth:`ShardedIndex.insert`
routes new vectors to the nearest coarse centroid's shard and repairs that
shard's graph locally, :meth:`ShardedIndex.delete` tombstones global ids,
and :meth:`ShardedIndex.compact` rebuilds tombstone-heavy shards.  The
manifest gains per-shard ``shard_generations`` (each shard's own mutation
counter — the value the shard's daemon must report in the ``info``
handshake) and the ``next_id`` counter keeping global ids unique for the
index's lifetime.  Mutations go live on disk through the same
atomic-rename ``save``: running daemons keep serving the *old* generation
from their already-loaded state (copy-on-write at the directory level)
until the ``reload`` RPC tells them to pick up the new one — the remote
executor's generation handshake turns a stale daemon into a
:class:`~repro.exceptions.ServingError` instead of silent wrong results.
v1–v3 directories still load; their shards adopt the manifest's global
generation.

On top of the mutations, format version 4 directories support *shard
rebalancing* (see :mod:`repro.index.rebalance`): :meth:`ShardedIndex.\
rebalance` splits oversized shards, folds starving shards into their
nearest-centroid sibling and refreshes the coarse routing centroids from
the live rows — all through the same copy-on-write protocol, so a saved
rebalance is an atomic manifest swap daemons pick up via ``reload``.  A
split or merge renumbers shards and bumps the children's generations
(stale daemons fail-fast through the handshake and the endpoint list is
detached); a refresh-only rebalance leaves shard NPZs and per-shard
generations untouched, so a running deployment stays valid.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
import time
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..cluster import KMeans
from ..distance import DistanceEngine, resolve_dtype
from ..exceptions import ServingError, ValidationError
from ..net.endpoints import parse_endpoints
from ..validation import (
    check_data_matrix,
    check_positive_int,
    check_random_state,
    clamp_workers,
)
from .executors import (
    ProcessShardExecutor,
    RemoteShardExecutor,
    ShardSearchTask,
    ThreadShardExecutor,
)
from .facade import Index
from .spec import EXECUTORS, IndexSpec, PARTITIONERS

__all__ = ["ShardedIndex", "ShardedServingStats", "SHARDED_FORMAT_VERSION",
           "MANIFEST_NAME", "partition_dataset", "build_index", "load_index"]

#: Version of the sharded directory layout.  Version 2 added the optional
#: ``centroids`` key (coarse routing centroids of the gkmeans partitioner);
#: version 3 added the deployment metadata (optional per-shard
#: ``endpoints`` list for ``executor="remote"`` plus a ``generation``
#: counter); version 4 added the online-mutation state (per-shard
#: ``shard_generations`` and the global ``next_id`` counter); version 5
#: marks specs that may carry ``quantize`` — the quantization state itself
#: lives in the spec JSON plus each shard's own NPZ (mono format v3), so
#: the manifest layout is unchanged.  Older directories still load, without
#: the newer keys (and therefore as ``quantize="none"``).
SHARDED_FORMAT_VERSION = 5

_READABLE_FORMAT_VERSIONS = (1, 2, 3, 4, 5)

#: File name of the manifest NPZ inside a sharded index directory.
MANIFEST_NAME = "manifest.npz"

_MANIFEST_KEYS = ("sharded_format_version", "spec_json", "shard_ids",
                  "shard_offsets")

#: Lloyd iterations of the coarse partitioning k-means — the partition only
#: has to be locality-preserving, not optimal, so a short run suffices.
_PARTITION_ITER = 10


def _shard_name(shard: int) -> str:
    return f"shard_{shard:04d}.idx"


def _coarse_metric(metric: str) -> str:
    """Metric of the coarse partitioning k-means for a serving ``metric``.

    The coarse split only needs locality, not the serving metric's
    geometry — metrics without a k-means structure (dot) fall back to the
    squared-Euclidean partition.
    """
    return metric if metric in ("sqeuclidean", "cosine") else "sqeuclidean"


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
                        metric=_coarse_metric(metric), dtype=dtype)
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


@dataclass(frozen=True)
class ShardedServingStats:
    """Combined execution profile of one sharded batch search.

    Aggregates the per-shard :class:`~repro.search.frontier.ServingStats`
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
        ``"process"``.  Also purely a throughput knob.
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
        Per-searched-shard :class:`~repro.search.frontier.ServingStats`, in
        shard order; routed searches skip shards that received no queries,
        so this may be shorter than ``n_shards``.
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


class ShardedIndex:
    """``n_shards`` sub-indexes served and persisted as one index.

    Construct with :meth:`build` (partitions the dataset, builds one
    :class:`~repro.index.facade.Index` per shard on a worker pool) or
    :meth:`load`; the raw constructor accepts pre-built shards for advanced
    use.  The API mirrors ``Index`` — ``search`` serves 1-D queries and 2-D
    batches, ``save``/``load`` round-trip the full serving state, and
    searches are deterministic under ``spec.random_state`` — so everything
    that consumes an ``Index`` (``evaluate_search``, the CLI, the probes)
    accepts a ``ShardedIndex`` unchanged.

    Attributes
    ----------
    spec:
        The sharded :class:`~repro.index.spec.IndexSpec`
        (``spec.n_shards >= 1``).
    shards:
        The per-shard ``Index`` objects, in shard order.
    shard_ids:
        Per-shard ``(n_s,)`` global row ids: ``shards[s].data`` is
        ``data[shard_ids[s]]``.
    centroids:
        ``(n_shards, d)`` coarse centroids the ``gkmeans`` partitioner
        assigned rows against (in the transformed clustering space), or
        ``None`` when the index carries no routing geometry (round_robin
        partitioner, single shard, or a pre-routing saved directory).
        Routed search (``shard_probe < n_shards``) requires them.
    build_seconds:
        Wall-clock construction time — partitioning plus the pooled shard
        builds (``None`` for loaded indexes).
    """

    def __init__(self, shards: list, shard_ids: list, spec: IndexSpec, *,
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
        if len(shard_ids) != len(shards):
            raise ValidationError(
                f"{len(shards)} shards but {len(shard_ids)} id groups")
        for shard, (index, ids) in enumerate(zip(shards, shard_ids)):
            ids = np.asarray(ids, dtype=np.int64)
            if ids.ndim != 1 or ids.size != index.n_rows:
                raise ValidationError(
                    f"shard {shard} holds {index.n_rows} rows but its "
                    f"id map has shape {ids.shape}")
        merged = np.concatenate([np.asarray(ids, dtype=np.int64)
                                 for ids in shard_ids])
        # Freshly built indexes use ids 0..n-1; mutated indexes may carry
        # holes (deleted-then-compacted ids are never reused), so the id
        # maps only have to be globally unique and non-negative.
        if merged.size and merged.min() < 0:
            raise ValidationError("shard id maps must be non-negative")
        if np.unique(merged).size != merged.size:
            raise ValidationError(
                "shard id maps must be globally unique — a row id appears "
                "in more than one shard")
        if centroids is not None:
            centroids = np.asarray(centroids)
            if centroids.shape != (len(shards), shards[0].n_features):
                raise ValidationError(
                    f"routing centroids must have shape ({len(shards)}, "
                    f"{shards[0].n_features}), got {centroids.shape}")
        self.spec = spec
        self.shards = list(shards)
        self.shard_ids = [np.asarray(ids, dtype=np.int64)
                          for ids in shard_ids]
        self.centroids = centroids
        self.build_seconds = build_seconds
        #: Global mutation counter of the whole sharded index — bumped by
        #: every insert/delete/compact.  The per-shard counters daemons are
        #: checked against are :attr:`shard_generations`.
        self.generation = int(generation)
        floor = int(merged.max()) + 1 if merged.size else 0
        self._next_id = floor if next_id is None else max(int(next_id),
                                                          floor)
        self._global_lookup: dict | None = None
        self._data: np.ndarray | None = None
        self.last_per_query_evaluations: np.ndarray | None = None
        self.last_n_evaluations = 0
        self.last_serving_stats: ShardedServingStats | None = None
        # Serving state: one persistent fan-out executor per executor kind
        # (recreated when the requested worker count changes), the directory
        # the index was loaded from / saved to (process workers load shard
        # NPZs from it), and the spill directory holding shard NPZs written
        # on demand for a never-saved in-memory index.
        self._executors: dict = {}
        self._source_dir: str | None = None
        self._spill_dir: str | None = None
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
    def ids(self) -> np.ndarray:
        """Global external ids of every physical row (ascending)."""
        return np.sort(np.concatenate(self.shard_ids))

    @property
    def tombstone_ids(self) -> np.ndarray:
        """Global external ids of the tombstoned rows (ascending)."""
        parts = [ids[index._tombstones]
                 for ids, index in zip(self.shard_ids, self.shards)]
        return np.sort(np.concatenate(parts))

    @property
    def evaluation_corpus(self) -> tuple:
        """``(live vectors, their global ids)`` in ascending-id order —
        the ground-truth corpus an exact oracle must score searches
        against (searches return global ids, never tombstoned rows)."""
        vectors = np.vstack([index.data[index.live_mask]
                             for index in self.shards])
        ids = np.concatenate([ids_[index.live_mask]
                              for ids_, index in zip(self.shard_ids,
                                                     self.shards)])
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
        """Release serving resources: fan-out pools, per-shard walk pools
        and the spill directory.

        Idempotent — closing twice (or racing a ``__del__``) is a no-op the
        second time — and safe while searches are in flight: executors are
        drained (their ``close`` joins running tasks) *before* the shard
        walk pools and the spill files those tasks read are torn down.
        The index stays usable — the next search simply recreates what it
        needs.  Call this (or use the index as a context manager) after
        serving with ``executor="process"``/``"remote"`` to reap worker
        processes and pooled connections.
        """
        # 1. Fan-out executors first: their close() waits for in-flight
        #    tasks, which may still be using the shard searchers and the
        #    spilled NPZs released below.
        executors, self._executors = self._executors, {}
        for _, executor in executors.values():
            executor.close()
        # 2. Then the per-shard walk pools (idempotent themselves).
        for shard in self.shards:
            shard.close()
        # 3. Finally the on-disk spill, now guaranteed unreferenced.
        spill, self._spill_dir = self._spill_dir, None
        if spill is not None:
            shutil.rmtree(spill, ignore_errors=True)

    def __enter__(self) -> "ShardedIndex":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter-dependent
        try:
            self.close()
        except Exception:
            pass

    def _shard_paths(self) -> list:
        """Per-shard NPZ paths the process executor's workers load from.

        A loaded/saved index points its workers at its own directory; an
        in-memory index spills each shard to a temp directory once (removed
        again in :meth:`close`).  Either way the files are ``save``
        round-trips, so a worker's shard serves bit-for-bit like the
        parent's — the persistence determinism suite guards exactly that.
        """
        if self._source_dir is not None:
            paths = [os.path.join(self._source_dir, _shard_name(shard))
                     for shard in range(self.n_shards)]
            if all(os.path.exists(path) for path in paths):
                return paths
        if self._spill_dir is None:
            spill = tempfile.mkdtemp(prefix="repro-shard-spill-")
            for shard, index in enumerate(self.shards):
                index.save(os.path.join(spill, _shard_name(shard)))
            self._spill_dir = spill
        return [os.path.join(self._spill_dir, _shard_name(shard))
                for shard in range(self.n_shards)]

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
            # every daemon against the new expectations.
            key = (shard_workers, self._endpoints, self.shard_generations,
                   tuple(sorted(self.remote_options.items())))
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
        elif name == "remote":
            executor = RemoteShardExecutor(
                self._endpoints, shard_workers,
                expected_generations=self.shard_generations,
                **self.remote_options)
        else:
            executor = ProcessShardExecutor(self._shard_paths(),
                                            shard_workers)
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
                                 dtype=engine.dtype)
        shard_ids, centroids = partition_dataset(
            data, spec.n_shards, spec.partitioner, metric=spec.metric,
            dtype=spec.dtype, random_state=spec.random_state,
            return_centroids=True)
        if build_workers is None:
            build_workers = min(len(shard_ids), os.cpu_count() or 1)
        build_workers = check_positive_int(build_workers,
                                           name="build_workers")

        def build_shard(ids: np.ndarray) -> Index:
            """Build one shard's sub-index over its partition rows."""
            shard_spec = spec.replace(
                n_shards=1, shard_probe=None,
                n_neighbors=min(spec.n_neighbors, ids.size - 1))
            return Index.build(data[ids], shard_spec)

        if build_workers == 1 or len(shard_ids) == 1:
            shards = [build_shard(ids) for ids in shard_ids]
        else:
            with ThreadPoolExecutor(max_workers=build_workers) as executor:
                shards = list(executor.map(build_shard, shard_ids))
        return cls(shards, shard_ids, spec, centroids=centroids,
                   build_seconds=time.perf_counter() - started)

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def search(self, queries: np.ndarray, n_results: int = 10, *,
               pool_size: int | None = None,
               workers: int | None = None, shard_workers: int | None = None,
               shard_probe: int | None = None, executor: str | None = None,
               random_state=None) -> tuple[np.ndarray, np.ndarray]:
        """Serve one query or a batch on each query's ``shard_probe`` shards.

        Parameters match :meth:`Index.search <repro.index.facade.Index.search>`
        plus ``shard_workers`` — the workers the shard fan-out runs on
        (default 1, clamped to the shard count and the CPU count) — plus
        ``shard_probe`` and ``executor``.  ``workers`` (inside each shard),
        ``shard_workers`` (across shards) and ``executor`` are pure
        throughput knobs: results are bit-for-bit identical at every level.

        ``executor`` selects where the per-shard walks run (see
        :data:`~repro.index.spec.EXECUTORS`): ``"thread"`` fans out on a
        persistent in-process thread pool, ``"process"`` on a persistent
        process pool whose workers each load their shard NPZ once and serve
        query groups by shared-nothing message passing.  Defaults to
        ``spec.executor``.  Pools live until :meth:`close`.

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

        Per-shard query subsets are regrouped into one batched walk per
        probed shard; the per-shard top-k (each shard's own rows only) are
        scatter-merged back into batch order at per-(query, shard) column
        offsets fixed by shard order and merged by true distance into the
        global top-k.  Returns ``(indices, distances)`` in global row ids,
        shaped exactly like the monolithic index's output.
        """
        n_results = check_positive_int(n_results, name="n_results",
                                       maximum=self.n_points)
        shard_workers = 1 if shard_workers is None else check_positive_int(
            shard_workers, name="shard_workers")
        shard_workers = clamp_workers(min(shard_workers, self.n_shards),
                                      name="shard_workers")
        executor = self.spec.executor if executor is None else executor
        if executor not in EXECUTORS:
            raise ValidationError(
                f"unknown executor {executor!r}; expected one of "
                f"{list(EXECUTORS)}")
        probe = self.spec.shard_probe if shard_probe is None else shard_probe
        probe = self.n_shards if probe is None else check_positive_int(
            probe, name="shard_probe", maximum=self.n_shards)
        routed = probe < self.n_shards
        if routed and self.centroids is None:
            if self.spec.partitioner == "round_robin":
                raise ValidationError(
                    f"shard_probe={probe} < n_shards={self.n_shards} "
                    "requires the geometric 'gkmeans' partitioner; "
                    "round_robin shards are dealt by row order and "
                    "carry no centroids to route against")
            raise ValidationError(
                f"shard_probe={probe} < n_shards={self.n_shards} needs "
                "the coarse routing centroids, but this index predates "
                "the routed format (manifest without centroids); "
                "rebuild and re-save it to enable routed search")
        seed = self.spec.random_state if random_state is None else random_state
        started = time.perf_counter()
        queries = np.asarray(queries)
        single = queries.ndim == 1
        if single:
            queries = queries[None, :]
        m = queries.shape[0]
        probed_mask = np.full((m, self.n_shards), not routed)
        if routed:
            routes = self._route(queries, probe)
            probed_mask[np.arange(m)[:, None], routes] = True
        shard_rows = [np.flatnonzero(probed_mask[:, shard])
                      for shard in range(self.n_shards)]
        probed = [shard for shard in range(self.n_shards)
                  if shard_rows[shard].size]
        # Column offsets of every (query, shard) block in the merge buffer:
        # query q's candidates from shard s start where the widths of q's
        # probed shards with smaller ids end.
        widths = np.array([min(n_results, index.n_points)
                           for index in self.shards], dtype=np.int64)
        contrib = probed_mask * widths[None, :]
        ends = np.cumsum(contrib, axis=1)
        starts_at = ends - contrib
        buffer_width = max(int(ends[:, -1].max()), n_results)

        # Shards share no state and each task is internally deterministic,
        # so neither the fan-out order nor the executor kind can influence
        # the scatter-merge below.
        tasks = [ShardSearchTask(
            shard=shard, queries=queries[shard_rows[shard]],
            shard_k=int(widths[shard]), pool_size=pool_size,
            workers=workers, seed=seed) for shard in probed]
        parts = self._get_executor(
            executor, min(shard_workers, len(probed))).run(tasks)

        all_ids = np.full((m, buffer_width), -1, dtype=np.int64)
        all_dist = np.full((m, buffer_width), np.inf,
                           dtype=parts[0].distances.dtype)
        # Routing scores every query against all centroids: one gemm,
        # n_shards evaluations per query, charged before the walks.
        evaluations = np.full(m, self.n_shards if routed else 0,
                              dtype=np.int64)
        for shard, part in zip(probed, parts):
            rows = shard_rows[shard]
            cols = starts_at[rows, shard][:, None] + \
                np.arange(widths[shard])[None, :]
            all_ids[rows[:, None], cols] = self._lift(shard, part.indices)
            all_dist[rows[:, None], cols] = part.distances
            evaluations[rows] += part.evaluations

        # Stable sort on distance: ties keep shard-then-rank order, so the
        # merge is deterministic and independent of shard_workers.  Unreached
        # entries are (-1, inf) pairs, so they sort last and become the
        # output padding; the per-shard widths sum to >= n_results.
        order = np.argsort(all_dist, axis=1, kind="stable")[:, :n_results]
        out_idx = np.take_along_axis(all_ids, order, axis=1)
        out_dist = np.take_along_axis(all_dist, order, axis=1)

        self.last_per_query_evaluations = evaluations
        self.last_n_evaluations = int(evaluations.sum())
        self.last_serving_stats = ShardedServingStats(
            n_shards=self.n_shards, shard_workers=shard_workers,
            n_queries=m, shard_probe=probe, executor=executor,
            routing_gemms=int(routed),
            queries_per_shard=tuple(int(rows.size) for rows in shard_rows),
            shard_stats=tuple(part.stats for part in parts),
            total_seconds=time.perf_counter() - started)
        if single:
            return out_idx[0], out_dist[0]
        return out_idx, out_dist

    def _lift(self, shard: int, idx: np.ndarray) -> np.ndarray:
        """Lift one shard's local result ids to global row ids.

        Unreached ``-1`` entries stay ``-1`` so they keep sorting last in
        the merge.
        """
        reached = idx >= 0
        return np.where(reached, self.shard_ids[shard][np.where(
            reached, idx, 0)], -1)

    def _route(self, queries: np.ndarray, probe: int) -> np.ndarray:
        """``(m, probe)`` nearest-shard ids per query, nearest first.

        Replays the partitioner's own assignment rule: queries are scored
        against the persisted coarse centroids in the transformed
        clustering space (l2-normalised rows for cosine) with one gemm.
        ``argsort`` with a stable kind makes centroid-distance ties resolve
        by shard order, so the routing is deterministic.
        """
        coarse = DistanceEngine(_coarse_metric(self.metric), self.spec.dtype)
        prepared = coarse.prepare_clustering(queries)
        scores = coarse.clustering_engine().cross(prepared, self.centroids)
        return np.argsort(scores, axis=1, kind="stable")[:, :probe]

    # ------------------------------------------------------------------ #
    # Online mutations
    # ------------------------------------------------------------------ #
    def _invalidate_serving_state(self) -> None:
        """Drop every cache a mutation makes stale.

        Fan-out executors are closed (process workers hold pre-mutation
        shard NPZs; the remote executor's handshake expectations changed),
        the spill directory and the source-directory pointer are dropped so
        the next process fan-out re-spills the mutated state, and the
        reassembled-data / id-lookup caches reset.  The next search simply
        recreates what it needs.
        """
        executors, self._executors = self._executors, {}
        for _, executor in executors.values():
            executor.close()
        spill, self._spill_dir = self._spill_dir, None
        if spill is not None:
            shutil.rmtree(spill, ignore_errors=True)
        self._source_dir = None
        self._data = None
        self._global_lookup = None

    def _lookup_global(self) -> dict:
        """Lazy global-id -> ``(shard, local position)`` map."""
        if self._global_lookup is None:
            lookup = {}
            for shard, ids in enumerate(self.shard_ids):
                for local, value in enumerate(ids.tolist()):
                    lookup[value] = (shard, local)
            self._global_lookup = lookup
        return self._global_lookup

    def insert(self, vectors: np.ndarray,
               ids: np.ndarray | None = None) -> np.ndarray:
        """Insert vectors online with routing-aware shard placement.

        Each new vector goes to its *nearest coarse centroid's* shard (one
        gemm against the persisted routing centroids — the same assignment
        rule routed search replays), so the gkmeans partition stays locally
        dense under inserts; round-robin indexes deal new ids out by
        ``id % n_shards``.  Inside the chosen shard the graph is repaired
        locally (see :meth:`Index.insert
        <repro.index.facade.Index.insert>`), bumping that shard's
        generation — other shards' daemons stay valid.  ``ids`` optionally
        assigns the global external ids (unique, non-negative, disjoint
        from every existing id).  Returns the ``(m,)`` new global ids.
        """
        vectors = np.asarray(vectors)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        vectors = check_data_matrix(vectors, name="vectors",
                                    dtype=self.engine_.dtype)
        if vectors.shape[1] != self.n_features:
            raise ValidationError(
                f"inserted vectors have dimension {vectors.shape[1]}, the "
                f"index holds {self.n_features}-dimensional data")
        m = vectors.shape[0]
        if ids is None:
            new_ids = np.arange(self._next_id, self._next_id + m,
                                dtype=np.int64)
        else:
            new_ids = np.asarray(ids, dtype=np.int64).ravel()
            if new_ids.size != m:
                raise ValidationError(f"{m} vectors but {new_ids.size} ids")
            if new_ids.size and new_ids.min() < 0:
                raise ValidationError("ids must be non-negative")
            if np.unique(new_ids).size != new_ids.size:
                raise ValidationError("ids must be unique")
            lookup = self._lookup_global()
            taken = [value for value in new_ids.tolist() if value in lookup]
            if taken:
                raise ValidationError(
                    f"ids {taken} are already in the index (tombstoned "
                    "ids stay reserved until compaction)")
        if self.n_shards == 1:
            placement = np.zeros(m, dtype=np.int64)
        elif self.centroids is not None:
            placement = self._route(vectors, 1)[:, 0]
        else:
            placement = new_ids % self.n_shards
        for shard in range(self.n_shards):
            rows = np.flatnonzero(placement == shard)
            if rows.size == 0:
                continue
            # Default shard-local ids — they stay equal to physical
            # positions, which the global id lift in _lift relies on.
            self.shards[shard].insert(vectors[rows])
            self.shard_ids[shard] = np.concatenate(
                [self.shard_ids[shard], new_ids[rows]])
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
        if np.unique(wanted).size != wanted.size:
            raise ValidationError("duplicate ids in delete request")
        lookup = self._lookup_global()
        per_shard: list = [[] for _ in range(self.n_shards)]
        for value in wanted.tolist():
            entry = lookup.get(value)
            if entry is None:
                raise ValidationError(f"id {value} is not in the index")
            shard, local = entry
            if self.shards[shard]._tombstones[local]:
                raise ValidationError(f"id {value} is already deleted")
            per_shard[shard].append(local)
        for shard, locals_ in enumerate(per_shard):
            remaining = self.shards[shard].n_points - len(locals_)
            if locals_ and remaining < 2:
                raise ValidationError(
                    f"deleting {len(locals_)} of "
                    f"{self.shards[shard].n_points} live points from shard "
                    f"{shard} would leave fewer than 2 — compact or "
                    "rebuild with fewer shards instead")
        for shard, locals_ in enumerate(per_shard):
            if locals_:
                self.shards[shard].delete(
                    np.asarray(locals_, dtype=np.int64))
        self.generation += 1
        self._invalidate_serving_state()
        return int(wanted.size)

    def compact(self) -> int:
        """Rebuild every tombstone-carrying shard over its live rows.

        Shards are rebuilt fresh (their local ids must stay equal to
        physical positions for the global id lift) with the graph width
        clamped to the live count; untouched shards keep their structure
        *and* their generation, so their daemons stay valid.  Global ids
        are stable across compaction.  A no-op returning 0 when nothing is
        tombstoned; otherwise returns the number of rows removed.
        """
        removed = self.n_tombstones
        if removed == 0:
            return 0
        for shard, index in enumerate(self.shards):
            if index.n_tombstones == 0:
                continue
            live = index.live_mask
            data = np.ascontiguousarray(index.data[live])
            shard_spec = self.spec.replace(
                n_shards=1, shard_probe=None,
                n_neighbors=min(self.spec.n_neighbors, data.shape[0] - 1))
            rebuilt = Index.build(data, shard_spec)
            rebuilt.generation = index.generation + 1
            index.close()
            self.shards[shard] = rebuilt
            self.shard_ids[shard] = self.shard_ids[shard][live].copy()
        self.generation += 1
        self._invalidate_serving_state()
        return removed

    def rebalance(self, policy=None, **overrides):
        """Split/merge drifted shards and refresh the routing centroids.

        One maintenance pass (see :mod:`repro.index.rebalance`): shards
        below ``min_shard_rows`` live rows are folded into their
        nearest-centroid sibling, shards above ``max_shard_rows`` are
        re-partitioned by a coarse 2-means into two children (both rebuilt
        fresh, tombstones dropped — a split or merge implies compaction of
        the shards involved), and with ``refresh_centroids`` (the default)
        every coarse centroid is recomputed as the mean of its shard's
        live rows in the clustering space, so routed search replays the
        partition's *current* geometry after insert/delete drift.

        ``policy`` is a :class:`~repro.index.rebalance.RebalancePolicy`;
        alternatively pass its fields as keyword ``overrides``.  Requires
        the geometric ``gkmeans`` partitioner's centroids — round_robin
        and pre-routing directories raise a clear
        :class:`~repro.exceptions.ValidationError`.

        Global external ids are stable throughout; searches after a
        rebalance equal a rebuild-from-scratch oracle over the same live
        rows up to bitwise distance ties (the determinism suite enforces
        this across metric × dtype × executor).  A split or merge changes
        the shard topology: per-shard generations bump, the endpoint
        deployment (if any) is detached, and serving caches reset.  A
        refresh-only pass keeps shard NPZs, per-shard generations and any
        running daemons valid.  Returns a
        :class:`~repro.index.rebalance.RebalanceReport`; a pass that
        changes nothing reports no actions and bumps no generation.
        """
        # Runtime import: rebalance.py imports this module's helpers.
        from .rebalance import RebalancePolicy, apply_rebalance

        if policy is None:
            policy = RebalancePolicy(**overrides)
        elif overrides:
            raise ValidationError(
                "pass either a RebalancePolicy or keyword overrides, "
                "not both")
        return apply_rebalance(self, policy)

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
        offsets = np.cumsum([0] + [ids.size for ids in self.shard_ids])
        tmp_dir = tempfile.mkdtemp(dir=parent, prefix=".sharded.tmp")
        try:
            for shard, index in enumerate(self.shards):
                index.save(os.path.join(tmp_dir, _shard_name(shard)))
            manifest = {
                "sharded_format_version": np.int64(SHARDED_FORMAT_VERSION),
                "spec_json": np.asarray(self.spec.to_json()),
                "shard_ids": np.concatenate(self.shard_ids),
                "shard_offsets": offsets.astype(np.int64),
                "generation": np.int64(self.generation),
                "shard_generations": np.asarray(self.shard_generations,
                                                dtype=np.int64),
                "next_id": np.int64(self._next_id),
            }
            if self.centroids is not None:
                manifest["centroids"] = self.centroids
            if self._endpoints is not None:
                manifest["endpoints"] = np.asarray(list(self._endpoints))
            with open(os.path.join(tmp_dir, MANIFEST_NAME), "wb") as stream:
                np.savez(stream, **manifest)
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
        # The saved directory is now the canonical on-disk copy: point the
        # process executor's workers at it instead of spilling temp NPZs.
        self._source_dir = path

    @classmethod
    def load(cls, path) -> "ShardedIndex":
        """Restore a sharded index saved by :meth:`save`.

        Raises :class:`~repro.exceptions.ValidationError` when ``path`` is
        not a sharded index directory, the manifest is missing/foreign, a
        shard file is absent or corrupt, or the id map does not cover the
        dataset.
        """
        path = os.fspath(path)
        manifest_path = os.path.join(path, MANIFEST_NAME)
        if not os.path.isdir(path) or not os.path.exists(manifest_path):
            raise ValidationError(
                f"{path!r} is not a sharded index directory (no "
                f"{MANIFEST_NAME}); single-file indexes load via Index.load")
        try:
            with np.load(manifest_path, allow_pickle=False) as archive:
                missing = [key for key in _MANIFEST_KEYS
                           if key not in archive.files]
                if missing:
                    raise ValidationError(
                        f"sharded index manifest {manifest_path!r} is "
                        f"missing keys {missing}")
                version = int(archive["sharded_format_version"])
                if version not in _READABLE_FORMAT_VERSIONS:
                    raise ValidationError(
                        f"sharded index {path!r} has format version "
                        f"{version}, this build reads versions "
                        f"{list(_READABLE_FORMAT_VERSIONS)}")
                spec = IndexSpec.from_json(str(archive["spec_json"]))
                merged_ids = archive["shard_ids"]
                offsets = archive["shard_offsets"]
                # Version-1 directories predate routing and carry no
                # centroids; they load and serve the full fan-out, and
                # requesting shard_probe on them fails with a clear error.
                centroids = (archive["centroids"]
                             if "centroids" in archive.files else None)
                # Version-3 deployment metadata; v1/v2 directories predate
                # network serving and load with no endpoints, generation 0.
                generation = (int(archive["generation"])
                              if "generation" in archive.files else 0)
                endpoints = ([str(value) for value in archive["endpoints"]]
                             if "endpoints" in archive.files else None)
                # Version-4 online-mutation state; pre-v4 directories load
                # with every shard adopting the manifest's global
                # generation (what their daemons report) and a next_id
                # derived from the id map.
                shard_generations = (
                    archive["shard_generations"].astype(np.int64)
                    if "shard_generations" in archive.files else None)
                next_id = (int(archive["next_id"])
                           if "next_id" in archive.files else None)
        except ValidationError:
            raise
        except (OSError, ValueError, KeyError, EOFError,
                zipfile.BadZipFile, json.JSONDecodeError) as exc:
            raise ValidationError(
                f"cannot read sharded index manifest {manifest_path!r}: "
                f"{exc}") from exc
        if offsets.ndim != 1 or offsets.size != spec.n_shards + 1 or \
                offsets[0] != 0 or offsets[-1] != merged_ids.size or \
                np.any(np.diff(offsets) < 0):
            raise ValidationError(
                f"sharded index {path!r} is inconsistent: shard_offsets "
                f"{offsets!r} do not partition {merged_ids.size} row ids "
                f"into {spec.n_shards} shards")
        shard_ids = [merged_ids[offsets[s]:offsets[s + 1]]
                     for s in range(spec.n_shards)]
        shards = []
        for shard in range(spec.n_shards):
            shard_path = os.path.join(path, _shard_name(shard))
            try:
                shards.append(Index.load(shard_path))
            except ValidationError as exc:
                raise ValidationError(
                    f"sharded index {path!r}: shard {shard} is missing or "
                    f"corrupt: {exc}") from exc
        if shard_generations is not None:
            if shard_generations.shape != (spec.n_shards,):
                raise ValidationError(
                    f"sharded index {path!r} is inconsistent: "
                    f"shard_generations has shape {shard_generations.shape}"
                    f", expected ({spec.n_shards},)")
            for index, value in zip(shards, shard_generations):
                index.generation = int(value)
        else:
            # Pre-v4 directories carried one global generation; the shard
            # daemons report it back, so the loaded shards adopt it.
            for index in shards:
                index.generation = generation
        try:
            index = cls(shards, shard_ids, spec, centroids=centroids,
                        endpoints=endpoints, generation=generation,
                        next_id=next_id)
        except ValidationError as exc:
            raise ValidationError(
                f"sharded index {path!r} is inconsistent: {exc}") from exc
        index._source_dir = path
        return index


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
    if os.path.isdir(os.fspath(path)):
        return ShardedIndex.load(path)
    return Index.load(path)
