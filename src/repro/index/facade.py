"""The ``Index``: build / search / mutate / persist an ANN index in one object.

§4.3 of the paper observes that the Alg. 3 graph is good enough to serve ANN
queries directly — this module packages that observation as a library-level
API.  An index is ``spec.n_shards`` shards (one by default), each a graph
over its group of the rows (:mod:`repro.index._shard`): ``Index.build``
partitions the data and runs the construction backend named by an
:class:`~repro.index.spec.IndexSpec` on every group, ``index.search`` walks
each query's shards — the batched graph walk, one gemm per round across a
group's live queries — and merges their answers by true distance, and
``index.save`` / ``Index.load`` round-trip the whole serving state, so a
loaded index answers queries bit-for-bit identically with no graph rebuild.
Sharding is the same walk run over S row groups; one shard is simply
``S = 1``, where the merge has nothing to do.

Searches are deterministic and their placement is a pure throughput knob:
``workers`` (inside a shard), ``shard_workers`` (across shards) and
``executor`` (``"thread"`` in-process, ``"remote"`` on one ``gkmeans
serve`` daemon per shard) never change an answer.  ``shard_probe < S``
routes each query to its nearest shards only, trading recall for speed.

The index is *online*: ``insert`` adds vectors with local graph repair (no
rebuild) on the shard nearest to them, ``delete`` tombstones external ids —
tombstoned points stay in the graph as routing waypoints but are excluded
from every result — ``compact`` drops the tombstoned rows, and
``rebalance`` re-partitions the live rows as a fresh build would.  Every
mutation bumps ``generation`` and the touched shards'
``shard_generations``, the staleness signal serving daemons are checked
against.  Results are reported in stable external ids.

One ``save`` writes the layout the state needs: a single NPZ file for one
shard without a deployment, otherwise a directory holding a manifest and
one file per shard (:mod:`repro.index.sharded`).  ``load`` reads either.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

import numpy as np

from ..distance import DistanceEngine, ScalarQuantizer
from ..distance.quantized import input_range_dtype
from ..exceptions import ServingError, ValidationError
from ..graph.knngraph import KNNGraph
from ..net.endpoints import parse_endpoints
from ..search._seeding import nearest_centroids
from ..search._walk import SearchResult
from ..validation import (
    check_data_matrix,
    check_positive_int,
    check_queries,
    clamp_workers,
)
from ._shard import (FORMAT_VERSION, _Shard, atomic_savez, check_fields,
                     read_npz)
from .executors import (
    RemoteShardExecutor,
    ShardSearchTask,
    ThreadShardExecutor,
)
from .sharded import (
    MANIFEST_NAME,
    SHARDED_FORMAT_VERSION,
    RebalanceReport,
    ShardedServingStats,
    _merge_parts,
    _partition_and_build,
    _shard_name,
    read_manifest,
)
from .spec import EXECUTORS, IndexSpec

__all__ = ["Index", "FORMAT_VERSION", "read_npz", "check_fields",
           "atomic_savez"]


def _same_shard(old: _Shard, new: _Shard) -> bool:
    """Whether ``new`` holds exactly what ``old`` persists, its mutation
    counter aside — rows, ids, tombstones, graph and seed partition."""
    old_fields, new_fields = old.fields(next_id=0), new.fields(next_id=0)
    del old_fields["generation"], new_fields["generation"]
    return (old_fields.keys() == new_fields.keys()
            and all(np.array_equal(old_fields[key], new_fields[key])
                    for key in old_fields))


def _replace(tmp: str, path: str) -> None:
    """Move the finished file or directory ``tmp`` to ``path``.

    A file over a file (or over nothing) is one atomic rename.  Any swap
    that involves a directory renames the old artifact aside first and
    puts it back if the new one cannot take its place, so ``path`` never
    holds a half-written index; the old one is removed last.
    """
    if not (os.path.lexists(path)
            and (os.path.isdir(tmp) or os.path.isdir(path))):
        os.replace(tmp, path)
        return
    backup = tempfile.mkdtemp(dir=os.path.dirname(path) or ".",
                              prefix=".index.old")
    os.rmdir(backup)
    os.rename(path, backup)
    try:
        os.rename(tmp, path)
    except BaseException:
        os.rename(backup, path)
        raise
    if os.path.isdir(backup) and not os.path.islink(backup):
        shutil.rmtree(backup)
    else:
        os.unlink(backup)


class Index:
    """A built ANN index: ``spec.n_shards`` shards of data + k-NN graph.

    Construct with :meth:`build` (partitions the data and runs a registered
    construction backend per shard) or :meth:`load` (restores a saved
    index); the raw constructor serves one pre-built graph over ``data``
    as a one-shard index.

    Searches are deterministic: every query enters each shard's graph from
    its nearest cluster of that shard's seed partition (see
    :mod:`repro.search._seeding`), so the same query always returns the
    same neighbours, whatever batch it arrives in and wherever the shard
    walks run — including after a save/load round-trip.

    Attributes
    ----------
    spec:
        The :class:`~repro.index.spec.IndexSpec` the index was built under.
    shards:
        The per-shard state, in shard order; ``shards[s].ids`` are the
        global ids of ``shards[s].data``'s rows.
    centroids:
        ``(n_shards, d)`` coarse centroids the ``gkmeans`` partitioner
        assigned rows against (in the transformed clustering space), or
        ``None`` when the index carries no routing geometry (round_robin
        partitioner or one shard).  Routed search (``shard_probe <
        n_shards``) requires them.
    generation:
        Mutation counter of the whole index, bumped by every insert,
        delete, compact and rebalance.  The per-shard counters daemons are
        checked against are :attr:`shard_generations`; with one shard they
        are the same number.
    build_seconds:
        Wall-clock construction time — partitioning plus the shard builds
        (``None`` for loaded indexes).
    last_n_evaluations, last_serving_stats:
        Read-only views of the most recent :meth:`search` result's total
        evaluation count and stats.  A search returns both itself (see
        :class:`~repro.search.SearchResult`); under concurrent searches
        these name whichever call finished last.
    """

    def __init__(self, data: np.ndarray, graph: KNNGraph, spec: IndexSpec, *,
                 ids: np.ndarray | None = None,
                 tombstones: np.ndarray | None = None,
                 next_id: int | None = None, generation: int = 0,
                 quantizer: ScalarQuantizer | None = None,
                 seed_labels: np.ndarray | None = None,
                 build_seconds: float | None = None) -> None:
        if not isinstance(spec, IndexSpec):
            raise ValidationError(
                f"spec must be an IndexSpec, got {type(spec).__name__}")
        shard = _Shard(data, graph, spec, ids=ids, tombstones=tombstones,
                       generation=generation, quantizer=quantizer,
                       seed_labels=seed_labels)
        self._adopt([shard], spec, generation=generation, next_id=next_id,
                    build_seconds=build_seconds)

    @classmethod
    def _from_shards(cls, shards: list, spec: IndexSpec, **state) -> "Index":
        """The index serving ``shards`` under ``spec`` (see :meth:`_adopt`
        for ``state``)."""
        index = cls.__new__(cls)
        index._adopt(shards, spec, **state)
        return index

    def _adopt(self, shards: list, spec: IndexSpec, *,
               centroids: np.ndarray | None = None, endpoints=None,
               generation: int = 0, next_id: int | None = None,
               build_seconds: float | None = None) -> None:
        """Take ``shards`` — whose ids, the global ids of their rows, no two
        shards share — as this index's state."""
        if len(shards) != spec.n_shards:
            raise ValidationError(
                f"spec declares {spec.n_shards} shards but {len(shards)} "
                "were given")
        # Freshly built indexes use ids 0..n-1; mutated indexes may carry
        # holes (deleted-then-compacted ids), so the shards' ids only have
        # to be disjoint.
        merged = np.concatenate([shard.ids for shard in shards])
        if len(shards) > 1 and np.unique(merged).size != merged.size:
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
        self.generation = int(generation)
        floor = int(merged.max()) + 1 if merged.size else 0
        self._next_id = floor if next_id is None else max(int(next_id),
                                                          floor)
        self._last: SearchResult | None = None
        # Row-order caches (see _in_id_order), reset by every mutation.
        self._order = None
        self._data: np.ndarray | None = None
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
        """Number of *live* (non-tombstoned) indexed vectors."""
        return sum(shard.n_points for shard in self.shards)

    @property
    def n_rows(self) -> int:
        """Number of physical rows, tombstoned ones included."""
        return sum(shard.n_rows for shard in self.shards)

    @property
    def n_tombstones(self) -> int:
        """Number of tombstoned (deleted, not yet compacted) rows."""
        return sum(shard.n_tombstones for shard in self.shards)

    @property
    def shard_ids(self) -> list:
        """Per-shard ``(n_s,)`` global row ids — each shard's own ``ids``."""
        return [shard.ids for shard in self.shards]

    def _in_id_order(self, parts: list) -> np.ndarray:
        """The per-row arrays ``parts`` of the shards, in shard order, as
        one array in ascending global-id order.  When the shards' rows are
        already in that order (one shard whose ids only ever grew) this is
        a view of the stacked parts, not a copy."""
        if self._order is None:
            ids = np.concatenate(self.shard_ids)
            self._order = (np.argsort(ids, kind="stable")
                           if np.any(ids[1:] <= ids[:-1]) else slice(None))
        stacked = parts[0] if len(parts) == 1 else np.concatenate(parts)
        return stacked[self._order]

    @property
    def data(self) -> np.ndarray:
        """``(n_rows, d)`` indexed vectors, tombstoned rows included, in
        ascending global-id order — the input's row order for a fresh
        build, at every shard count and partitioner."""
        if self._data is None:
            self._data = np.ascontiguousarray(
                self._in_id_order([shard.data for shard in self.shards]))
        return self._data

    @property
    def ids(self) -> np.ndarray:
        """``(n_rows,)`` external id of every row of :attr:`data`
        (ascending)."""
        return self._in_id_order(self.shard_ids)

    @property
    def live_mask(self) -> np.ndarray:
        """``(n_rows,)`` mask of the live (non-tombstoned) rows of
        :attr:`data`."""
        return self._in_id_order([shard.live_mask for shard in self.shards])

    @property
    def tombstone_ids(self) -> np.ndarray:
        """External ids of the tombstoned rows (ascending)."""
        return self.ids[~self.live_mask]

    @property
    def evaluation_corpus(self) -> tuple:
        """``(live vectors, their external ids)`` in ascending-id order —
        the ground-truth corpus an exact oracle must score searches
        against.  Searches return external ids and never tombstoned rows,
        so scoring against raw row positions is wrong the moment the index
        mutates."""
        if not self.n_tombstones:
            return self.data, self.ids
        live = self.live_mask
        return self.data[live], self.ids[live]

    @property
    def shard_generations(self) -> tuple:
        """Per-shard mutation counters, in shard order — what each shard's
        serving daemon must report in the ``info`` handshake."""
        return tuple(shard.generation for shard in self.shards)

    @property
    def shard_sizes(self) -> tuple:
        """Per-shard live point counts, in shard order."""
        return tuple(shard.n_points for shard in self.shards)

    def _only_shard(self, what: str) -> _Shard:
        """The shard of a one-shard index, whose ``what`` is the index's."""
        if len(self.shards) != 1:
            raise AttributeError(
                f"an index of {len(self.shards)} shards has one {what} per "
                f"shard: read index.shards[s].{what}")
        return self.shards[0]

    @property
    def graph(self) -> KNNGraph:
        """The :class:`~repro.graph.knngraph.KNNGraph` of a one-shard index
        (its rows are :attr:`data`'s for a fresh build); a sharded index
        has one per shard, ``shards[s].graph``."""
        return self._only_shard("graph").graph

    @property
    def seed_labels(self) -> np.ndarray:
        """The seed partition labels of a one-shard index's rows (per shard
        when sharded, ``shards[s].seed_labels``)."""
        return self._only_shard("seed_labels").seed_labels

    @property
    def quantizer(self) -> ScalarQuantizer | None:
        """The :class:`~repro.distance.ScalarQuantizer` of a one-shard index
        (``None`` for ``quantize="none"``; per shard when sharded)."""
        return self._only_shard("quantizer").quantizer

    @property
    def n_features(self) -> int:
        """Dimensionality of the indexed vectors."""
        return self.shards[0].n_features

    @property
    def metric(self) -> str:
        """Canonical metric name the index scores queries under."""
        return self.shards[0].metric

    @property
    def engine_(self) -> DistanceEngine:
        """The shards' shared :class:`~repro.distance.DistanceEngine`."""
        return self.shards[0].engine_

    def __len__(self) -> int:
        return self.n_points

    def __repr__(self) -> str:
        return (f"Index(backend={self.spec.backend!r}, "
                f"n_shards={self.n_shards}, n={self.n_points}, "
                f"d={self.n_features}, kappa={self.spec.n_neighbors}, "
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

    def __enter__(self) -> "Index":
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
        batch mid-flight.
        """
        return self._get_executor("remote", 1).check_health()

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, data: np.ndarray, spec: IndexSpec | None = None, *,
              build_workers: int | None = None, **overrides) -> "Index":
        """Build an index of ``spec.n_shards`` shards over ``data``.

        ``overrides`` are :class:`~repro.index.spec.IndexSpec` fields applied
        on top of ``spec`` (or of the default spec when ``spec`` is omitted),
        so the common cases read naturally::

            Index.build(data)                                   # defaults
            Index.build(data, backend="nndescent", metric="cosine")
            Index.build(data, spec, n_shards=4)                 # 4 shards

        The rows are partitioned with ``spec.partitioner`` and every shard
        is built over its group.  The shard builds are independent seeded
        computations, so they run on a ``build_workers``-thread pool
        (default: one thread per shard, capped at the CPU count) without
        changing the result.  A shard whose row count cannot support the
        graph width gets a clamped ``n_neighbors`` (``shard_size - 1``);
        the serving results still cover the whole dataset.  Row ``i`` gets
        external id ``i``.
        """
        if spec is None:
            spec = IndexSpec(**overrides)
        elif overrides:
            spec = spec.replace(**overrides)
        started = time.perf_counter()
        # Cast once to the engine dtype, so the shard groups are taken from
        # an already-converted matrix (and one shard is that matrix).
        engine = DistanceEngine(spec.metric, spec.dtype)
        data = check_data_matrix(data, min_samples=2 * spec.n_shards,
                                 dtype=engine.dtype,
                                 range_dtype=input_range_dtype(spec.quantize))
        check_positive_int(spec.n_neighbors, name="n_neighbors",
                           maximum=data.shape[0] - 1)
        shards, centroids = _partition_and_build(
            spec, data, np.arange(data.shape[0], dtype=np.int64),
            build_workers)
        return cls._from_shards(shards, spec, centroids=centroids,
                                build_seconds=time.perf_counter() - started)

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def search(self, queries: np.ndarray, n_results: int = 10, *,
               pool_size: int | None = None,
               workers: int | None = None, shard_workers: int | None = None,
               shard_probe: int | None = None, executor: str | None = None
               ) -> SearchResult:
        """Serve one query or a batch of queries.

        Parameters
        ----------
        queries:
            An ``(m, d)`` matrix (returns ``(m, n_results)`` arrays, padded
            with ``-1``/``inf`` where fewer points are reachable) or a
            ``(d,)`` vector — a batch of one, returned as its single
            ``(n_results,)`` row.
        n_results:
            Number of neighbours per query.
        pool_size:
            Candidate-pool override (defaults to ``spec.pool_size``).
        workers:
            Worker threads of the group walks inside each shard (defaults
            to ``spec.workers``).
        shard_workers:
            Workers the shard fan-out runs on (default 1, clamped to the
            shard count and the CPU count).
        shard_probe:
            ``P`` routes each query to its ``P`` nearest shards (one gemm
            of the batch against the coarse centroids) and walks only the
            shards that received queries.  The default (unset in call and
            spec) is ``P = n_shards``, the full fan-out: every shard serves
            the whole batch and no routing gemm is issued.  ``P <
            n_shards`` is an approximation knob (recall may drop for
            queries whose true neighbours live in an unprobed shard) and
            requires the ``gkmeans`` partitioner's centroids.
        executor:
            Where the shard walks run (see
            :data:`~repro.index.spec.EXECUTORS`; defaults to
            ``spec.executor``): ``"thread"`` on a persistent in-process
            pool, ``"remote"`` on each shard's ``gkmeans serve`` daemon
            (:attr:`endpoints`).  Pools and connections live until
            :meth:`close`.

        ``workers``, ``shard_workers`` and ``executor`` are pure throughput
        knobs: results are bit-for-bit identical at every level.

        A routed search fans out twice.  Each query first walks its nearest
        shard; its k-th distance there (``inf`` when that shard returned
        fewer than k live rows) then caps its walks in its other probed
        shards, which never expand a candidate the merge would discard
        against the k results already held.

        Each probed shard walks its queries as one batch (a shard serving
        every query walks the checked batch itself) and answers in the
        global ids its rows carry.  The answers land as one batch-order
        block per shard, ``(-1, inf)`` where the shard was not probed; the
        blocks are concatenated in shard order and one stable sort by true
        distance picks the global top-k (a lone shard's answer is already
        that).

        Returns
        -------
        SearchResult:
            Unpacks as ``(indices, distances)`` — neighbour ids and
            distances, sorted by ascending distance — and carries the
            ``(m,)`` per-query ``evaluations`` (``(1,)`` for one query;
            routing gemms included) and a
            :class:`~repro.index.sharded.ShardedServingStats`.
        """
        # One read of every shard's live count serves the validation and
        # the per-shard widths.
        live = [shard.n_points for shard in self.shards]
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
        against the coarse centroids in the transformed clustering space
        (l2-normalised rows for cosine) with one gemm — the nearest-centroid
        step seeding runs inside every shard
        (:func:`~repro.search._seeding.nearest_centroids`).  Ties resolve by
        shard order, so the routing is deterministic.
        """
        return nearest_centroids(self.engine_, queries, self.centroids,
                                 probe)

    # ------------------------------------------------------------------ #
    # Online mutations
    # ------------------------------------------------------------------ #
    def _invalidate_serving_state(self) -> None:
        """Drop every cache a mutation makes stale: the fan-out executors
        (the remote executor's handshake expectations changed) and the
        row-order caches.  The next search recreates what it needs."""
        executors, self._executors = self._executors, {}
        for _, executor in executors.values():
            executor.close()
        self._order = None
        self._data = None

    def insert(self, vectors: np.ndarray,
               ids: np.ndarray | None = None) -> np.ndarray:
        """Insert vectors online, repairing the graph locally (no rebuild).

        ``vectors`` is one ``(d,)`` vector or an ``(m, d)`` batch; ``ids``
        optionally assigns the external ids of the new points (unique,
        non-negative, disjoint from every existing id — tombstoned ones
        included), defaulting to the next unused integers; the request is
        checked before anything mutates.  Each vector
        goes to its *nearest coarse centroid's* shard (one gemm against the
        routing centroids — the rule routed search replays), so a gkmeans
        partition stays locally dense; otherwise new ids are dealt out by
        ``id % n_shards``.  A shard's rows are wired in as one batch: one
        exact graph walk seeds them all over the pre-insert graph, one
        local join picks their graph rows, and one merge pushes the
        back-edges into the chosen neighbours (see
        :mod:`repro.graph.repair`) — batch rows rather than calling once
        per vector.  Bumps :attr:`generation` and the receiving shards'
        generations; returns the ``(m,)`` ids of the new points.
        """
        vectors = np.asarray(vectors)
        vectors = check_data_matrix(
            vectors[None, :] if vectors.ndim == 1 else vectors,
            name="vectors", dtype=self.engine_.dtype,
            range_dtype=input_range_dtype(self.spec.quantize))
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
            lookups = [shard._lookup() for shard in self.shards]
            clashes = [value for value in new_ids.tolist()
                       if any(value in lookup for lookup in lookups)]
            if clashes:
                raise ValidationError(
                    f"ids {clashes} are already in the index (tombstoned "
                    "ids stay reserved until compaction)")
        if self.centroids is not None:
            placement = self._route(vectors, 1)[:, 0]
        else:
            placement = new_ids % self.n_shards
        for number, shard in enumerate(self.shards):
            rows = placement == number
            if rows.any():
                shard.insert(vectors[rows], new_ids[rows])
        self._next_id = max(self._next_id, int(new_ids.max()) + 1)
        self.generation += 1
        self._invalidate_serving_state()
        return new_ids.copy()

    def delete(self, ids) -> int:
        """Tombstone external ids: excluded from every result, physically
        removed by :meth:`compact`.

        The whole request is validated before anything mutates — an
        unknown, duplicate or already-deleted id, or a deletion that would
        leave any shard with fewer than 2 live points (too few to serve),
        fails the call atomically.  Bumps :attr:`generation` and the
        generations of the shards that lose points; returns the number of
        points deleted.
        """
        wanted = np.atleast_1d(np.asarray(ids, dtype=np.int64)).ravel()
        if wanted.size == 0:
            return 0
        if np.unique(wanted).size != wanted.size:
            raise ValidationError("duplicate ids in delete request")
        lookups = [shard._lookup() for shard in self.shards]
        doomed = [[] for _ in self.shards]
        for value in wanted.tolist():
            owner = next((number for number, lookup in enumerate(lookups)
                          if value in lookup), None)
            if owner is None:
                raise ValidationError(f"id {value} is not in the index")
            position = lookups[owner][value]
            if self.shards[owner]._tombstones[position]:
                raise ValidationError(f"id {value} is already deleted")
            doomed[owner].append(position)
        for number, (shard, positions) in enumerate(zip(self.shards, doomed)):
            if positions and shard.n_points - len(positions) < 2:
                where = f" from shard {number}" if self.n_shards > 1 else ""
                raise ValidationError(
                    f"deleting {len(positions)} of {shard.n_points} live "
                    f"points{where} would leave fewer than 2 — an index "
                    "needs at least 2 live points per shard to serve")
        for shard, positions in zip(self.shards, doomed):
            if positions:
                shard.delete(np.asarray(positions, dtype=np.int64))
        self.generation += 1
        self._invalidate_serving_state()
        return int(wanted.size)

    def compact(self) -> int:
        """Physically remove tombstoned rows and re-derive each touched
        shard's graph over its live rows.

        ``gkmeans`` resumes Alg. 3 from the surviving graph (see
        :mod:`repro.index.backends`): the live rows' lists, renumbered,
        with every entry that named a tombstone drawn afresh by the random
        starting graph's rule, run for
        :func:`~repro.graph.construction.resumed_tau` rounds — two at a 3%
        tombstone share, all τ from a quarter of the rows on.  The other
        backends rebuild from scratch.  Quantized shards refit their
        ``int8`` parameters over the surviving rows, as a build does.

        External ids are stable across compaction.  Shards without
        tombstones keep their structure *and* their generation, so their
        daemons stay valid.  A no-op (returning 0, no generation bump) when
        nothing is tombstoned; otherwise returns the number of rows
        removed.
        """
        removed = self.n_tombstones
        if removed == 0:
            return 0
        for shard in self.shards:
            if shard.n_tombstones:
                shard.compact()
        self.generation += 1
        self._invalidate_serving_state()
        return removed

    def rebalance(self) -> RebalanceReport:
        """Re-partition the live rows exactly as a fresh build would.

        The live rows, in ascending-id order (:attr:`evaluation_corpus`),
        go through the build's own partition at the same ``n_shards``,
        ``partitioner`` and ``random_state``, and every shard is rebuilt
        over its group under the rows' global ids.  Searches afterwards
        are bitwise those of ``Index.build(rows, spec)`` with its
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
        generation moves.  Returns a
        :class:`~repro.index.sharded.RebalanceReport`.
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

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Serialize the whole serving state at ``path``.

        A one-shard index without an endpoint deployment is one NPZ file
        (written at exactly ``path``, no suffix appended); otherwise
        ``path`` is a directory holding a manifest and one file per shard.
        The new index is written next to ``path`` and then takes its
        place — whichever layout was there before — so a crash mid-save
        never leaves a half-written index at ``path``.  :meth:`load`
        restores it with zero rebuild.
        """
        path = os.fspath(path)
        staging = tempfile.mkdtemp(dir=os.path.dirname(path) or ".",
                                   prefix=".index.tmp")
        try:
            if self.n_shards == 1 and self._endpoints is None:
                target = os.path.join(staging, _shard_name(0))
                atomic_savez(target, **{
                    **self.shards[0].fields(next_id=self._next_id),
                    "spec_json": np.asarray(self.spec.to_json()),
                    "generation": np.int64(self.generation)})
                _replace(target, path)
                return
            for number, shard in enumerate(self.shards):
                atomic_savez(os.path.join(staging, _shard_name(number)),
                             **shard.fields(next_id=self._next_id))
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
            atomic_savez(os.path.join(staging, MANIFEST_NAME), **manifest)
            _replace(staging, path)
        finally:
            shutil.rmtree(staging, ignore_errors=True)

    @classmethod
    def load(cls, path) -> "Index":
        """Restore an index saved by :meth:`save` — an index file or a
        sharded directory; raises :class:`~repro.exceptions.ValidationError`
        unless every file is readable, at its current format version
        (``gkmeans migrate`` rewrites older ones), with every key of its
        dtype and rank, and consistent with the rest."""
        return cls._read(os.fspath(path),
                         lambda file: read_npz(file, "index file"))

    @classmethod
    def _read(cls, path: str, read_file, manifest=None) -> "Index":
        """The index saved at ``path``, its index files' arrays read by
        ``read_file(file path)``; a directory's manifest is ``manifest``
        when given, else read from disk."""
        if not os.path.isdir(path):
            fields = read_file(path)
            shard = _Shard.from_fields(fields, path)
            return cls._from_shards([shard], shard.spec,
                                    generation=shard.generation,
                                    next_id=int(fields["next_id"]))
        manifest = read_manifest(path) if manifest is None else manifest
        shards = []
        for number, generation in enumerate(manifest.shard_generations):
            file = os.path.join(path, _shard_name(number))
            try:
                shard = _Shard.from_fields(read_file(file), file)
            except ValidationError as exc:
                raise ValidationError(
                    f"sharded index {path!r}: shard {number} is missing or "
                    f"corrupt: {exc}") from exc
            shard.generation = generation
            shards.append(shard)
        try:
            return cls._from_shards(
                shards, manifest.spec, centroids=manifest.centroids,
                endpoints=manifest.endpoints,
                generation=manifest.generation, next_id=manifest.next_id)
        except ValidationError as exc:
            raise ValidationError(
                f"sharded index {path!r} is inconsistent: {exc}") from exc
