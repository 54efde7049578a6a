"""Sharding: the partition an index's shards hold, its merge and its manifest.

An :class:`~repro.index.facade.Index` holds ``spec.n_shards`` shards, one
by default.  This module holds what exists only because there may be
several: the partition of a build's rows into shard groups, the merge of
the per-shard answers, the one stats record of every search, and the
directory manifest the shards are saved under.

Two partitioners are supported (see
:data:`~repro.index.spec.PARTITIONERS`): ``round_robin`` deals rows out in
order — balanced shards, no build-time cost — while ``gkmeans`` runs a
coarse ``n_shards``-way k-means and routes each vector to its nearest
centroid, so a query's true neighbours concentrate in few shards and each
shard's sub-graph stays locally dense.  :func:`_partition_and_build` is
the one body of both a build and a rebalance.

Every shard's walk is a seeded deterministic function of its own data, and
the merge (:func:`_merge_parts`) is a stable sort of the per-shard results
in shard order — so the fan-out's worker count and executor are pure
throughput knobs, and a save/load round-trip serves bit-for-bit identical
results at every level.

A directory is ``manifest.npz`` (spec, generations, ``next_id``;
optionally the gkmeans partitioner's routing centroids and one endpoint
per shard) beside one index file per shard (``shard_0000.idx``, ...).
:func:`read_manifest` is its one reader, shared with the shard server and
the rebalancer; anything but the current format version with every key of
the right dtype and shape raises :class:`~repro.exceptions.ValidationError`,
and :func:`migrate` rewrites indexes of retired versions.

``ShardedIndex`` is a second name of :class:`~repro.index.facade.Index`,
kept for callers written before the two classes were one.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from ..cluster import KMeans
from ..distance import resolve_dtype
from ..exceptions import ValidationError
from ..search._seeding import default_seed_labels
from ..validation import check_positive_int, check_random_state
from ._shard import (FORMAT_VERSION, _Shard, check_fields, read_npz)
from .spec import IndexSpec, PARTITIONERS

__all__ = ["ShardedIndex", "ShardedServingStats", "SHARDED_FORMAT_VERSION",
           "MANIFEST_NAME", "Manifest", "read_manifest", "partition_dataset",
           "migrate", "RebalanceReport"]

#: Version of the manifest layout :meth:`Index.save
#: <repro.index.facade.Index.save>` writes and,
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
    """Partition ``rows`` (checked and cast; global ids ``ids``) into
    ``spec.n_shards`` groups and build one shard per group on a
    ``build_workers``-thread pool (default: one thread per shard, capped at
    the CPU count).

    The one body of :meth:`Index.build <repro.index.facade.Index.build>`
    (``ids = arange(n)``) and :meth:`Index.rebalance
    <repro.index.facade.Index.rebalance>` (the live ids).  A single shard
    is built over ``rows`` itself, not a copy.  Returns ``(shards,
    centroids)``.
    """
    groups, centroids = partition_dataset(
        rows, spec.n_shards, spec.partitioner, metric=spec.metric,
        dtype=spec.dtype, random_state=spec.random_state,
        return_centroids=True)
    if build_workers is None:
        build_workers = min(len(groups), os.cpu_count() or 1)
    build_workers = check_positive_int(build_workers, name="build_workers")
    if len(groups) == 1:
        return [_Shard.build(spec, rows, ids)], centroids

    def build(group: np.ndarray) -> _Shard:
        """Build the shard over the partition rows ``group``."""
        return _Shard.build(spec, rows[group], ids[group])

    if build_workers == 1:
        shards = [build(group) for group in groups]
    else:
        with ThreadPoolExecutor(max_workers=build_workers) as executor:
            shards = list(executor.map(build, groups))
    return shards, centroids


@dataclass(frozen=True)
class RebalanceReport:
    """Outcome of one :meth:`Index.rebalance
    <repro.index.facade.Index.rebalance>` pass.

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
    """Execution profile of one :meth:`Index.search
    <repro.index.facade.Index.search>` call, at every shard count.

    Aggregates the per-walk :class:`~repro.search._walk.ServingStats` into
    one record with the same summary surface (``workers``, ``n_groups``,
    ``n_rounds``, ``n_gemms``, ``queries_per_second``).

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
        Wall-clock time of the whole call, routing and merge included.
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
    ``routing_evaluations`` each plus the parts' own.  A one-shard index's
    lone part is returned as it is, in the walk's own dtypes.
    """
    if len(widths) == 1:
        # One shard served every query and its part is sorted, exactly
        # n_results wide: it is the answer already.
        (_, _, part), = landed
        return part.indices, part.distances, part.evaluations
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
    one reader of the format, behind :meth:`Index.load
    <repro.index.facade.Index.load>`, the shard server and the rebalancer.
    Raises :class:`~repro.exceptions.ValidationError` unless every key of
    :data:`SHARDED_FORMAT_VERSION` has its dtype and rank and there is one
    generation per shard of the spec."""
    path = os.fspath(path)
    manifest_path = os.path.join(path, MANIFEST_NAME)
    if not os.path.isdir(path) or not os.path.exists(manifest_path):
        raise ValidationError(
            f"{path!r} is not a sharded index directory (no "
            f"{MANIFEST_NAME}); single-file indexes hold one shard")
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


def _index_fields(path: str, retired: list, global_ids=None) -> dict:
    """The arrays of the index file at ``path``, upgraded; appends whether
    it was retired to ``retired``.  ``global_ids`` is this shard's part of
    a retired manifest's id map: the file's positional ids become those
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
    return fields


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
    # Runtime import: the index module builds on this one.
    from .facade import Index

    path, retired, manifest, global_ids = os.fspath(path), [], None, {}
    if os.path.isdir(path):
        fields = read_npz(os.path.join(path, MANIFEST_NAME),
                          "sharded index manifest")
        old = _upgrade(fields, "sharded_format_version",
                       SHARDED_FORMAT_VERSION, _manifest_defaults)
        id_map = [fields.pop(key, None)
                  for key in ("shard_ids", "shard_offsets") if old]
        manifest = _manifest_from_fields(fields, path)
        if old:
            global_ids = _split_id_map(*id_map, manifest.spec.n_shards,
                                       path)
        retired.append(old)
    index = Index._read(path, lambda file: _index_fields(
        file, retired, global_ids.get(os.path.basename(file))), manifest)
    with index:
        if any(retired):
            index.save(path)
    return any(retired)


def __getattr__(name: str):
    """``ShardedIndex``: the one index class under its former name."""
    if name == "ShardedIndex":
        from .facade import Index

        return Index
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
