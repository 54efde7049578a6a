"""One shard of an :class:`~repro.index.facade.Index`: rows, graph, walk.

A shard is what a single Alg. 3 graph serves (§4.3 of the paper): its
rows, their k-NN graph and the batched graph walk over them.  Every index
holds ``n_shards`` of them, one by default.  A shard answers in the global
ids its rows carry, so the walk's answer needs no translation wherever the
shard runs — in the index's process or behind a ``gkmeans serve`` daemon.

A shard is *online*: :meth:`_Shard.insert` wires new rows in with local
graph repair, :meth:`_Shard.delete` tombstones rows — they stay in the
graph as routing waypoints but are excluded from every result — and
:meth:`_Shard.compact` drops them, the ``gkmeans`` backend resuming its
construction from the graph that survives.  Every mutation bumps the
shard's ``generation``, the counter its serving daemon is checked against.

Its file is one NPZ (:data:`FORMAT_VERSION`): spec, graph, data, ids and
seed partition, so a loaded shard answers bit-for-bit with no rebuild.  The
dataset norms are not saved: every searcher derives them from its data.
Both on-disk formats — this file and the sharded manifest — go through the
same NPZ helpers: :func:`read_npz` reads, :func:`check_fields` holds the
arrays to the format's schema (so any damage surfaces as one
:class:`~repro.exceptions.ValidationError`), :func:`atomic_savez` writes.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile

import numpy as np

from ..distance import DistanceEngine, ScalarQuantizer
from ..exceptions import GraphError, ValidationError
from ..graph.knngraph import KNNGraph
from ..search._walk import SearchResult, ServingStats
from ..search.greedy import GraphSearcher
from ..validation import check_positive_int
from .spec import BUILDERS, IndexSpec

__all__ = ["FORMAT_VERSION", "read_npz", "check_fields", "atomic_savez"]

#: Version of the NPZ layout a shard file (and a single-file index) is
#: written in and, alone, read; ``gkmeans migrate`` rewrites older files.
FORMAT_VERSION = 4

#: Keys of the index NPZ: ``(dtype kind, ndim, required)``.  ``norms`` is
#: no longer written; the copy an earlier release saved is ignored.
_SCHEMA = {
    "format_version": ("i", 0, True), "spec_json": ("U", 0, True),
    "data": ("f", 2, True), "graph_indices": ("i", 2, True),
    "graph_metric": ("U", 0, True), "ids": ("i", 1, True),
    "tombstones": ("b", 1, True), "next_id": ("i", 0, True),
    "generation": ("i", 0, True), "seed_labels": ("i", 1, True),
    "graph_distances": ("f", 2, False),
    "norms": ("f", 1, False), "quantizer_scale": ("f", 1, False),
    "quantizer_offset": ("f", 1, False),
}

_KINDS = {"i": "integer", "f": "floating", "b": "boolean", "U": "string"}


def read_npz(path, label: str) -> dict:
    """Every array of the NPZ archive at ``path``, read eagerly."""
    try:
        with np.load(path, allow_pickle=False) as archive:
            return {key: archive[key] for key in archive.files}
    # Where the damage sits (zip directory, member or array header, data
    # CRC) decides which of a dozen exception types zipfile and numpy raise.
    except Exception as exc:
        raise ValidationError(
            f"cannot read {label} {os.fspath(path)!r}: {exc}") from exc


def check_fields(fields: dict, schema: dict, *, version: int, label: str,
                 path) -> None:
    """Hold an archive's arrays to ``schema`` (key -> ``(dtype kind, ndim,
    required)``, unknown keys refused).  Its first key, the format version,
    is checked first: a retired file is told to migrate, not listed as
    missing the keys later versions added."""
    path = os.fspath(path)
    where = f"{label} {path!r}"
    found = fields.get(next(iter(schema)))
    if found is not None and found.dtype.kind == "i" and found.ndim == 0 \
            and int(found) != version:
        if 1 <= int(found) < version:
            raise ValidationError(
                f"{where}: format version {int(found)} is no longer read — "
                f"run `gkmeans migrate {path}` to rewrite it at version "
                f"{version}")
        raise ValidationError(f"{where} has format version {int(found)}; "
                              f"this build reads version {version} only")
    missing = [key for key, (_, _, required) in schema.items()
               if required and key not in fields]
    if missing:
        raise ValidationError(f"{where} is missing keys {missing}")
    unknown = sorted(set(fields) - set(schema))
    if unknown:
        raise ValidationError(f"{where} carries unknown keys {unknown}")
    for key, value in fields.items():
        kind, ndim, _ = schema[key]
        if value.dtype.kind != kind or value.ndim != ndim:
            shape = "a scalar" if ndim == 0 else f"a {ndim}-d array"
            raise ValidationError(
                f"{where}: {key!r} must be {shape} of {_KINDS[kind]} dtype, "
                f"got a {value.ndim}-d {value.dtype} array")


def atomic_savez(path, **arrays) -> None:
    """Write an NPZ at exactly ``path``: a temp file in the same directory
    renamed over it, so a failed write never leaves a partial file."""
    path = os.fspath(path)
    handle, tmp_path = tempfile.mkstemp(
        dir=os.path.dirname(path) or ".", suffix=".npz.tmp")
    try:
        with os.fdopen(handle, "wb") as stream:
            np.savez(stream, **arrays)
        os.replace(tmp_path, path)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _joined(first: ServingStats, again: ServingStats) -> ServingStats:
    """``first`` with the groups of a re-walk of some of its rows added."""
    return dataclasses.replace(
        first, workers=max(first.workers, again.workers),
        group_sizes=first.group_sizes + again.group_sizes,
        group_rounds=first.group_rounds + again.group_rounds,
        group_gemms=first.group_gemms + again.group_gemms,
        group_seconds=first.group_seconds + again.group_seconds,
        total_seconds=first.total_seconds + again.total_seconds)


class _Shard:
    """One shard's rows, k-NN graph and walk, answering in global ids.

    ``ids`` are the global ids of the rows (unique, non-negative; row
    positions by default), ``tombstones`` marks deleted rows, ``spec`` is
    the shard's own spec (one shard, its graph width clamped to its rows).
    """

    def __init__(self, data: np.ndarray, graph: KNNGraph, spec: IndexSpec,
                 *, ids: np.ndarray | None = None,
                 tombstones: np.ndarray | None = None, generation: int = 0,
                 quantizer: ScalarQuantizer | None = None,
                 seed_labels: np.ndarray | None = None) -> None:
        self.spec = spec
        # All validation of the rows and the graph (data matrix, row
        # counts, graph-vs-spec metric) lives in the composed searcher.
        self._searcher = self._serve(data, graph, quantizer, seed_labels)
        self.graph = graph
        n = self._searcher.data.shape[0]
        if ids is None:
            ids = np.arange(n, dtype=np.int64)
        else:
            ids = np.asarray(ids, dtype=np.int64)
            if ids.shape != (n,):
                raise ValidationError(
                    f"ids must be a ({n},) array, got shape {ids.shape}")
            if ids.size and ids.min() < 0:
                raise ValidationError("ids must be non-negative")
            if np.unique(ids).size != ids.size:
                raise ValidationError("ids must be unique")
        if tombstones is None:
            tombstones = np.zeros(n, dtype=bool)
        else:
            tombstones = np.asarray(tombstones, dtype=bool)
            if tombstones.shape != (n,):
                raise ValidationError(
                    f"tombstones must be a ({n},) array, got shape "
                    f"{tombstones.shape}")
            if tombstones.all():
                raise ValidationError(
                    "an index cannot consist of tombstones only")
        self._ids = ids
        self._tombstones = tombstones
        self._n_tombstones = int(tombstones.sum())
        #: Mutation counter: bumped by every insert/delete/compact.  The
        #: shard's daemon reports the generation it loaded, and the remote
        #: executor's handshake compares it against this value.
        self.generation = int(generation)
        self._id_lookup: dict | None = None

    def _serve(self, data, graph: KNNGraph, quantizer, seed_labels
               ) -> GraphSearcher:
        """A searcher over ``data`` and ``graph`` under this shard's spec."""
        spec = self.spec
        return GraphSearcher(
            data, graph, pool_size=spec.pool_size, n_starts=spec.n_starts,
            random_state=spec.random_state, metric=spec.metric,
            dtype=spec.dtype, quantize=spec.quantize, quantizer=quantizer,
            seed_labels=seed_labels)

    @classmethod
    def build(cls, spec: IndexSpec, rows: np.ndarray,
              ids: np.ndarray) -> "_Shard":
        """The shard over ``rows`` (already checked and cast), answering in
        the global ``ids``; its spec is narrowed to one shard and its graph
        width clamped to the row count."""
        spec = spec.replace(
            n_shards=1, shard_probe=None,
            n_neighbors=min(spec.n_neighbors, rows.shape[0] - 1))
        graph, seed_labels = BUILDERS[spec.backend].build(rows, spec)
        return cls(rows, graph, spec, ids=ids, seed_labels=seed_labels)

    # ------------------------------------------------------------------ #
    # Properties
    # ------------------------------------------------------------------ #
    @property
    def data(self) -> np.ndarray:
        """``(n_rows, d)`` rows, in the spec's dtype."""
        return self._searcher.data

    @property
    def engine_(self) -> DistanceEngine:
        """The shard's :class:`~repro.distance.DistanceEngine`."""
        return self._searcher.engine_

    @property
    def seed_labels(self) -> np.ndarray:
        """``(n_rows,)`` seed partition labels every search enters from."""
        return self._searcher.seed_labels

    @property
    def quantizer(self) -> ScalarQuantizer | None:
        """The shard's :class:`~repro.distance.ScalarQuantizer` (``None``
        for ``quantize="none"`` specs)."""
        return self._searcher.quantizer

    @property
    def n_points(self) -> int:
        """Number of *live* (non-tombstoned) rows."""
        return int(self.data.shape[0]) - self._n_tombstones

    @property
    def n_rows(self) -> int:
        """Number of physical rows, tombstoned ones included."""
        return int(self.data.shape[0])

    @property
    def ids(self) -> np.ndarray:
        """``(n_rows,)`` global id of every physical row."""
        return self._ids

    @property
    def n_tombstones(self) -> int:
        """Number of tombstoned (deleted, not yet compacted) rows."""
        return self._n_tombstones

    @property
    def live_mask(self) -> np.ndarray:
        """``(n_rows,)`` boolean mask of the live (non-tombstoned) rows."""
        return ~self._tombstones

    @property
    def n_features(self) -> int:
        """Dimensionality of the rows."""
        return int(self.data.shape[1])

    @property
    def metric(self) -> str:
        """Canonical metric name the shard scores queries under."""
        return self.engine_.metric

    def close(self) -> None:
        """Release the searcher's persistent walk pool (idempotent); the
        next threaded search recreates it."""
        self._searcher.close()

    def __enter__(self) -> "_Shard":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def search(self, queries: np.ndarray, n_results: int, *,
               pool_size: int | None = None, workers: int | None = None,
               bounds: np.ndarray | None = None) -> SearchResult:
        """Walk the ``(m, d)`` batch ``queries``: ``(m, n_results)`` global
        ids and distances sorted by distance, padded with ``(-1, inf)``.

        ``bounds`` optionally caps each query's walk, a floating ``(m,)``
        array (``inf`` is no cap): the walk never expands a candidate at or
        beyond its bound.  A routed search passes each query's k-th
        distance in its nearest shard to its other probed shards.
        """
        queries, bounds = self.check_batch(queries, bounds)
        return self.search_checked(queries, n_results, pool_size=pool_size,
                                   workers=workers, bounds=bounds)

    def check_batch(self, queries: np.ndarray, bounds: np.ndarray | None
                    ) -> tuple[np.ndarray, np.ndarray | None]:
        """``(queries, bounds)`` checked as :meth:`search` checks them."""
        return self._searcher._check_batch(queries, bounds)

    def search_checked(self, queries: np.ndarray, n_results: int, *,
                       pool_size: int | None = None,
                       workers: int | None = None,
                       bounds: np.ndarray | None = None) -> SearchResult:
        """:meth:`search` on a batch and bounds :meth:`check_batch` (or
        ``Index.search``'s identical check) already passed."""
        # Tombstoned rows stay in the graph as routing waypoints but never
        # in results: the walk over-fetches past the tombstones, then the
        # tombstoned hits are filtered out.  It fetches n_results + T (T
        # the shard's tombstone count; n_results <= n_points keeps that
        # within the physical rows) only while that fits the walk's pool;
        # past it, the walk returns its whole pool and keeps its width.  A
        # row whose full pool held fewer than n_results live hits walks
        # again with the whole n_results + T request, so its answer is the
        # one a single wide walk gives; a row whose pool was not full saw
        # everything it could reach, which a wider walk would too.
        n_results = check_positive_int(n_results, name="n_results",
                                       maximum=self.n_points)
        wanted = n_results + self._n_tombstones
        pool = self._searcher.pool_size if pool_size is None else pool_size
        fetch = min(wanted, max(pool, n_results))
        workers = self.spec.workers if workers is None else workers
        idx, dist = walked = self._searcher._batch_query(
            queries, fetch, pool_size=pool_size, workers=workers,
            bounds=bounds)
        evaluations, stats = walked.evaluations, walked.stats
        if self._n_tombstones:
            full = idx[:, -1] >= 0
            idx, dist = self._drop_tombstoned(idx, dist, n_results)
            short = (full & (idx[:, -1] < 0)).nonzero()[0]
            if fetch < wanted and short.size:
                again = self._searcher._batch_query(
                    queries[short], wanted, pool_size=pool_size,
                    workers=workers,
                    bounds=None if bounds is None else bounds[short])
                idx[short], dist[short] = self._drop_tombstoned(
                    *again, n_results)
                evaluations[short] += again.evaluations
                stats = _joined(stats, again.stats)
        reached = idx >= 0
        idx = np.where(reached, self._ids[np.where(reached, idx, 0)], -1)
        return SearchResult(idx, dist, evaluations, stats)

    def _drop_tombstoned(self, idx: np.ndarray, dist: np.ndarray,
                         n_results: int) -> tuple[np.ndarray, np.ndarray]:
        """Filter tombstoned positions out of over-fetched batch results.

        Kept entries slide left preserving their distance order; rows with
        fewer than ``n_results`` live hits are padded with ``(-1, inf)``
        exactly like an unreachable-point row.
        """
        keep = idx >= 0
        keep &= ~self._tombstones[np.where(keep, idx, 0)]
        order = np.argsort(~keep, axis=1, kind="stable")[:, :n_results]
        kept = np.take_along_axis(keep, order, axis=1)
        idx = np.take_along_axis(idx, order, axis=1)
        dist = np.take_along_axis(dist, order, axis=1)
        idx[~kept] = -1
        dist[~kept] = np.inf
        return idx, dist

    # ------------------------------------------------------------------ #
    # Mutations (the index checks every request before calling these)
    # ------------------------------------------------------------------ #
    def _lookup(self) -> dict:
        """Lazy global-id -> physical-position map."""
        if self._id_lookup is None:
            self._id_lookup = {int(value): position
                               for position, value in enumerate(self._ids)}
        return self._id_lookup

    def insert(self, vectors: np.ndarray, new_ids: np.ndarray) -> None:
        """Wire the checked ``vectors`` in as one batch under the unused
        ids ``new_ids`` (see :meth:`Index.insert
        <repro.index.facade.Index.insert>`)."""
        self._searcher.insert_points(vectors)
        self.graph = self._searcher.graph
        if self._id_lookup is not None:
            self._id_lookup.update(zip(new_ids.tolist(), range(
                self._ids.size, self._ids.size + new_ids.size)))
        self._ids = np.concatenate([self._ids, new_ids])
        # New rows are live: the tombstone count stands.
        self._tombstones = np.concatenate(
            [self._tombstones, np.zeros(new_ids.size, dtype=bool)])
        self.generation += 1

    def delete(self, positions: np.ndarray) -> None:
        """Tombstone the live rows at ``positions``."""
        self._tombstones[positions] = True
        self._n_tombstones += positions.size
        self.generation += 1

    def compact(self) -> None:
        """Drop the tombstoned rows and re-derive the graph over the live
        ones (see :meth:`Index.compact <repro.index.facade.Index.compact>`).
        The seed partition is the construction's own or, for a backend that
        leaves none, the surviving rows' labels — a cluster compaction
        empties is simply never probed."""
        live = self.live_mask
        data = np.ascontiguousarray(self.data[live])
        build_spec = self.spec
        if build_spec.n_neighbors > data.shape[0] - 1:
            build_spec = build_spec.replace(n_neighbors=data.shape[0] - 1)
        graph, seed_labels = BUILDERS[self.spec.backend].build(
            data, build_spec, (self.graph.indices, live))
        if seed_labels is None:
            seed_labels = self.seed_labels[live]
            if seed_labels.max() >= data.shape[0]:
                seed_labels = np.unique(seed_labels, return_inverse=True)[1]
        searcher = self._serve(data, graph, None, seed_labels)
        self._searcher.close()
        self._searcher = searcher
        self.graph = graph
        self._ids = self._ids[live].copy()
        self._tombstones = np.zeros(data.shape[0], dtype=bool)
        self._n_tombstones = 0
        self._id_lookup = None
        self.generation += 1

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def fields(self, *, next_id: int) -> dict:
        """The arrays of the shard's file: its whole serving state."""
        payload = {
            "format_version": np.int64(FORMAT_VERSION),
            "spec_json": np.asarray(self.spec.to_json()),
            "data": self.data,
            "graph_indices": self.graph.indices,
            "graph_metric": np.asarray(self.graph.metric),
            "ids": self._ids,
            "tombstones": self._tombstones,
            "next_id": np.int64(next_id),
            "generation": np.int64(self.generation),
            "seed_labels": self.seed_labels,
        }
        if self.graph.distances is not None:
            payload["graph_distances"] = self.graph.distances
        quantizer = self.quantizer
        if quantizer is not None:
            # int8 parameters are build-time state: persisting them (rather
            # than refitting on load) keeps codes — and therefore served
            # results — bit-identical across save/load even after inserts
            # extended the data beyond the fitted range.
            payload["quantizer_scale"] = quantizer.scale
            payload["quantizer_offset"] = quantizer.offset
        return payload

    @classmethod
    def load(cls, path) -> "_Shard":
        """The shard of the file at ``path`` (a shard of a directory or a
        single-file index); raises :class:`~repro.exceptions.ValidationError`
        unless it is readable, at :data:`FORMAT_VERSION`, with every key of
        its dtype and rank, and consistent."""
        return cls.from_fields(read_npz(path, "index file"), path)

    @classmethod
    def from_fields(cls, fields: dict, path) -> "_Shard":
        """Check the arrays of an index file and build its shard."""
        path = os.fspath(path)
        check_fields(fields, _SCHEMA, version=FORMAT_VERSION,
                     label="index file", path=path)
        spec = IndexSpec.from_json(str(fields["spec_json"]))
        try:
            quantizer = None
            if "quantizer_scale" in fields or "quantizer_offset" in fields:
                quantizer = ScalarQuantizer(
                    "int8", scale=fields.get("quantizer_scale"),
                    offset=fields.get("quantizer_offset"))
            graph = KNNGraph(fields["graph_indices"],
                             fields.get("graph_distances"),
                             metric=str(fields["graph_metric"]))
            distances = graph.distances
            if distances is not None and not np.all(
                    ((distances >= 0) & (distances < np.inf))
                    | ((graph.indices < 0) & ~np.isnan(distances))):
                raise ValidationError(
                    "graph_distances must be finite and non-negative at "
                    "every neighbour, and never NaN")
            return cls(fields["data"], graph, spec,
                       ids=fields["ids"], tombstones=fields["tombstones"],
                       generation=int(fields["generation"]),
                       quantizer=quantizer,
                       seed_labels=fields["seed_labels"])
        except (GraphError, ValidationError) as exc:
            raise ValidationError(
                f"index file {path!r} is inconsistent: {exc}") from exc
