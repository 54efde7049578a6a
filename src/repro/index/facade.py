"""The ``Index`` facade: build / search / persist in one object.

§4.3 of the paper observes that the Alg. 3 graph is good enough to serve ANN
queries directly — this module packages that observation as a library-level
API.  ``Index.build`` runs the construction backend named by an
:class:`~repro.index.spec.IndexSpec`, ``index.search`` serves 2-D query batches
through the batched graph walk — one gemm per round across a group's live
queries — and single vectors as a batch of one, and ``index.save`` /
``Index.load`` round-trip the whole serving state — spec, graph, data, ids
and seed partition — through a single NPZ file, so a loaded index answers
queries bit-for-bit identically with no graph rebuild.  The dataset norms
are not saved: every searcher derives them from its data, so a file cannot
carry norms that disagree with its rows.

The index is *online*: ``index.insert`` adds vectors with NN-Descent-style
local graph repair (no rebuild), ``index.delete`` tombstones external ids —
tombstoned points stay in the graph as routing waypoints but are excluded
from every result — and ``index.compact`` drops the tombstoned rows once
they accumulate, the ``gkmeans`` backend resuming its construction from the
graph that survives.  Every mutation bumps the index's
``generation`` counter, the staleness signal serving daemons are checked
against.  Results are reported in stable external ids (``ids``): freshly
built indexes use ids equal to row positions unless built with ``ids`` (a
shard of a sharded index carries its rows' global ids), inserts either
continue that sequence or take caller-provided ids, and compaction keeps
ids stable while physical rows move.

Both on-disk formats — this index file and the sharded manifest — go
through the same NPZ helpers: :func:`read_npz` reads, :func:`check_fields`
holds the arrays to the format's schema (so any damage surfaces as one
:class:`~repro.exceptions.ValidationError`), :func:`atomic_savez` writes.
"""

from __future__ import annotations

import os
import tempfile
import time

import numpy as np

from ..distance import DistanceEngine, ScalarQuantizer
from ..distance.quantized import input_range_dtype
from ..exceptions import GraphError, ValidationError
from ..graph.knngraph import KNNGraph
from ..search._walk import SearchResult
from ..search.greedy import GraphSearcher
from ..validation import (
    check_data_matrix,
    check_positive_int,
)
from .spec import BUILDERS, IndexSpec

__all__ = ["Index", "FORMAT_VERSION", "read_npz", "check_fields",
           "atomic_savez", "check_insert"]

#: Version of the NPZ layout :meth:`Index.save` writes and, alone,
#: :meth:`Index.load` reads; ``gkmeans migrate`` rewrites older files.
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


def check_insert(index, vectors, ids, taken) -> tuple:
    """``(vectors, new ids)`` of an insert into ``index`` (an ``Index`` or a
    ``ShardedIndex``), checked before anything mutates: ``vectors`` (one
    ``(d,)`` vector or an ``(m, d)`` batch) cast to the index's dtype, and
    ``ids`` — ``m`` unique, non-negative ids none of which ``taken(id)``
    holds, tombstoned ids included — or, for ``None``, the next ``m``
    unused integers."""
    vectors = np.asarray(vectors)
    if vectors.ndim == 1:
        vectors = vectors[None, :]
    vectors = check_data_matrix(
        vectors, name="vectors", dtype=index.engine_.dtype,
        range_dtype=input_range_dtype(index.spec.quantize))
    if vectors.shape[1] != index.n_features:
        raise ValidationError(
            f"inserted vectors have dimension {vectors.shape[1]}, the "
            f"index holds {index.n_features}-dimensional data")
    m = vectors.shape[0]
    if ids is None:
        return vectors, np.arange(index._next_id, index._next_id + m,
                                  dtype=np.int64)
    new_ids = np.asarray(ids, dtype=np.int64).ravel()
    if new_ids.size != m:
        raise ValidationError(f"{m} vectors but {new_ids.size} ids")
    if new_ids.size and new_ids.min() < 0:
        raise ValidationError("ids must be non-negative")
    if np.unique(new_ids).size != new_ids.size:
        raise ValidationError("ids must be unique")
    clashes = [value for value in new_ids.tolist() if taken(value)]
    if clashes:
        raise ValidationError(
            f"ids {clashes} are already in the index (tombstoned ids stay "
            "reserved until compaction)")
    return vectors, new_ids


class Index:
    """A built ANN index: data + k-NN graph + spec, ready to serve queries.

    Construct with :meth:`build` (runs a registered construction backend) or
    :meth:`load` (restores a saved index); the raw constructor accepts a
    pre-built graph for advanced use.

    Searches are deterministic: every query enters the graph from its
    nearest cluster of the index's seed partition (see
    :mod:`repro.search._seeding`), so the same query always returns the
    same neighbours, whatever batch it arrives in — including after a
    save/load round-trip.

    Attributes
    ----------
    data:
        ``(n, d)`` indexed vectors, in the spec's dtype.
    graph:
        The construction backend's :class:`~repro.graph.knngraph.KNNGraph`.
    spec:
        The :class:`~repro.index.spec.IndexSpec` the index was built under.
    build_seconds:
        Wall-clock construction time (``None`` for loaded indexes).
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
        self.spec = spec
        # All validation (data matrix, graph/data row counts, graph-vs-spec
        # metric) and state (engine, derived norms, symmetrised adjacency)
        # lives in the composed searcher; the facade adds spec handling,
        # determinism, mutations and persistence on top.
        self._searcher = self._serve(data, graph, quantizer, seed_labels)
        self.graph = graph
        self.build_seconds = build_seconds
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
        floor = int(ids.max()) + 1 if ids.size else 0
        self._next_id = floor if next_id is None else max(int(next_id),
                                                          floor)
        #: Mutation counter: bumped by every insert/delete/compact.  The
        #: serving daemons' ``info`` RPC reports the generation they
        #: loaded, and the remote executor's handshake compares it against
        #: this value — a stale daemon is surfaced, never silently served.
        self.generation = int(generation)
        self._id_lookup: dict | None = None
        self._last: SearchResult | None = None

    def _serve(self, data, graph: KNNGraph, quantizer, seed_labels
               ) -> GraphSearcher:
        """A searcher over ``data`` and ``graph`` under this index's spec."""
        spec = self.spec
        return GraphSearcher(
            data, graph, pool_size=spec.pool_size, n_starts=spec.n_starts,
            random_state=spec.random_state, metric=spec.metric,
            dtype=spec.dtype, quantize=spec.quantize, quantizer=quantizer,
            seed_labels=seed_labels)

    @property
    def last_n_evaluations(self) -> int:
        """Total distance evaluations of the most recent search call."""
        return 0 if self._last is None else int(self._last.evaluations.sum())

    @property
    def last_serving_stats(self):
        """:class:`~repro.search.ServingStats` of the most recent search
        (``None`` before the first)."""
        return None if self._last is None else self._last.stats

    @property
    def data(self) -> np.ndarray:
        """``(n, d)`` indexed vectors, in the spec's dtype."""
        return self._searcher.data

    @property
    def engine_(self) -> DistanceEngine:
        """The index's :class:`~repro.distance.DistanceEngine`."""
        return self._searcher.engine_

    @property
    def seed_labels(self) -> np.ndarray:
        """``(n_rows,)`` seed partition labels every search enters from."""
        return self._searcher.seed_labels

    @property
    def quantizer(self) -> ScalarQuantizer | None:
        """The index's :class:`~repro.distance.ScalarQuantizer` (``None``
        for ``quantize="none"`` specs)."""
        return self._searcher.quantizer

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def n_points(self) -> int:
        """Number of *live* (non-tombstoned) indexed vectors."""
        return int(self.data.shape[0]) - self._n_tombstones

    @property
    def n_rows(self) -> int:
        """Number of physical rows, tombstoned ones included."""
        return int(self.data.shape[0])

    @property
    def ids(self) -> np.ndarray:
        """``(n_rows,)`` external id of every physical row."""
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
    def tombstone_ids(self) -> np.ndarray:
        """External ids of the tombstoned rows (ascending)."""
        return np.sort(self._ids[self._tombstones])

    @property
    def evaluation_corpus(self) -> tuple:
        """``(live vectors, their external ids)`` — the ground-truth
        corpus an exact oracle must score searches against.  Searches
        return external ids and never tombstoned rows, so scoring against
        raw physical positions is wrong the moment the index mutates."""
        if not self._tombstones.any():
            return self.data, self._ids
        live = ~self._tombstones
        return self.data[live], self._ids[live]

    @property
    def n_features(self) -> int:
        """Dimensionality of the indexed vectors."""
        return int(self.data.shape[1])

    @property
    def metric(self) -> str:
        """Canonical metric name the index scores queries under."""
        return self.engine_.metric

    def __len__(self) -> int:
        return self.n_points

    def close(self) -> None:
        """Release the searcher's persistent walk pool (idempotent).

        The index stays usable — the next threaded batch search recreates
        the pool.  Mirrors :meth:`ShardedIndex.close
        <repro.index.sharded.ShardedIndex.close>`.
        """
        self._searcher.close()

    def __enter__(self) -> "Index":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Index(backend={self.spec.backend!r}, n={self.n_points}, "
                f"d={self.n_features}, kappa={self.graph.n_neighbors}, "
                f"metric={self.metric!r}, dtype={self.spec.dtype!r})")

    # ------------------------------------------------------------------ #
    # Build
    # ------------------------------------------------------------------ #
    @classmethod
    def build(cls, data: np.ndarray, spec: IndexSpec | None = None, *,
              ids: np.ndarray | None = None, **overrides) -> "Index":
        """Build an index over ``data`` from a spec.

        ``overrides`` are :class:`~repro.index.spec.IndexSpec` fields applied
        on top of ``spec`` (or of the default spec when ``spec`` is omitted),
        so the common cases read naturally::

            Index.build(data)                                   # defaults
            Index.build(data, backend="nndescent", metric="cosine")
            Index.build(data, spec)                             # explicit spec

        ``ids`` optionally names the rows' external ids (unique,
        non-negative); by default row ``i`` is id ``i``.  A shard of a
        :class:`~repro.index.sharded.ShardedIndex` is built with its rows'
        global ids, so its searches answer in global ids.
        """
        if spec is None:
            spec = IndexSpec(**overrides)
        elif overrides:
            spec = spec.replace(**overrides)
        if spec.n_shards > 1:
            raise ValidationError(
                f"spec requests n_shards={spec.n_shards}; a monolithic "
                "Index serves exactly one shard — use ShardedIndex.build "
                "or repro.index.build_index for sharded construction")
        engine = DistanceEngine(spec.metric, spec.dtype)
        data = check_data_matrix(data, min_samples=2, dtype=engine.dtype,
                                 range_dtype=input_range_dtype(spec.quantize))
        check_positive_int(spec.n_neighbors, name="n_neighbors",
                           maximum=data.shape[0] - 1)
        started = time.perf_counter()
        graph, seed_labels = BUILDERS[spec.backend].build(data, spec)
        elapsed = time.perf_counter() - started
        return cls(data, graph, spec, ids=ids, seed_labels=seed_labels,
                   build_seconds=elapsed)

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def search(self, queries: np.ndarray, n_results: int = 10, *,
               pool_size: int | None = None,
               workers: int | None = None, shard_probe: int | None = None,
               executor: str | None = None,
               bounds: np.ndarray | None = None) -> SearchResult:
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
            Worker-thread override for the group walks (defaults to
            ``spec.workers``).  Results are bit-for-bit identical for
            every worker count.
        shard_probe:
            Accepted for signature parity with
            :meth:`ShardedIndex.search
            <repro.index.sharded.ShardedIndex.search>`: a monolithic index
            is its own single shard, so only ``None`` or ``1`` are valid.
        executor:
            Signature parity with the sharded index's fan-out executor
            selection: a monolithic index has no shard fan-out to place
            elsewhere, so only ``None`` or ``"thread"`` (the in-process
            walk) are valid — anything else is rejected with a pointer at
            the sharded layer.
        bounds:
            Optional per-query distance caps, a floating ``(m,)`` array
            (``(1,)`` for one vector; ``inf`` is no cap): a query's walk
            never expands a candidate at or beyond its bound.  A routed
            sharded search passes each query's k-th distance in its
            nearest shard to its other probed shards.

        Returns
        -------
        SearchResult:
            Unpacks as ``(indices, distances)`` — neighbour ids and
            distances, sorted by ascending distance — and carries the
            ``(m,)`` per-query ``evaluations`` (``(1,)`` for one query)
            and the walk's ``stats``.
        """
        if shard_probe is not None:
            check_positive_int(shard_probe, name="shard_probe", maximum=1)
        if executor is not None and executor != "thread":
            raise ValidationError(
                f"executor={executor!r}: a monolithic Index serves "
                "in-process only (executor 'thread'); 'remote' serving is "
                "the sharded layer's fan-out knob (build with n_shards > 1)")
        # Tombstoned rows stay in the graph as routing waypoints but never
        # in results: the walk over-fetches by the tombstone count (never
        # beyond the physical rows — n_results <= n_points guarantees the
        # widened request still fits), then the tombstoned hits are
        # filtered out.
        n_tombstones = self._n_tombstones
        n_results = check_positive_int(
            n_results, name="n_results",
            maximum=self.data.shape[0] - n_tombstones)
        queries = np.asarray(queries)
        single = queries.ndim == 1
        idx, dist = walked = self._searcher.batch_query(
            queries[None, :] if single else queries,
            n_results + n_tombstones, pool_size=pool_size,
            workers=self.spec.workers if workers is None else workers,
            bounds=bounds)
        if n_tombstones:
            idx, dist = self._drop_tombstoned(idx, dist, n_results)
        idx = self._external(idx)
        if single:
            idx, dist = idx[0], dist[0]
        result = SearchResult(idx, dist, walked.evaluations, walked.stats)
        self._last = result
        return result

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

    def _external(self, idx: np.ndarray) -> np.ndarray:
        """Map physical row positions to external ids (``-1`` padding
        passes through)."""
        reached = idx >= 0
        return np.where(reached, self._ids[np.where(reached, idx, 0)], -1)

    # ------------------------------------------------------------------ #
    # Online mutations
    # ------------------------------------------------------------------ #
    def _lookup(self) -> dict:
        """Lazy external-id -> physical-position map."""
        if self._id_lookup is None:
            self._id_lookup = {int(value): position
                               for position, value in enumerate(self._ids)}
        return self._id_lookup

    def _resolve_live_positions(self, wanted: np.ndarray) -> np.ndarray:
        """Physical positions of external ids that must exist and be live.

        Raises :class:`~repro.exceptions.ValidationError` (without mutating
        anything) on an unknown, duplicate or already-deleted id — shared
        by :meth:`delete` and the sharded layer's pre-flight validation.
        """
        wanted = np.atleast_1d(np.asarray(wanted, dtype=np.int64)).ravel()
        if np.unique(wanted).size != wanted.size:
            raise ValidationError("duplicate ids in delete request")
        lookup = self._lookup()
        positions = np.empty(wanted.size, dtype=np.int64)
        for slot, value in enumerate(wanted.tolist()):
            position = lookup.get(value)
            if position is None:
                raise ValidationError(f"id {value} is not in the index")
            if self._tombstones[position]:
                raise ValidationError(f"id {value} is already deleted")
            positions[slot] = position
        return positions

    def insert(self, vectors: np.ndarray,
               ids: np.ndarray | None = None) -> np.ndarray:
        """Insert vectors online, repairing the graph locally (no rebuild).

        ``vectors`` is one ``(d,)`` vector or an ``(m, d)`` batch; ``ids``
        optionally assigns the external ids of the new points (unique,
        non-negative, disjoint from every existing id — tombstoned ones
        included), defaulting to the next unused integers.  The call's rows
        are wired in as one batch: one exact graph walk seeds them all over
        the pre-insert graph, one local join over the walk pools, their
        out-neighbours and the batch itself picks their graph rows, and one
        merge pushes the back-edges into the chosen neighbours (see
        :mod:`repro.graph.repair`).  Batch rows rather than calling once per
        vector: the walk and the join are cheapest per row at tens to
        hundreds of rows.  Bumps :attr:`generation` and returns the
        ``(m,)`` ids of the new points.
        """
        vectors, new_ids = check_insert(
            self, vectors, ids, lambda value: value in self._lookup())
        self._searcher.insert_points(vectors)
        self.graph = self._searcher.graph
        if self._id_lookup is not None:
            self._id_lookup.update(zip(new_ids.tolist(), range(
                self._ids.size, self._ids.size + new_ids.size)))
        self._ids = np.concatenate([self._ids, new_ids])
        # New rows are live: the tombstone count stands.
        self._tombstones = np.concatenate(
            [self._tombstones, np.zeros(new_ids.size, dtype=bool)])
        self._next_id = max(self._next_id, int(new_ids.max()) + 1)
        self.generation += 1
        return new_ids.copy()

    def delete(self, ids) -> int:
        """Tombstone external ids: excluded from every result, physically
        removed by :meth:`compact`.

        The whole request is validated before anything mutates — an
        unknown, duplicate or already-deleted id fails the call atomically.
        At least 2 live points must remain (an index over fewer rows
        cannot serve).  Bumps :attr:`generation`; returns the number of
        points deleted.
        """
        wanted = np.atleast_1d(np.asarray(ids, dtype=np.int64)).ravel()
        if wanted.size == 0:
            return 0
        positions = self._resolve_live_positions(wanted)
        if self.n_points - positions.size < 2:
            raise ValidationError(
                f"deleting {positions.size} of {self.n_points} live "
                "points would leave fewer than 2 — an index needs at "
                "least 2 live points to serve")
        self._tombstones[positions] = True
        self._n_tombstones += positions.size
        self.generation += 1
        return int(positions.size)

    def compact(self) -> int:
        """Physically remove tombstoned rows and re-derive the graph over
        the live rows.

        The backend is handed the surviving graph (see
        :mod:`repro.index.backends`).  ``gkmeans`` resumes Alg. 3 from it:
        the live rows' lists, renumbered, with every entry that named a
        tombstone drawn afresh by the random starting graph's rule, run
        for :func:`~repro.graph.construction.resumed_tau` rounds — two at
        a 3% tombstone share, all τ from a quarter of the rows on.  The
        other backends rebuild from scratch.

        External ids are stable across compaction — live points keep their
        ids while physical rows close ranks.  A no-op (returning 0, no
        generation bump) when nothing is tombstoned.  Quantized indexes
        refit their ``int8`` parameters over the surviving rows, as a
        build does.  The seed partition is the construction's own (the
        last Alg. 3 round's tree labels) or, for a backend that leaves
        none, the surviving rows' labels — a cluster compaction empties is
        simply never probed.  Returns the number of rows removed.
        """
        removed = self.n_tombstones
        if removed == 0:
            return 0
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
        return removed

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Serialize the index (spec, graph, data, ids) into one NPZ file.

        The file is written at exactly ``path`` (no ``.npz`` suffix is
        appended) and restored by :meth:`load` with zero rebuild.  The write
        is atomic — a temp file in the same directory is renamed over the
        target — so a crash mid-save never clobbers a previously good index.
        """
        atomic_savez(path, **self._fields())

    def _fields(self) -> dict:
        """The arrays :meth:`save` writes: the whole serving state."""
        payload = {
            "format_version": np.int64(FORMAT_VERSION),
            "spec_json": np.asarray(self.spec.to_json()),
            "data": self.data,
            "graph_indices": self.graph.indices,
            "graph_metric": np.asarray(self.graph.metric),
            "ids": self._ids,
            "tombstones": self._tombstones,
            "next_id": np.int64(self._next_id),
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
    def load(cls, path) -> "Index":
        """Restore an index saved by :meth:`save`; raises
        :class:`~repro.exceptions.ValidationError` unless the file is
        readable, at :data:`FORMAT_VERSION` (``gkmeans migrate`` rewrites
        older ones), with every key of its dtype and rank, and consistent."""
        return cls._from_fields(read_npz(path, "index file"), path)

    @classmethod
    def _from_fields(cls, fields: dict, path) -> "Index":
        """Check the arrays of an index file and build the index."""
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
                       next_id=int(fields["next_id"]),
                       generation=int(fields["generation"]),
                       quantizer=quantizer,
                       seed_labels=fields["seed_labels"])
        except (GraphError, ValidationError) as exc:
            raise ValidationError(
                f"index file {path!r} is inconsistent: {exc}") from exc
