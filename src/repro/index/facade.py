"""The ``Index`` facade: build / search / persist in one object.

§4.3 of the paper observes that the Alg. 3 graph is good enough to serve ANN
queries directly — this module packages that observation as a library-level
API.  ``Index.build`` runs the construction backend named by an
:class:`~repro.index.spec.IndexSpec`, ``index.search`` serves 2-D query batches
through the batched graph walk — one gemm per round across a group's live
queries — and single vectors as a batch of one, and ``index.save`` /
``Index.load`` round-trip the whole serving state — spec, graph, data and
cached norms — through a single NPZ file, so a loaded index answers queries
bit-for-bit identically with zero rebuild.

The index is *online*: ``index.insert`` adds vectors with NN-Descent-style
local graph repair (no rebuild), ``index.delete`` tombstones external ids —
tombstoned points stay in the graph as routing waypoints but are excluded
from every result — and ``index.compact`` rebuilds the structure over the
live rows once tombstones accumulate.  Every mutation bumps the index's
``generation`` counter, the staleness signal serving daemons are checked
against.  Results are reported in stable external ids (``ids``): freshly
built indexes use ids equal to row positions, inserts either continue that
sequence or take caller-provided ids, and compaction keeps ids stable while
physical rows move.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
import zipfile

import numpy as np

from ..distance import DistanceEngine, ScalarQuantizer
from ..exceptions import GraphError, ValidationError
from ..graph.knngraph import KNNGraph
from ..search.greedy import GraphSearcher
from ..validation import (
    check_data_matrix,
    check_positive_int,
    check_random_state,
)
from .spec import BUILDERS, IndexSpec

__all__ = ["Index", "FORMAT_VERSION"]

#: Version of the NPZ persistence layout.  Version 2 added the online
#: mutation state (external ``ids``, ``tombstones``, the ``next_id``
#: counter and the ``generation`` counter); version 3 added the
#: quantization state (``quantizer_scale`` / ``quantizer_offset``, present
#: only for ``int8`` specs — the code matrix itself is re-derived on load).
#: Version-1/2 files still load (as unmutated / unquantized indexes).
FORMAT_VERSION = 3

_READABLE_FORMAT_VERSIONS = (1, 2, 3)

_REQUIRED_KEYS = ("format_version", "spec_json", "data", "graph_indices",
                  "graph_metric")


class Index:
    """A built ANN index: data + k-NN graph + spec, ready to serve queries.

    Construct with :meth:`build` (runs a registered construction backend) or
    :meth:`load` (restores a saved index); the raw constructor accepts a
    pre-built graph for advanced use.

    Searches are deterministic: every :meth:`search` call seeds its
    entry-point sampling from ``spec.random_state``, so the same query set
    always returns the same neighbours — including after a save/load
    round-trip.

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
    last_n_evaluations, last_per_query_evaluations:
        Total and ``(m,)`` per-query distance-evaluation counts of the most
        recent :meth:`search` call (batched gemms charged per query).
    last_serving_stats:
        :class:`~repro.search.frontier.ServingStats` of the most recent
        :meth:`search` call — per-group rounds, gemm counts, wall time
        (``None`` before the first search).
    """

    def __init__(self, data: np.ndarray, graph: KNNGraph, spec: IndexSpec, *,
                 norms: np.ndarray | None = None,
                 ids: np.ndarray | None = None,
                 tombstones: np.ndarray | None = None,
                 next_id: int | None = None, generation: int = 0,
                 quantizer: ScalarQuantizer | None = None,
                 build_seconds: float | None = None) -> None:
        if not isinstance(spec, IndexSpec):
            raise ValidationError(
                f"spec must be an IndexSpec, got {type(spec).__name__}")
        self.spec = spec
        # All validation (data matrix, graph/data row counts, graph-vs-spec
        # metric, restored-norms shape) and state (engine, cached norms,
        # symmetrised adjacency) lives in the composed searcher; the facade
        # adds spec handling, determinism, mutations and persistence on top.
        self._searcher = GraphSearcher(
            data, graph, pool_size=spec.pool_size, n_starts=spec.n_starts,
            seed_sample=spec.seed_sample, symmetrize=spec.symmetrize,
            random_state=spec.random_state, metric=spec.metric,
            dtype=spec.dtype, data_norms=norms, quantize=spec.quantize,
            quantizer=quantizer)
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
        floor = int(ids.max()) + 1 if ids.size else 0
        self._next_id = floor if next_id is None else max(int(next_id),
                                                          floor)
        #: Mutation counter: bumped by every insert/delete/compact.  The
        #: serving daemons' ``info`` RPC reports the generation they
        #: loaded, and the remote executor's handshake compares it against
        #: this value — a stale daemon is surfaced, never silently served.
        self.generation = int(generation)
        self._id_lookup: dict | None = None

    @property
    def last_n_evaluations(self) -> int:
        """Total distance evaluations of the most recent search call."""
        return self._searcher.last_n_evaluations

    @property
    def last_per_query_evaluations(self) -> np.ndarray | None:
        """``(m,)`` per-query evaluation counts of the most recent search."""
        return self._searcher.last_per_query_evaluations

    @property
    def last_serving_stats(self):
        """:class:`~repro.search.frontier.ServingStats` of the most recent
        search (``None`` before the first)."""
        return self._searcher.last_serving_stats

    @property
    def data(self) -> np.ndarray:
        """``(n, d)`` indexed vectors, in the spec's dtype."""
        return self._searcher.data

    @property
    def engine_(self) -> DistanceEngine:
        """The index's :class:`~repro.distance.DistanceEngine`."""
        return self._searcher.engine_

    @property
    def _data_norms(self) -> np.ndarray | None:
        return self._searcher._data_norms

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
        return int(self.data.shape[0]) - self.n_tombstones

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
        return int(self._tombstones.sum())

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
    def build(cls, data: np.ndarray, spec: IndexSpec | None = None,
              **overrides) -> "Index":
        """Build an index over ``data`` from a spec.

        ``overrides`` are :class:`~repro.index.spec.IndexSpec` fields applied
        on top of ``spec`` (or of the default spec when ``spec`` is omitted),
        so the common cases read naturally::

            Index.build(data)                                   # defaults
            Index.build(data, backend="nndescent", metric="cosine")
            Index.build(data, spec)                             # explicit spec
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
        data = check_data_matrix(data, min_samples=2, dtype=engine.dtype)
        check_positive_int(spec.n_neighbors, name="n_neighbors",
                           maximum=data.shape[0] - 1)
        started = time.perf_counter()
        graph = BUILDERS[spec.backend].build(data, spec)
        elapsed = time.perf_counter() - started
        return cls(data, graph, spec, build_seconds=elapsed)

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def search(self, queries: np.ndarray, n_results: int = 10, *,
               pool_size: int | None = None,
               workers: int | None = None, shard_probe: int | None = None,
               executor: str | None = None,
               random_state=None) -> tuple[np.ndarray, np.ndarray]:
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
            out-of-process, so only ``None`` or ``"thread"`` (the
            in-process walk) are valid — ``"process"`` is rejected with a
            pointer at the sharded layer.
        random_state:
            Entry-point seed override; defaults to ``spec.random_state``, so
            repeated calls are deterministic.

        Returns
        -------
        (indices, distances):
            Neighbour ids and distances, sorted by ascending distance.
        """
        if shard_probe is not None:
            check_positive_int(shard_probe, name="shard_probe", maximum=1)
        if executor is not None and executor != "thread":
            raise ValidationError(
                f"executor={executor!r}: a monolithic Index serves "
                "in-process only; out-of-process serving is the sharded "
                "layer's fan-out knob (build with n_shards > 1)")
        n_results = check_positive_int(n_results, name="n_results",
                                       maximum=self.n_points)
        rng = check_random_state(self.spec.random_state
                                 if random_state is None else random_state)
        # Tombstoned rows stay in the graph as routing waypoints but never
        # in results: the walk over-fetches by the tombstone count (never
        # beyond the physical rows — n_results <= n_points guarantees the
        # widened request still fits), then the tombstoned hits are
        # filtered out.
        n_tombstones = self.n_tombstones
        queries = np.asarray(queries)
        single = queries.ndim == 1
        idx, dist = self._searcher.batch_query(
            queries[None, :] if single else queries,
            n_results + n_tombstones, pool_size=pool_size,
            workers=self.spec.workers if workers is None else workers,
            rng=rng)
        if n_tombstones:
            idx, dist = self._drop_tombstoned(idx, dist, n_results)
        idx = self._external(idx)
        return (idx[0], dist[0]) if single else (idx, dist)

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
        included), defaulting to the next unused integers.  Each new point
        is wired in NN-Descent style: candidates seeded by an exact graph
        walk, refined by a local join, back-edges pushed into the chosen
        neighbours (see :mod:`repro.graph.repair`).  Bumps
        :attr:`generation` and returns the ``(m,)`` ids of the new points.
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
                raise ValidationError(
                    f"{m} vectors but {new_ids.size} ids")
            if new_ids.size and new_ids.min() < 0:
                raise ValidationError("ids must be non-negative")
            if np.unique(new_ids).size != new_ids.size:
                raise ValidationError("ids must be unique")
            lookup = self._lookup()
            taken = [value for value in new_ids.tolist() if value in lookup]
            if taken:
                raise ValidationError(
                    f"ids {taken} are already in the index (tombstoned "
                    "ids stay reserved until compaction)")
        rng = check_random_state(self.spec.random_state)
        self._searcher.insert_points(vectors, rng=rng)
        self.graph = self._searcher.graph
        if self._id_lookup is not None:
            base = self._ids.size
            for offset, value in enumerate(new_ids.tolist()):
                self._id_lookup[value] = base + offset
        self._ids = np.concatenate([self._ids, new_ids])
        self._tombstones = np.concatenate(
            [self._tombstones, np.zeros(m, dtype=bool)])
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
        self.generation += 1
        return int(positions.size)

    def compact(self) -> int:
        """Physically remove tombstoned rows by rebuilding over live data.

        External ids are stable across compaction — live points keep their
        ids while physical rows close ranks.  A no-op (returning 0, no
        generation bump) when nothing is tombstoned.  Quantized indexes
        refit their ``int8`` parameters over the surviving rows (compaction
        is a rebuild, so "build time" moves with it).  Returns the number
        of rows removed.
        """
        removed = self.n_tombstones
        if removed == 0:
            return 0
        live = self.live_mask
        data = np.ascontiguousarray(self.data[live])
        build_spec = self.spec
        if build_spec.n_neighbors > data.shape[0] - 1:
            build_spec = build_spec.replace(n_neighbors=data.shape[0] - 1)
        graph = BUILDERS[self.spec.backend].build(data, build_spec)
        norms = self._data_norms
        searcher = GraphSearcher(
            data, graph, pool_size=self.spec.pool_size,
            n_starts=self.spec.n_starts, seed_sample=self.spec.seed_sample,
            symmetrize=self.spec.symmetrize,
            random_state=self.spec.random_state, metric=self.spec.metric,
            dtype=self.spec.dtype, quantize=self.spec.quantize,
            data_norms=None if norms is None else norms[live])
        self._searcher.close()
        self._searcher = searcher
        self.graph = graph
        self._ids = self._ids[live].copy()
        self._tombstones = np.zeros(data.shape[0], dtype=bool)
        self._id_lookup = None
        self.generation += 1
        return removed

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def save(self, path) -> None:
        """Serialize the index (spec, graph, data, norms) into one NPZ file.

        The file is written at exactly ``path`` (no ``.npz`` suffix is
        appended) and restored by :meth:`load` with zero rebuild.  The write
        is atomic — a temp file in the same directory is renamed over the
        target — so a crash mid-save never clobbers a previously good index.
        """
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
        }
        if self.graph.distances is not None:
            payload["graph_distances"] = self.graph.distances
        if self._data_norms is not None:
            payload["norms"] = self._data_norms
        quantizer = self.quantizer
        if quantizer is not None and quantizer.scale is not None:
            # int8 parameters are build-time state: persisting them (rather
            # than refitting on load) keeps codes — and therefore served
            # results — bit-identical across save/load even after inserts
            # extended the data beyond the fitted range.
            payload["quantizer_scale"] = quantizer.scale
            payload["quantizer_offset"] = quantizer.offset
        path = os.fspath(path)
        handle, tmp_path = tempfile.mkstemp(
            dir=os.path.dirname(path) or ".", suffix=".idx.tmp")
        try:
            with os.fdopen(handle, "wb") as stream:
                np.savez(stream, **payload)
            os.replace(tmp_path, path)
        except BaseException:
            if os.path.exists(tmp_path):
                os.unlink(tmp_path)
            raise

    @classmethod
    def load(cls, path) -> "Index":
        """Restore an index saved by :meth:`save`.

        Raises :class:`~repro.exceptions.ValidationError` when the file is
        missing keys, carries an unknown format version, or is otherwise not
        a valid index file.
        """
        try:
            with np.load(path, allow_pickle=False) as archive:
                missing = [key for key in _REQUIRED_KEYS
                           if key not in archive.files]
                if missing:
                    raise ValidationError(
                        f"index file {path!r} is missing keys {missing}")
                version = int(archive["format_version"])
                if version not in _READABLE_FORMAT_VERSIONS:
                    raise ValidationError(
                        f"index file {path!r} has format version {version}, "
                        f"this build reads versions "
                        f"{_READABLE_FORMAT_VERSIONS}")
                spec = IndexSpec.from_json(str(archive["spec_json"]))
                data = archive["data"]
                graph_indices = archive["graph_indices"]
                graph_metric = str(archive["graph_metric"])
                graph_distances = (archive["graph_distances"]
                                   if "graph_distances" in archive.files
                                   else None)
                norms = (archive["norms"] if "norms" in archive.files
                         else None)
                # Version-1 files predate online mutations: they load as
                # unmutated indexes (positional ids, no tombstones, gen 0).
                ids = archive["ids"] if "ids" in archive.files else None
                tombstones = (archive["tombstones"]
                              if "tombstones" in archive.files else None)
                next_id = (int(archive["next_id"])
                           if "next_id" in archive.files else None)
                generation = (int(archive["generation"])
                              if "generation" in archive.files else 0)
                quantizer = None
                if "quantizer_scale" in archive.files:
                    quantizer = ScalarQuantizer(
                        "int8", scale=archive["quantizer_scale"],
                        offset=archive["quantizer_offset"])
        except ValidationError:
            raise
        except (OSError, ValueError, KeyError, EOFError,
                zipfile.BadZipFile, json.JSONDecodeError) as exc:
            raise ValidationError(
                f"cannot read index file {path!r}: {exc}") from exc
        try:
            graph = KNNGraph(graph_indices, graph_distances,
                             metric=graph_metric)
            return cls(data, graph, spec, norms=norms, ids=ids,
                       tombstones=tombstones, next_id=next_id,
                       generation=generation, quantizer=quantizer)
        except (GraphError, ValidationError) as exc:
            raise ValidationError(
                f"index file {path!r} is inconsistent: {exc}") from exc
