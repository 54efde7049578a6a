"""Declarative index specification and the construction-backend registry.

An :class:`IndexSpec` captures *everything* needed to rebuild or re-serve an
index — which graph-construction backend to run, the graph width κ, the
metric/dtype of all distance work, the greedy-search defaults and the seed —
in one JSON-serializable value.  The spec travels with the index into its
saved NPZ file, so a loaded index answers queries exactly like the process
that built it.

Backends are registered in a small table (:data:`BUILDERS`) mapping a name to
the graph-construction callable and the backend-specific parameters it
accepts, in the spirit of the method registries of KGraph/EFANNA-style ANN
libraries.  Adding a construction algorithm is one :func:`register_builder`
call — the facade, CLI and persistence pick it up automatically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Mapping

import numpy as np

from ..distance import resolve_dtype, resolve_metric, resolve_quantize
from ..exceptions import ValidationError
from ..validation import check_positive_int

__all__ = ["IndexSpec", "BuilderEntry", "BUILDERS", "PARTITIONERS",
           "EXECUTORS", "register_builder", "available_backends"]

#: Dataset partitioners understood by the sharded index layer:
#: ``"round_robin"`` deals row ``i`` to shard ``i % n_shards`` (balanced,
#: metric-free), ``"gkmeans"`` routes each vector to its nearest of
#: ``n_shards`` coarse k-means centroids (locality-preserving, so each
#: query's true neighbours concentrate in few shards).
PARTITIONERS = ("round_robin", "gkmeans")

#: Shard-fan-out executors understood by the sharded index layer:
#: ``"thread"`` serves the per-shard walks on an in-process thread pool
#: (the gemms release the GIL, nothing is copied), ``"remote"`` over the
#: framed RPC transport of :mod:`repro.net` against one ``gkmeans serve``
#: shard daemon per shard (requires a per-shard endpoint list — from the
#: deployment manifest or ``index.endpoints``); daemons on localhost put
#: the shard walks on separate cores.  Like ``workers``, the executor is a
#: pure placement knob — results are bit-for-bit identical.
EXECUTORS = ("thread", "remote")


@dataclass(frozen=True)
class BuilderEntry:
    """One row of the backend registry.

    Attributes
    ----------
    build:
        ``build(data, spec, surviving=None) -> (KNNGraph, seed_labels |
        None)`` callable; compaction passes the surviving graph as
        ``surviving`` (see :mod:`repro.index.backends`).
    params:
        Names of the backend-specific keys ``IndexSpec.params`` may carry.
    description:
        One-line summary for CLI help and ``repr``.
    """

    build: Callable
    params: frozenset
    description: str


#: Registered construction backends, keyed by name.
BUILDERS: dict[str, BuilderEntry] = {}


def register_builder(name: str, *, params=(),
                     description: str = "") -> Callable:
    """Register ``func`` as the construction backend ``name`` (decorator)."""

    def decorator(func: Callable) -> Callable:
        """Record ``func`` in ``BUILDERS`` and return it unchanged."""
        BUILDERS[name] = BuilderEntry(
            build=func, params=frozenset(params), description=description)
        return func

    return decorator


def available_backends() -> list[str]:
    """Sorted names of the registered construction backends."""
    return sorted(BUILDERS)


@dataclass(frozen=True)
class IndexSpec:
    """Recipe for building and serving one ANN index.

    Attributes
    ----------
    backend:
        Name of the graph-construction backend (see
        :func:`available_backends`): ``"gkmeans"`` (the paper's Alg. 3),
        ``"nndescent"``, ``"bruteforce"`` or ``"random"``.
    n_neighbors:
        Graph width κ.
    metric, dtype:
        Distance-engine configuration shared by construction and search.
    pool_size, n_starts:
        Search defaults: the candidate pool size, and the entry points each
        query starts from — the ``n_starts`` nearest members of its nearest
        seed-partition cluster (see :mod:`repro.search._seeding`).
    seed_sample:
        Retired: the size of the random entry sample searches used to draw.
        Still parsed (saved specs and callers carry it) and validated;
        nothing reads it.
    workers:
        Default worker-thread count for batched frontier searches served by
        the index.  Purely a throughput knob — results are bit-for-bit
        identical for every worker count — so it is safe to persist and to
        override per call.
    n_shards, partitioner:
        Horizontal-partitioning recipe of
        :meth:`Index.build <repro.index.facade.Index.build>`: the rows are
        split into ``n_shards`` groups with the named partitioner (see
        :data:`PARTITIONERS`) and one graph is built per group.
        ``n_shards=1`` (the default) is one graph over every row.  Like
        ``workers``, shard fan-out at serve time is a pure throughput knob.
    shard_probe:
        Default routed fan-out of sharded searches: each query is served by
        its ``shard_probe`` nearest shards (scored against the persisted
        coarse centroids) instead of all of them.  ``None`` (the default)
        and ``shard_probe == n_shards`` are the exact full fan-out;
        ``shard_probe < n_shards`` is an approximation knob trading recall
        for throughput, and requires the geometric ``gkmeans`` partitioner —
        ``round_robin`` shards carry no geometry to route against, so the
        combination is rejected.
    executor:
        Default shard-fan-out executor of sharded searches (see
        :data:`EXECUTORS`): ``"thread"`` runs the per-shard walks on an
        in-process thread pool, ``"remote"`` on ``gkmeans serve`` shard
        daemons.  A pure throughput knob — results are bit-for-bit
        identical — overridable per search call.
    quantize:
        Compressed-domain serving mode (see :data:`QUANTIZE_MODES` in
        :mod:`repro.distance.quantized`): ``"none"`` (the default) serves
        with the exact kernels, bit-for-bit unchanged; ``"int8"`` stores a
        compressed code matrix, walks the graph with compressed-domain
        gemms and re-ranks the final candidate pool with the exact metric —
        so returned distances are always exact values and quantization is
        purely a recall-vs-throughput knob (the floor is test-pinned).  Its
        quantizer parameters are fitted at build time and persisted with
        the index.
    random_state:
        Seed for construction *and* for every search call — searches are
        deterministic and reproducible across save/load.
    params:
        Backend-specific construction knobs, e.g. ``{"tau": 8,
        "cluster_size": 50}`` for ``gkmeans`` or ``{"max_iterations": 10}``
        for ``nndescent``.  Keys are validated against the backend registry.
    """

    backend: str = "gkmeans"
    n_neighbors: int = 16
    metric: str = "sqeuclidean"
    dtype: str = "float64"
    pool_size: int = 32
    n_starts: int = 4
    seed_sample: int | None = 256
    workers: int = 1
    n_shards: int = 1
    partitioner: str = "round_robin"
    shard_probe: int | None = None
    executor: str = "thread"
    quantize: str = "none"
    random_state: int = 0
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.backend not in BUILDERS:
            raise ValidationError(
                f"unknown index backend {self.backend!r}; expected one of "
                f"{available_backends()}")
        entry = BUILDERS[self.backend]
        object.__setattr__(self, "metric", resolve_metric(self.metric))
        object.__setattr__(self, "dtype",
                           np.dtype(resolve_dtype(self.dtype)).name)
        # Keep the coerced plain ints — numpy scalars would survive
        # validation but break the JSON persistence of to_json().
        object.__setattr__(self, "n_neighbors", check_positive_int(
            self.n_neighbors, name="n_neighbors"))
        object.__setattr__(self, "pool_size", check_positive_int(
            self.pool_size, name="pool_size"))
        object.__setattr__(self, "n_starts", check_positive_int(
            self.n_starts, name="n_starts"))
        object.__setattr__(self, "workers", check_positive_int(
            self.workers, name="workers"))
        object.__setattr__(self, "n_shards", check_positive_int(
            self.n_shards, name="n_shards"))
        if self.partitioner not in PARTITIONERS:
            raise ValidationError(
                f"unknown partitioner {self.partitioner!r}; expected one of "
                f"{list(PARTITIONERS)}")
        if self.shard_probe is not None:
            object.__setattr__(self, "shard_probe", check_positive_int(
                self.shard_probe, name="shard_probe",
                maximum=self.n_shards))
            if self.partitioner == "round_robin" and \
                    self.shard_probe < self.n_shards:
                raise ValidationError(
                    f"shard_probe={self.shard_probe} < n_shards="
                    f"{self.n_shards} requires the geometric 'gkmeans' "
                    "partitioner; round_robin shards are dealt by row "
                    "order and carry no centroids to route against")
        if self.executor not in EXECUTORS:
            raise ValidationError(
                f"unknown executor {self.executor!r}; expected one of "
                f"{list(EXECUTORS)}")
        object.__setattr__(self, "quantize",
                           resolve_quantize(self.quantize))
        if self.seed_sample is not None:
            object.__setattr__(self, "seed_sample", check_positive_int(
                self.seed_sample, name="seed_sample"))
        if not isinstance(self.random_state, (int, np.integer)) or \
                isinstance(self.random_state, bool):
            raise ValidationError(
                "IndexSpec.random_state must be an integer seed (it is "
                f"serialized with the index), got {self.random_state!r}")
        object.__setattr__(self, "random_state", int(self.random_state))
        params = {key: value.item() if isinstance(value, np.generic)
                  else value for key, value in dict(self.params).items()}
        unknown = set(params) - set(entry.params)
        if unknown:
            raise ValidationError(
                f"backend {self.backend!r} does not accept params "
                f"{sorted(unknown)} (accepted: {sorted(entry.params)})")
        try:
            json.dumps(params)
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                "IndexSpec.params values must be JSON-serializable (the "
                f"spec is persisted with the index): {exc}") from exc
        object.__setattr__(self, "params", params)

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Plain-dict form used for NPZ persistence (JSON-compatible)."""
        payload = {item.name: getattr(self, item.name)
                   for item in fields(self)}
        payload["params"] = dict(self.params)
        return payload

    def to_json(self) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), sort_keys=True)

    @classmethod
    def from_dict(cls, payload: Mapping) -> "IndexSpec":
        """Inverse of :meth:`to_dict`; unknown keys are a validation error."""
        if not isinstance(payload, Mapping):
            raise ValidationError(
                f"index spec must be a mapping, got {type(payload).__name__}")
        payload = dict(payload)
        # Retired serving settings.  Every index now searches the
        # symmetrized graph; a float16 spec is served exactly, and the
        # executor never changes results, so "thread" serves a "process"
        # spec exactly.
        payload.pop("symmetrize", None)
        if payload.get("quantize") == "float16":
            payload["quantize"] = "none"
        if payload.get("executor") == "process":
            payload["executor"] = "thread"
        unknown = set(payload) - {item.name for item in fields(cls)}
        if unknown:
            raise ValidationError(
                f"index spec carries unknown keys {sorted(unknown)}")
        params = payload.get("params")
        if payload.get("backend", "gkmeans") == "gkmeans" and \
                isinstance(params, Mapping):
            # Retired gkmeans params: the Lloyd bisection and the 4·ξ
            # block cap are now fixed, and a saved graph is served as is.
            payload["params"] = {key: value for key, value in params.items()
                                 if key not in ("bisection", "max_block")}
        return cls(**payload)

    @classmethod
    def from_json(cls, text: str) -> "IndexSpec":
        """Inverse of :meth:`to_json`."""
        try:
            payload = json.loads(text)
        except (TypeError, json.JSONDecodeError) as exc:
            raise ValidationError(
                f"index spec is not valid JSON: {exc}") from exc
        return cls.from_dict(payload)

    def replace(self, **overrides) -> "IndexSpec":
        """Copy of this spec with the given fields replaced (re-validated)."""
        return replace(self, **overrides)
