"""Unified index facade: build / search / persist an ANN index in one API.

The five layers a user previously had to hand-wire — clustering, graph
construction, the :class:`~repro.graph.knngraph.KNNGraph` container, greedy
search and evaluation — collapse into::

    from repro.index import Index

    index = Index.build(data, backend="gkmeans", n_neighbors=16)
    ids, dists = index.search(queries, n_results=10)   # frontier-merged batch
    index.save("corpus.idx")
    served = Index.load("corpus.idx")                  # zero rebuild

See :class:`~repro.index.spec.IndexSpec` for the full recipe surface and
:func:`~repro.index.spec.register_builder` for adding construction backends.

Horizontal scale-out lives in :mod:`repro.index.sharded`: a spec with
``n_shards > 1`` builds a :class:`~repro.index.sharded.ShardedIndex` — one
sub-index per partition, shard-parallel build and batch search, per-shard
top-k merged by true distance — behind the same build/search/save/load
surface (:func:`~repro.index.sharded.build_index` and
:func:`~repro.index.sharded.load_index` dispatch automatically).
"""

from .spec import (
    BUILDERS,
    EXECUTORS,
    PARTITIONERS,
    BuilderEntry,
    IndexSpec,
    available_backends,
    register_builder,
)
from . import backends as _backends  # noqa: F401  (populates BUILDERS)
from .executors import (
    RemoteShardExecutor,
    ShardSearchTask,
    ThreadShardExecutor,
)
from .facade import FORMAT_VERSION, Index
from .rebalance import Rebalancer
from .sharded import (
    MANIFEST_NAME,
    SHARDED_FORMAT_VERSION,
    RebalanceReport,
    ShardedIndex,
    ShardedServingStats,
    build_index,
    load_index,
    partition_dataset,
)

__all__ = [
    "Index",
    "ShardedIndex",
    "ShardedServingStats",
    "IndexSpec",
    "BUILDERS",
    "PARTITIONERS",
    "EXECUTORS",
    "BuilderEntry",
    "Rebalancer",
    "RebalanceReport",
    "ShardSearchTask",
    "ThreadShardExecutor",
    "RemoteShardExecutor",
    "available_backends",
    "register_builder",
    "build_index",
    "load_index",
    "partition_dataset",
    "FORMAT_VERSION",
    "SHARDED_FORMAT_VERSION",
    "MANIFEST_NAME",
]
