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

Horizontal scale-out is the same class: a spec with ``n_shards > 1``
builds one graph per partition of the rows (:mod:`repro.index.sharded`),
searches fan out across the shards — in-process or on one ``gkmeans
serve`` daemon per shard — and the per-shard top-k merge by true distance.
``ShardedIndex`` is a second name of :class:`Index`.
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
    ShardedServingStats,
    partition_dataset,
)

#: The former name of the sharded index class, now :class:`Index` itself.
ShardedIndex = Index

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
    "partition_dataset",
    "FORMAT_VERSION",
    "SHARDED_FORMAT_VERSION",
    "MANIFEST_NAME",
]
