"""The built-in construction backends of the index registry.

Each backend is a ``build(data, spec, surviving=None) -> (KNNGraph,
seed_labels)`` callable registered under a name;
:class:`~repro.index.facade.Index` dispatches on ``IndexSpec.backend``.
``data`` arrives validated and already cast to the spec's dtype.
``seed_labels`` is the seed partition the build computed on the way (see
:mod:`repro.search._seeding`) or ``None``, in which case the index
partitions the data itself.

``surviving`` is ``(indices, live)`` when :meth:`Index.compact
<repro.index.facade.Index.compact>` calls: the compacted index's
``(n_rows, κ)`` neighbour table and its live-row mask, ``data`` being the
live rows.  ``gkmeans`` resumes Alg. 3 from it; the other backends ignore
it and build from scratch.
"""

from __future__ import annotations

import numpy as np

from ..graph import (
    brute_force_knn_graph,
    build_knn_graph_by_clustering,
    nn_descent_knn_graph,
    random_knn_graph,
)
from ..graph.construction import DEFAULT_TAU, resumed_tau
from ..graph.random_graph import surviving_lists
from .spec import IndexSpec, register_builder

__all__ = []


@register_builder(
    "gkmeans",
    params=("tau", "cluster_size"),
    description="the paper's Alg. 3: intertwined clustering/refinement rounds")
def _build_gkmeans(data: np.ndarray, spec: IndexSpec, surviving=None):
    params = dict(spec.params)
    initial = None
    if surviving is not None:
        # Resume from the surviving lists: the rounds grow with the share
        # of rows the compaction removed.
        indices, live = surviving
        params["tau"] = resumed_tau(params.get("tau", DEFAULT_TAU),
                                    1.0 - np.count_nonzero(live) / live.size)
        initial = surviving_lists(indices, live, spec.n_neighbors)
    # The last round's two-means-tree clusters are the seed partition.
    result = build_knn_graph_by_clustering(
        data, spec.n_neighbors, random_state=spec.random_state,
        metric=spec.metric, dtype=spec.dtype, initial=initial, **params)
    return result.graph, result.labels


@register_builder(
    "nndescent",
    params=("max_iterations", "sample_rate"),
    description="NN-Descent (KGraph) local joins")
def _build_nndescent(data: np.ndarray, spec: IndexSpec, surviving=None):
    return nn_descent_knn_graph(
        data, spec.n_neighbors, random_state=spec.random_state,
        metric=spec.metric, dtype=spec.dtype, **spec.params), None


@register_builder(
    "bruteforce",
    params=("block_size",),
    description="exact graph by blocked brute force (small corpora)")
def _build_bruteforce(data: np.ndarray, spec: IndexSpec, surviving=None):
    return brute_force_knn_graph(
        data, spec.n_neighbors, metric=spec.metric, dtype=spec.dtype,
        **spec.params), None


@register_builder(
    "random",
    description="random neighbour lists (baseline / warm start)")
def _build_random(data: np.ndarray, spec: IndexSpec, surviving=None):
    return random_knn_graph(
        data, spec.n_neighbors, random_state=spec.random_state,
        metric=spec.metric, dtype=spec.dtype), None
