"""The built-in construction backends of the index registry.

Each backend is a ``build(data, spec) -> (KNNGraph, seed_labels)`` callable
registered under a name; :class:`~repro.index.facade.Index` dispatches on
``IndexSpec.backend``.  ``data`` arrives validated and already cast to the
spec's dtype.  ``seed_labels`` is the seed partition the build computed on
the way (see :mod:`repro.search._seeding`) or ``None``, in which case the
index partitions the data itself.
"""

from __future__ import annotations

import numpy as np

from ..graph import (
    brute_force_knn_graph,
    build_knn_graph_by_clustering,
    nn_descent_knn_graph,
    random_knn_graph,
)
from .spec import IndexSpec, register_builder

__all__ = []


@register_builder(
    "gkmeans",
    params=("tau", "cluster_size", "bisection", "max_block"),
    metrics=("sqeuclidean", "cosine"),
    description="the paper's Alg. 3: intertwined clustering/refinement rounds")
def _build_gkmeans(data: np.ndarray, spec: IndexSpec):
    # The last round's two-means-tree clusters are the seed partition.
    result = build_knn_graph_by_clustering(
        data, spec.n_neighbors, random_state=spec.random_state,
        metric=spec.metric, dtype=spec.dtype, **spec.params)
    return result.graph, result.labels


@register_builder(
    "nndescent",
    params=("max_iterations", "sample_rate"),
    description="NN-Descent (KGraph) local joins")
def _build_nndescent(data: np.ndarray, spec: IndexSpec):
    return nn_descent_knn_graph(
        data, spec.n_neighbors, random_state=spec.random_state,
        metric=spec.metric, dtype=spec.dtype, **spec.params), None


@register_builder(
    "bruteforce",
    params=("block_size",),
    description="exact graph by blocked brute force (small corpora)")
def _build_bruteforce(data: np.ndarray, spec: IndexSpec):
    return brute_force_knn_graph(
        data, spec.n_neighbors, metric=spec.metric, dtype=spec.dtype,
        **spec.params), None


@register_builder(
    "random",
    description="random neighbour lists (baseline / warm start)")
def _build_random(data: np.ndarray, spec: IndexSpec):
    return random_knn_graph(
        data, spec.n_neighbors, random_state=spec.random_state,
        metric=spec.metric, dtype=spec.dtype), None
