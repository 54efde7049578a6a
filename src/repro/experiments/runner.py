"""Method registry and single-run driver shared by every experiment.

The paper's figures compare a fixed cast of methods; this module gives each of
them a canonical name (matching the legend strings used in the paper) and a
builder so the experiment drivers can iterate over ``["k-means", "BKM",
"Mini-Batch", "closure k-means", "GK-means", ...]`` without repeating
construction logic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster import (
    BisectingKMeans,
    BoostKMeans,
    ClosureKMeans,
    GKMeans,
    KMeans,
    MiniBatchKMeans,
    TwoMeansTree,
)
from ..cluster.base import BaseClusterer, ClusteringResult
from ..exceptions import ValidationError

__all__ = ["METHOD_BUILDERS", "MethodRun", "available_methods", "run_method"]


def _plain(estimator):
    """Builder of an estimator that takes the run's arguments as they are."""
    def build(n_clusters, max_iter, random_state, **options):
        return estimator(n_clusters, max_iter=max_iter,
                         random_state=random_state, **options)
    return build


def _build_minibatch(n_clusters, max_iter, random_state, **options):
    options.setdefault("batch_size", 256)
    return MiniBatchKMeans(n_clusters, max_iter=max_iter,
                           random_state=random_state, **options)


def _build_gkmeans(n_clusters, max_iter, random_state, **options):
    options.setdefault("graph_builder", "clustering")
    return GKMeans(n_clusters, max_iter=max_iter, random_state=random_state,
                   **options)


def _build_gkmeans_minus(n_clusters, max_iter, random_state, **options):
    options.setdefault("graph_builder", "clustering")
    options["assignment"] = "lloyd"
    return GKMeans(n_clusters, max_iter=max_iter, random_state=random_state,
                   **options)


def _build_kgraph_gkmeans(n_clusters, max_iter, random_state, **options):
    options["graph_builder"] = "nn-descent"
    return GKMeans(n_clusters, max_iter=max_iter, random_state=random_state,
                   **options)


def _build_bisecting(n_clusters, max_iter, random_state, **options):
    return BisectingKMeans(n_clusters, random_state=random_state, **options)


def _build_two_means(n_clusters, max_iter, random_state, **options):
    return TwoMeansTree(n_clusters, random_state=random_state, **options)


#: Canonical method names (the paper's legend strings) → estimator builders.
METHOD_BUILDERS = {
    "k-means": _plain(KMeans),
    "BKM": _plain(BoostKMeans),
    "Mini-Batch": _build_minibatch,
    "closure k-means": _plain(ClosureKMeans),
    "GK-means": _build_gkmeans,
    "GK-means-": _build_gkmeans_minus,
    "KGraph+GK-means": _build_kgraph_gkmeans,
    "bisecting k-means": _build_bisecting,
    "2M tree": _build_two_means,
}


@dataclass
class MethodRun:
    """One (method, dataset) execution.

    Attributes
    ----------
    method:
        Canonical method name.
    result:
        The :class:`~repro.cluster.base.ClusteringResult` produced.
    estimator:
        The fitted estimator (kept so experiments can reach method-specific
        attributes such as ``GKMeans.graph_``).
    """

    method: str
    result: ClusteringResult
    estimator: BaseClusterer

    @property
    def distortion(self) -> float:
        return self.result.distortion

    @property
    def total_seconds(self) -> float:
        return self.result.total_seconds

    @property
    def distance_evaluations(self) -> int | None:
        """Sample-to-centroid / candidate evaluations computed, if counted.

        The count each method actually computed (``extra
        ["n_distance_evaluations"]``): for GK-means the ΔI rows and pairs
        its sweeps scored, which skip settled samples.  For the GK-means
        family this includes the cost of building the supporting graph, so
        the number is comparable to the full cost of the other methods.
        ``None`` when the method does not report counts.
        """
        return self._with_graph("n_distance_evaluations")

    @property
    def alg2_evaluations(self) -> int | None:
        """Alg. 2's count for the GK-means family, graph cost included.

        The distinct candidate clusters of every visited sample, once per
        sweep, whether its sweep scored it or skipped it.  ``None`` for the
        methods without candidate sets.
        """
        return self._with_graph("n_alg2_evaluations")

    def _with_graph(self, key: str) -> int | None:
        extra = self.result.extra
        if key not in extra:
            return None
        return int(extra[key] + extra.get("graph_distance_evaluations", 0))


def available_methods() -> list[str]:
    """Names of every registered method."""
    return list(METHOD_BUILDERS)


def run_method(method: str, data: np.ndarray, n_clusters: int, *,
               max_iter: int = 30, random_state=None, **options) -> MethodRun:
    """Fit one registered method on ``data`` and return its :class:`MethodRun`.

    ``options`` are forwarded to the estimator constructor (e.g.
    ``n_neighbors=20`` for the GK-means family, ``batch_size=512`` for
    Mini-Batch).
    """
    if method not in METHOD_BUILDERS:
        raise ValidationError(
            f"unknown method {method!r}; available: "
            f"{', '.join(available_methods())}")
    estimator = METHOD_BUILDERS[method](n_clusters, max_iter, random_state,
                                        **options)
    estimator.fit(data)
    return MethodRun(method=method, result=estimator.result_,
                     estimator=estimator)
