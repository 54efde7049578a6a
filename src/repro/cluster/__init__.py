"""Clustering algorithms.

The paper's contribution (:class:`~repro.cluster.gkmeans.GKMeans`) plus every
baseline it is compared against or built upon:

* :class:`~repro.cluster.lloyd.KMeans` — traditional Lloyd iteration.
* :class:`~repro.cluster.boost.BoostKMeans` — Zhao et al.'s incremental
  optimisation of the composite-vector objective (Eqn. 2/3), the engine
  GK-means is built on.
* :class:`~repro.cluster.two_means_tree.TwoMeansTree` — Alg. 1, the
  equal-size bisecting tree used for initialisation.
* :class:`~repro.cluster.minibatch.MiniBatchKMeans` — Sculley 2010.
* :class:`~repro.cluster.closure.ClosureKMeans` — Wang et al. 2012.
* :class:`~repro.cluster.bisecting.BisectingKMeans` — hierarchical baseline.
* :class:`~repro.cluster.gkmeans.GKMeans` — Alg. 2, the KNN-graph-driven
  fast k-means (the paper's GK-means and GK-means⁻).
"""

from .base import BaseClusterer, ClusteringResult, IterationRecord
from .objective import ClusterState, boost_objective
from .initialization import (
    random_init,
    kmeans_plus_plus_init,
    labels_to_centroids,
)
from .lloyd import KMeans
from .boost import BoostKMeans
from .minibatch import MiniBatchKMeans
from .bisecting import BisectingKMeans
from .two_means_tree import TwoMeansTree, two_means_labels
from .closure import ClosureKMeans
from .gkmeans import GKMeans

__all__ = [
    "BaseClusterer",
    "ClusteringResult",
    "IterationRecord",
    "ClusterState",
    "boost_objective",
    "random_init",
    "kmeans_plus_plus_init",
    "labels_to_centroids",
    "KMeans",
    "BoostKMeans",
    "MiniBatchKMeans",
    "BisectingKMeans",
    "TwoMeansTree",
    "two_means_labels",
    "ClosureKMeans",
    "GKMeans",
]
