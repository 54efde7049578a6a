"""Common estimator interface and result containers for all clusterers."""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..distance import DistanceEngine
from ..exceptions import NotFittedError
from ..validation import check_data_matrix, check_positive_int, check_random_state

__all__ = ["IterationRecord", "ClusteringResult", "BaseClusterer"]


@dataclass(frozen=True)
class IterationRecord:
    """Snapshot of one clustering iteration.

    These records are what the figure-level experiments consume: Fig. 5 plots
    ``distortion`` against both ``iteration`` and ``elapsed_seconds``.
    """

    iteration: int
    distortion: float
    elapsed_seconds: float
    n_moves: int = 0


@dataclass
class ClusteringResult:
    """Full output of a clustering run.

    Attributes
    ----------
    labels:
        Final assignment of every sample.
    centroids:
        ``(k, d)`` final cluster centroids.
    distortion:
        Final average distortion (Eqn. 4).
    history:
        Per-iteration :class:`IterationRecord` entries.
    converged:
        Whether the algorithm reached its convergence criterion before
        exhausting ``max_iter``.
    init_seconds, iteration_seconds:
        Wall-clock split between initialisation and the iterative phase —
        Table 2 of the paper reports exactly this split.
    extra:
        Algorithm-specific diagnostics (e.g. graph recall, distance counts).
    """

    labels: np.ndarray
    centroids: np.ndarray
    distortion: float
    history: list[IterationRecord] = field(default_factory=list)
    converged: bool = False
    init_seconds: float = 0.0
    iteration_seconds: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def n_iterations(self) -> int:
        """Number of completed iterations."""
        return len(self.history)

    @property
    def total_seconds(self) -> float:
        """Initialisation plus iteration wall-clock time."""
        return self.init_seconds + self.iteration_seconds

    @property
    def n_clusters(self) -> int:
        """Number of clusters (rows of ``centroids``)."""
        return int(self.centroids.shape[0])

    def distortion_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(iterations, distortions) arrays for distortion-vs-iteration plots."""
        iterations = np.array([r.iteration for r in self.history])
        distortions = np.array([r.distortion for r in self.history])
        return iterations, distortions

    def time_curve(self) -> tuple[np.ndarray, np.ndarray]:
        """(cumulative seconds, distortions) for distortion-vs-time plots."""
        seconds = np.array([r.elapsed_seconds for r in self.history])
        distortions = np.array([r.distortion for r in self.history])
        return seconds, distortions


class BaseClusterer(ABC):
    """Abstract base class with the shared fit/predict plumbing.

    Subclasses implement :meth:`_fit` and receive validated data plus a seeded
    :class:`numpy.random.Generator`.  After ``fit`` the estimator exposes the
    scikit-learn-style attributes ``labels_``, ``cluster_centers_``,
    ``inertia_`` (sum of squared distances), ``distortion_`` (the paper's
    average distortion) and ``result_`` (the full :class:`ClusteringResult`).

    Every clusterer accepts ``metric`` and ``dtype``:  cosine is handled by
    l2-normalising the rows once at fit time, after which the squared-
    Euclidean machinery (boost objective, triangle-inequality bounds, the
    two-means tree) is exact for the transformed space, so centroids,
    distortion and history are all reported in that space.
    ``dtype=float32`` halves the memory traffic of the assignment kernels.
    """

    def __init__(self, n_clusters: int, *, max_iter: int = 30,
                 random_state=None, metric: str = "sqeuclidean",
                 dtype=np.float64) -> None:
        self.n_clusters = n_clusters
        self.max_iter = max_iter
        self.random_state = random_state
        self.metric = metric
        self.dtype = dtype
        self.result_: ClusteringResult | None = None
        self.engine_: DistanceEngine | None = None

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def fit(self, data) -> "BaseClusterer":
        """Cluster ``data`` and store the result on the estimator."""
        engine = DistanceEngine(self.metric, self.dtype)
        data = check_data_matrix(data, min_samples=1, dtype=engine.dtype)
        data = engine.prepare_clustering(data)
        self.engine_ = engine
        self._work_engine = engine.clustering_engine()
        n_clusters = check_positive_int(self.n_clusters, name="n_clusters",
                                        maximum=data.shape[0])
        max_iter = check_positive_int(self.max_iter, name="max_iter")
        rng = check_random_state(self.random_state)
        start = time.perf_counter()
        result = self._fit(data, n_clusters, max_iter, rng)
        # Guard: _fit implementations fill the timing split; if one forgets,
        # fall back to attributing everything to the iteration phase.
        if result.init_seconds == 0.0 and result.iteration_seconds == 0.0:
            result.iteration_seconds = time.perf_counter() - start
        self.result_ = result
        return self

    def fit_predict(self, data) -> np.ndarray:
        """Cluster ``data`` and return the labels."""
        return self.fit(data).labels_

    def predict(self, data) -> np.ndarray:
        """Assign new samples to the nearest fitted centroid.

        New data goes through the same metric transform as ``fit`` (e.g. row
        normalisation under cosine) before the nearest-centroid assignment.
        """
        self._check_fitted()
        data = check_data_matrix(data, dtype=self.engine_.dtype)
        data = self.engine_.prepare_clustering(data)
        labels, _ = self._work_engine.assign_to_nearest(
            data, self.cluster_centers_)
        return labels

    # ------------------------------------------------------------------ #
    # Fitted attributes
    # ------------------------------------------------------------------ #
    @property
    def labels_(self) -> np.ndarray:
        self._check_fitted()
        return self.result_.labels

    @property
    def cluster_centers_(self) -> np.ndarray:
        self._check_fitted()
        return self.result_.centroids

    @property
    def distortion_(self) -> float:
        """Average distortion (Eqn. 4) of the fitted clustering."""
        self._check_fitted()
        return self.result_.distortion

    @property
    def inertia_(self) -> float:
        """Total within-cluster sum of squared distances."""
        self._check_fitted()
        return self.result_.distortion * self.result_.labels.shape[0]

    @property
    def history_(self) -> list[IterationRecord]:
        self._check_fitted()
        return self.result_.history

    @property
    def n_iter_(self) -> int:
        self._check_fitted()
        return self.result_.n_iterations

    # ------------------------------------------------------------------ #
    # Subclass hook
    # ------------------------------------------------------------------ #
    @abstractmethod
    def _fit(self, data: np.ndarray, n_clusters: int, max_iter: int,
             rng: np.random.Generator) -> ClusteringResult:
        """Cluster validated ``data`` into ``n_clusters`` clusters."""

    # ------------------------------------------------------------------ #
    # Internal helpers
    # ------------------------------------------------------------------ #
    def _check_fitted(self) -> None:
        if self.result_ is None:
            raise NotFittedError(
                f"{type(self).__name__} instance is not fitted yet; "
                "call fit() first")

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(n_clusters={self.n_clusters}, "
                f"max_iter={self.max_iter})")
