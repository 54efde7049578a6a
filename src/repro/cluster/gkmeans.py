"""GK-means — the paper's Alg. 2: k-means driven by a k-NN graph.

The algorithm keeps the incremental (boost) k-means optimisation but, for each
visited sample, only considers the clusters in which the sample's κ nearest
graph neighbours currently live.  The candidate set has at most κ entries
(usually far fewer, since neighbours share clusters), so one sweep costs
``O(n·d·κ)`` regardless of the cluster count ``k`` — that independence from
``k`` is the whole point of the paper.

Two assignment flavours are provided, matching §5.2's configuration study:

* ``assignment="boost"`` — the standard **GK-means**: every sample takes the
  best positive ΔI move (Eqn. 3) among its candidate clusters.  Alg. 2
  applies each move at once; :func:`graph_guided_boost_pass` scores ``BLOCK``
  samples against one snapshot, applies the movers in permutation order while
  each one's gain, recomputed on the state the earlier ones leave, holds, and
  re-scores the rest, so every applied move is exact while a "stay" decision
  may be up to one block stale.
* ``assignment="lloyd"`` — **GK-means⁻**: the sample is assigned to the
  nearest candidate *centroid*, centroids being recomputed once per sweep as
  in traditional k-means.

The supporting k-NN graph can be passed in explicitly (e.g. one produced by
NN-Descent, the paper's "KGraph+GK-means" runs) or built internally with the
paper's own construction (Alg. 3, ``graph_builder="clustering"``).
"""

from __future__ import annotations

import time

import numpy as np

from ..distance import DistanceCounter, DistanceEngine
from ..exceptions import ValidationError
from ..validation import check_knn_indices, check_labels, check_positive_int
from .base import BaseClusterer, ClusteringResult, IterationRecord
from .initialization import labels_to_centroids, random_balanced_labels
from .objective import BLOCK, ClusterState
from .two_means_tree import two_means_labels

__all__ = [
    "GKMeans",
    "candidate_label_block",
    "graph_guided_boost_pass",
    "graph_guided_lloyd_assign",
]


def candidate_label_block(labels: np.ndarray, neighbor_rows: np.ndarray,
                          own: np.ndarray) -> np.ndarray:
    """Candidate clusters of a block of samples — lines 7–11 of Alg. 2.

    ``neighbor_rows`` is the block's ``(b, κ)`` slice of the graph and
    ``own`` the ``(b,)`` current labels of its samples.  Returns the
    ``(b, κ+1)`` matrix of the clusters the neighbours live in, with the
    sample's own cluster in the last column and in place of every ``-1``
    padding slot.  Rows may repeat a cluster; both consumers take a row-wise
    arg-best, which duplicates cannot change.
    """
    candidates = labels[np.maximum(neighbor_rows, 0)]
    candidates = np.where(neighbor_rows >= 0, candidates, own[:, None])
    return np.concatenate([candidates, own[:, None]], axis=1)


def graph_guided_boost_pass(state: ClusterState, neighbor_indices: np.ndarray,
                            rng: np.random.Generator, *,
                            counter=None, scored=None) -> int:
    """One sweep of Alg. 2 over all samples in random order, ``BLOCK`` at a time.

    The permutation is walked in blocks.  For a block, the candidate clusters
    of all its samples are gathered from their graph neighbours and sorted
    per row, and the ΔI of every distinct candidate other than the sample's
    own cluster is computed against one snapshot of the state
    (:meth:`ClusterState.move_best_block`, ``O(Σ distinct candidates · d)``,
    ``O(BLOCK·κ·d)`` at worst).  The positive-gain movers are then applied in
    permutation order (:meth:`ClusterState.move_block`): each one's ΔI is
    recomputed on the state the earlier movers leave, and a mover whose gain
    no longer holds, or whose source it would empty, is held back together
    with every later mover naming a cluster it names; the held-back movers
    are re-evaluated against the updated state until none is left.  Every
    applied move therefore has exactly the gain computed for it — the
    objective never decreases — but, unlike Alg. 2's move-at-once loop, a
    sample that decides to *stay* may do so on a state up to one block old.
    The last member of a cluster is never a candidate mover, and a source
    keeps a member at each mover's turn, so no cluster is ever emptied.
    Returns the number of moves.

    A sample is not scored again while nothing it was scored on has changed.
    Its ΔI for every candidate reads only its own row and the composites of
    its own and candidate clusters, and a neighbour that changed cluster
    bumped the cluster it joined, so a sample whose clusters all have a
    version below its stamp (:class:`ClusterState`) would stay again, bit
    for bit.  A block's first round drops such samples before the sort;
    re-evaluations of held-back movers are never skipped.  The permutation,
    the block boundaries and the movers are unchanged, so the labels are
    those of the sweep that scores every sample.  A state's first sweep has
    nothing to skip, and Alg. 3 discards its state after it, so that sweep
    neither checks nor stamps; the second skips nothing either, and stamps.

    ``counter`` (a :class:`~repro.distance.DistanceCounter`) accumulates
    Alg. 2's evaluation count — the quantity whose reduction from ``k`` to
    at most κ + 1 per sample is the paper's speed-up: the distinct candidate
    clusters of each visited sample, once, whether it was scored or skipped;
    re-evaluations of held-back movers are not added again.  ``scored``
    accumulates what was computed: the distinct candidates of every row a
    round scores, re-evaluations included.
    """
    labels = state.labels
    moves = 0
    check = state.tick > 0
    order = rng.permutation(neighbor_indices.shape[0])
    for start in range(0, order.size, BLOCK):
        pending = order[start:start + BLOCK]
        revisit = False
        while pending.size:
            pending = pending[state.counts[labels[pending]] > 1]
            candidates = candidate_label_block(
                labels, neighbor_indices[pending], labels[pending])
            if check and not revisit:
                settled = (state.versions[candidates].max(axis=1)
                           < state.stamps[pending])
                if counter is not None:
                    counter.add(int(state.widths[pending[settled]].sum()))
                live = np.flatnonzero(~settled)
                if live.size < pending.size:
                    pending, candidates = pending[live], candidates[live]
            if not pending.size:
                break
            # Sorted rows: ties go to the smallest cluster id, and distinct
            # candidates are the value changes along a row.
            candidates.sort(axis=1)
            changes = candidates[:, 1:] != candidates[:, :-1]
            if check:
                widths = 1 + np.count_nonzero(changes, axis=1)
                state.tick += 1
                state.stamps[pending] = state.tick
                state.widths[pending] = widths
                width = int(widths.sum())
            else:
                width = pending.size + int(np.count_nonzero(changes))
            if counter is not None and not revisit:
                counter.add(width)
            if scored is not None:
                scored.add(width)
            revisit = True
            pending, applied = state.move_best_block(pending, candidates)
            moves += applied
    state.tick = max(state.tick, 1)
    return moves


def graph_guided_lloyd_assign(data: np.ndarray, labels: np.ndarray,
                              centroids: np.ndarray,
                              neighbor_indices: np.ndarray, *,
                              data_norms: np.ndarray | None = None,
                              block_size: int = 1024,
                              engine: DistanceEngine | None = None
                              ) -> np.ndarray:
    """Batch assignment restricted to graph-candidate centroids (GK-means⁻).

    Every sample is compared against the centroids of the clusters containing
    its graph neighbours (and its own current cluster); the closest (under
    ``engine``'s metric, squared-Euclidean by default) wins.  Processed in
    blocks so the gathered ``(block, κ+1, d)`` centroid tensor stays small.
    """
    if engine is None:
        engine = DistanceEngine()
    data = engine.prepare(data)
    centroids = engine.prepare(centroids)
    n = data.shape[0]
    if data_norms is None:
        data_norms = engine.norms(data)
    centroid_norms = engine.norms(centroids)

    new_labels = np.empty(n, dtype=np.int64)
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        candidate_labels = candidate_label_block(
            labels, neighbor_indices[start:stop], labels[start:stop])
        gathered = centroids[candidate_labels]            # (b, κ+1, d)
        dots = np.einsum("bd,bcd->bc", data[start:stop], gathered)
        dists = engine.from_inner(dots, data_norms[start:stop],
                                  centroid_norms[candidate_labels])
        best = np.argmin(dists, axis=1)
        new_labels[start:stop] = candidate_labels[np.arange(stop - start), best]
    return new_labels


class GKMeans(BaseClusterer):
    """Fast k-means driven by an (approximate) k-NN graph — Alg. 2.

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    n_neighbors:
        κ — number of graph neighbours considered per sample (paper default 50;
        quality is reported to be stable for κ ≥ 40).
    graph:
        Optional pre-built :class:`~repro.graph.knngraph.KNNGraph` (or a plain
        ``(n, κ)`` neighbour index array).  When omitted a graph is built
        internally using ``graph_builder``.
    graph_builder:
        ``"clustering"`` (the paper's Alg. 3), ``"nn-descent"`` (the
        KGraph+GK-means configuration) or ``"brute-force"`` (exact graph,
        useful for ablations).  Ignored when ``graph`` is given.  Only
        ``"clustering"`` draws from the clustering's own random stream; the
        other builders leave it untouched, so the clustering equals a run
        on the same graph passed in as ``graph``.
    graph_tau:
        τ — rounds of the clustering-based graph construction (paper: 10).
    graph_cluster_size:
        ξ — target cluster size of the graph construction (paper: 50).
    assignment:
        ``"boost"`` for GK-means (default) or ``"lloyd"`` for GK-means⁻.
    init:
        ``"two-means"`` (Alg. 1, the paper's choice), ``"random"`` (random
        balanced labels) or an explicit initial label vector.
    max_iter:
        Maximum number of sweeps; both assignments stop earlier once a
        sweep moves no sample.
    tol:
        Relative distortion gain at or below which a sweep counts as
        converged — read only by ``assignment="lloyd"``; the boost sweeps
        stop on a sweep without moves or on ``max_iter`` alone.
    random_state:
        Seed or generator.
    metric:
        ``"sqeuclidean"`` (default), ``"cosine"`` (rows are l2-normalised
        once, then everything runs in the exact squared-Euclidean
        reduction).
    dtype:
        ``float64`` (default) or ``float32`` for the distance kernels.

    Attributes
    ----------
    graph_:
        The k-NN graph actually used (built or supplied).

    ``result_.extra["n_distance_evaluations"]`` counts the ΔI (boost) or
    centroid (lloyd) evaluations the sweeps actually computed, and
    ``result_.extra["n_alg2_evaluations"]`` Alg. 2's count — the distinct
    candidate clusters of every visited sample, once per sweep — which the
    boost sweep undercuts by not re-scoring settled samples
    (:func:`graph_guided_boost_pass`).  The lloyd sweep scores all ``κ + 1``
    candidates of every sample, so there the two are equal.
    """

    def __init__(self, n_clusters: int, *, n_neighbors: int = 50,
                 graph=None, graph_builder: str = "clustering",
                 graph_tau: int = 10, graph_cluster_size: int = 50,
                 assignment: str = "boost", init: object = "two-means",
                 max_iter: int = 30, tol: float = 1e-4,
                 random_state=None, metric: str = "sqeuclidean",
                 dtype=np.float64) -> None:
        super().__init__(n_clusters, max_iter=max_iter,
                         random_state=random_state, metric=metric,
                         dtype=dtype)
        self.n_neighbors = n_neighbors
        self.graph = graph
        self.graph_builder = graph_builder
        self.graph_tau = graph_tau
        self.graph_cluster_size = graph_cluster_size
        self.assignment = assignment
        self.init = init
        self.tol = tol
        self.graph_ = None

    # ------------------------------------------------------------------ #
    # Fitting
    # ------------------------------------------------------------------ #
    def _fit(self, data: np.ndarray, n_clusters: int, max_iter: int,
             rng: np.random.Generator) -> ClusteringResult:
        if self.assignment not in {"boost", "lloyd"}:
            raise ValidationError(
                f"assignment must be 'boost' or 'lloyd', got {self.assignment!r}")
        engine = self._work_engine
        # A supplied graph is used at its own width (truncated to
        # n_neighbors when wider), so the row-count ceiling only binds a
        # graph GK-means builds itself.
        n_neighbors = check_positive_int(
            self.n_neighbors, name="n_neighbors",
            maximum=None if self.graph is not None
            else max(1, data.shape[0] - 1))

        init_start = time.perf_counter()
        neighbor_indices, graph_seconds = self._resolve_graph(
            data, n_neighbors, rng)
        labels = self._initial_labels(data, n_clusters, rng)
        state = ClusterState(data, labels, n_clusters)
        init_seconds = time.perf_counter() - init_start

        history: list[IterationRecord] = []
        converged = False
        counter, scored = DistanceCounter(), DistanceCounter()
        iter_start = time.perf_counter()
        if self.assignment == "boost":
            for iteration in range(max_iter):
                moves = graph_guided_boost_pass(state, neighbor_indices, rng,
                                                counter=counter, scored=scored)
                history.append(IterationRecord(
                    iteration=iteration, distortion=state.distortion,
                    elapsed_seconds=time.perf_counter() - iter_start,
                    n_moves=moves))
                if moves == 0:
                    converged = True
                    break
            labels = state.labels.copy()
            centroids = state.centroids()
            distortion = state.distortion
        else:
            data_norms = engine.norms(data)
            labels = state.labels.copy()
            centroids = state.centroids()
            previous_distortion = np.inf
            for iteration in range(max_iter):
                new_labels = graph_guided_lloyd_assign(
                    data, labels, centroids, neighbor_indices,
                    data_norms=data_norms, engine=engine)
                counter.add(data.shape[0] * (neighbor_indices.shape[1] + 1))
                scored.add(data.shape[0] * (neighbor_indices.shape[1] + 1))
                moves = int(np.sum(new_labels != labels))
                labels = new_labels
                centroids = labels_to_centroids(data, labels, n_clusters,
                                                rng=rng)
                distortion = float(
                    engine.rowwise(data, centroids[labels]).mean())
                history.append(IterationRecord(
                    iteration=iteration, distortion=distortion,
                    elapsed_seconds=time.perf_counter() - iter_start,
                    n_moves=moves))
                relative_gain_small = (
                    np.isfinite(previous_distortion)
                    and previous_distortion - distortion
                    <= self.tol * max(previous_distortion, 1e-300))
                if moves == 0 or relative_gain_small:
                    converged = True
                    break
                previous_distortion = distortion
            distortion = float(engine.rowwise(data, centroids[labels]).mean())
        iteration_seconds = time.perf_counter() - iter_start

        return ClusteringResult(
            labels=labels, centroids=centroids, distortion=distortion,
            history=history, converged=converged,
            init_seconds=init_seconds, iteration_seconds=iteration_seconds,
            extra={"graph_seconds": graph_seconds,
                   "assignment": self.assignment,
                   "n_neighbors": neighbor_indices.shape[1],
                   "n_distance_evaluations": scored.count,
                   "n_alg2_evaluations": counter.count,
                   "graph_distance_evaluations": self._graph_evaluations})

    # ------------------------------------------------------------------ #
    # Helpers
    # ------------------------------------------------------------------ #
    def _resolve_graph(self, data: np.ndarray, n_neighbors: int,
                       rng: np.random.Generator) -> tuple[np.ndarray, float]:
        """Return the ``(n, κ)`` neighbour index matrix plus build time."""
        self._graph_evaluations = 0
        if self.graph is not None:
            indices = getattr(self.graph, "indices", self.graph)
            indices = check_knn_indices(indices, data.shape[0])
            if indices.shape[1] > n_neighbors:
                indices = indices[:, :n_neighbors]
            self.graph_ = self.graph
            return np.ascontiguousarray(indices), 0.0

        start = time.perf_counter()
        builder = str(self.graph_builder).lower()
        # Builders run in the already-transformed clustering space, so they
        # get the *work* engine's metric (sqeuclidean for cosine input).
        work = self._work_engine
        if builder == "clustering":
            # Imported lazily: repro.graph.construction itself calls back into
            # this module, and a module-level import would create a cycle.
            from ..graph.construction import build_knn_graph_by_clustering
            result = build_knn_graph_by_clustering(
                data, n_neighbors, tau=self.graph_tau,
                cluster_size=self.graph_cluster_size, random_state=rng,
                metric=work.metric, dtype=work.dtype)
            graph = result.graph
            self._graph_evaluations = result.n_distance_evaluations
        elif builder in {"nn-descent", "nndescent", "kgraph"}:
            # KGraph is a graph supplier, not a step of Alg. 2: it draws from
            # a child stream, so GK-means sees the same stream as it would
            # on the same graph passed in as ``graph``.
            from ..graph.nndescent import NNDescent
            nn_builder = NNDescent(n_neighbors=n_neighbors,
                                   random_state=rng.spawn(1)[0],
                                   metric=work.metric, dtype=work.dtype)
            graph = nn_builder.build(data)
            self._graph_evaluations = nn_builder.n_distance_evaluations_
        elif builder in {"brute-force", "bruteforce", "exact"}:
            from ..graph.bruteforce import brute_force_knn_graph
            graph = brute_force_knn_graph(data, n_neighbors,
                                          metric=work.metric,
                                          dtype=work.dtype)
        else:
            raise ValidationError(
                "graph_builder must be 'clustering', 'nn-descent' or "
                f"'brute-force', got {self.graph_builder!r}")
        self.graph_ = graph
        return np.ascontiguousarray(graph.indices), time.perf_counter() - start

    def _initial_labels(self, data: np.ndarray, n_clusters: int,
                        rng: np.random.Generator) -> np.ndarray:
        """Initial partition: two-means tree, random, or user-provided labels."""
        if isinstance(self.init, str):
            key = self.init.lower()
            if key in {"two-means", "2m", "two_means"}:
                # ``data`` is already in the clustering space.
                work = self._work_engine
                return two_means_labels(data, n_clusters, random_state=rng,
                                        metric=work.metric, dtype=work.dtype)
            if key == "random":
                return random_balanced_labels(data.shape[0], n_clusters, rng)
            raise ValidationError(
                f"init must be 'two-means', 'random' or a label array, "
                f"got {self.init!r}")
        return check_labels(self.init, data.shape[0],
                            name="init labels").copy()
