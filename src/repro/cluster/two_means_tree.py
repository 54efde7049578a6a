"""Two-means (2M) tree — Alg. 1 of the paper.

The two-means tree is a variant of hierarchical bisecting k-means used to
produce the *initial* partition for GK-means (and to drive the clustering step
inside the KNN-graph construction).  It repeatedly takes the largest cluster,
bisects it into two clusters and then **adjusts the two halves to equal
size**, until ``k`` clusters exist.  The equal-size adjustment is what keeps
every leaf at roughly ``n/k`` samples, which the graph-construction step
relies on (the within-cluster exhaustive comparison must stay ``O(ξ²)``).

Complexity is ``O(d·n·log k)`` — cheaper than a single Lloyd iteration when
``k`` is large — which is why the paper uses it instead of k-means++ style
seeding.

Step 8 of Alg. 1 bisects with boost k-means; every bisection here is at most
``BISECT_ITER`` Lloyd 2-means steps (README, "note on fidelity").

Alg. 1 as printed pops one node at a time from a priority queue.  Here the
nodes are bisected a **wave** at a time: every pending node at least as large
as the largest child the current largest node can have (``⌈s/2⌉`` with the
equal-size adjustment, ``s - 1`` without) would be popped before any node the
wave creates, so they are all split in one step — in the queue's pop order
(size descending, then age), truncated to the splits still needed, which
keeps the label numbering, the leaf sizes and the order of the per-node seed
draws those of the one-node loop.  The balanced tree therefore runs
``⌈log₂ k⌉`` waves; the unbalanced ablation degrades to about one node per
wave through the same code.  A wave works on one padded ``(w, M, d)`` gather
of its nodes and makes no per-node interpreter call on its common path: the
seeds of all its nodes come from one generator call that consumes the random
stream exactly as one ``rng.choice(size, 2, replace=False)`` per node would,
the 2-means steps are a projection on each node's ``c₁ - c₀`` axis and a
masked sum, and the equal-size adjustment is one row-wise selection
(``np.partition``) that marks the same top half a stable sort would.
"""

from __future__ import annotations

import time

import numpy as np

from ..distance import DistanceEngine
from ..validation import check_data_matrix, check_positive_int, check_random_state
from .base import BaseClusterer, ClusteringResult, IterationRecord
from .objective import ClusterState

__all__ = ["TwoMeansTree", "two_means_labels"]


#: Padded rows (nodes × largest node) one wave may gather.  A level of the
#: balanced tree over 16k samples still splits in one wave; beyond that a
#: level is cut into several waves so the ``(w, M, d)`` gather stays a few MB
#: whatever ``n`` is (a single node larger than this is gathered whole, as
#: the root always was).
WAVE_ROWS = 16384

#: Lloyd 2-means steps per bisection (fewer once the split stops changing).
BISECT_ITER = 4


def _masked_means(rows: np.ndarray, assignment: np.ndarray,
                  valid: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``(w, 2, d)`` means of both sides of every node's split.

    One batched ``(2, M) @ (M, d)`` product per node over 0/1 membership
    weights; padding slots weigh zero on both sides.
    """
    weights = np.stack([valid & ~assignment, assignment],
                       axis=1).astype(rows.dtype)
    second = assignment.sum(axis=1)
    counts = np.stack([sizes - second, second], axis=1).astype(rows.dtype)
    return np.matmul(weights, rows) / counts[:, :, None]


def _project(rows: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(w, M)`` projections of every row on its node's ``c₁ − c₀`` axis.

    Centred on the midpoint of the two centroids, so a row is strictly
    closer to ``c₁`` exactly when its projection is positive — the
    ``‖x − c₁‖² < ‖x − c₀‖²`` test with ``‖x‖²`` cancelled.
    """
    axis = centroids[:, 1] - centroids[:, 0]
    midpoint = 0.5 * np.einsum("wd,wd->w", axis,
                               centroids[:, 1] + centroids[:, 0])
    return np.matmul(rows, axis[:, :, None])[:, :, 0] - midpoint[:, None]


def _draw_seed_pairs(sizes: np.ndarray,
                     rng: np.random.Generator) -> np.ndarray:
    """``(w, 2)`` distinct seed slots for every node, from one ``integers`` call.

    The values, their order and the generator's state afterwards are those of
    ``rng.choice(size, 2, replace=False)`` called node by node.  For two
    draws ``choice`` runs Floyd's algorithm — a value below ``s − 1``, then
    one below ``s`` that becomes ``s − 1`` if it repeats the first — and then
    a one-step shuffle, a value below 2 where 0 swaps the pair.  Each of these
    is one bounded draw, so a single ``integers`` call over the bounds
    ``[s − 1, s, 2]`` of every node reads the stream in the same order and
    the two rules are applied afterwards as array operations.
    """
    bounds = np.stack([sizes - 1, sizes, np.full_like(sizes, 2)], axis=1)
    first, second, keep = rng.integers(0, bounds.ravel()).reshape(-1, 3).T
    second = np.where(second == first, sizes - 1, second)
    swap = keep == 0
    return np.stack([np.where(swap, second, first),
                     np.where(swap, first, second)], axis=1)


def _bisect_lloyd(rows: np.ndarray, valid: np.ndarray, sizes: np.ndarray,
                  rng: np.random.Generator,
                  n_iter: int) -> tuple[np.ndarray, np.ndarray]:
    """Split every node of a wave with a few vectorised 2-means steps.

    ``rows`` is the padded ``(w, M, d)`` gather of the wave and ``valid`` its
    ``(w, M)`` slot mask.  Returns the boolean ``(w, M)`` assignment (True =
    second group, padding False) and the ``(w, 2, d)`` means of the two
    groups.  The seeds of the whole wave are one draw
    (:func:`_draw_seed_pairs`); only a degenerate split draws again, one
    random halving per such node.  A node that stopped changing recomputes
    the same split, so the wave simply iterates until no node changes.
    """
    nodes = np.arange(sizes.size)
    centroids = rows[nodes[:, None], _draw_seed_pairs(sizes, rng)]
    assignment = np.zeros(valid.shape, dtype=bool)
    for _ in range(n_iter):
        new_assignment = (_project(rows, centroids) > 0.0) & valid
        second = new_assignment.sum(axis=1)
        for node in np.flatnonzero((second == 0) | (second == sizes)):
            # Degenerate split (identical seeds); perturb by random halving.
            size = int(sizes[node])
            new_assignment[node] = False
            new_assignment[node, rng.permutation(size)[: size // 2]] = True
        if np.array_equal(new_assignment, assignment):
            break
        assignment = new_assignment
        centroids = _masked_means(rows, assignment, valid, sizes)
    return assignment, centroids


def _equalize(rows: np.ndarray, valid: np.ndarray, sizes: np.ndarray,
              centroids: np.ndarray) -> np.ndarray:
    """Adjust every bisection of a wave to (almost) equal halves (Alg. 1, l. 9).

    Samples are ranked by how much closer they are to the second centroid than
    to the first; the top half goes to the second cluster.  This preserves the
    spatial structure of the split while forcing balance.  The top half is
    the last ``size // 2`` ranks of a row-wise stable ascending sort, padding
    (``-inf``) first, and is found without sorting: one ``np.partition``
    yields every row's ``size // 2``-th largest preference, every slot
    strictly above it is taken, and of the slots tied at it the *last* ones
    fill the half, because a stable sort ranks later tied slots higher.
    """
    preference = np.where(valid, _project(rows, centroids), -np.inf)
    half = sizes // 2
    kth = valid.shape[1] - half
    threshold = np.partition(preference, np.unique(kth), axis=1)[
        np.arange(sizes.size), kth][:, None]
    above = preference > threshold
    tied = preference == threshold
    # 1 for a row's last tied slot, 2 for the one before it, ...
    from_end = np.cumsum(tied[:, ::-1], axis=1)[:, ::-1]
    missing = half - above.sum(axis=1)
    return above | (tied & (from_end <= missing[:, None]))


def _split_wave(data: np.ndarray, members: np.ndarray, starts: np.ndarray,
                sizes: np.ndarray, rng: np.random.Generator,
                equal_size: bool) -> np.ndarray:
    """Bisect the nodes ``members[starts[i]:starts[i] + sizes[i]]`` in place.

    Every node's run is rewritten as its first group followed by its second
    group, each in its previous order; returns the sizes of the second groups.
    """
    slots = np.arange(sizes.max())
    valid = slots < sizes[:, None]
    # Padding slots read a neighbouring node's sample; ``valid`` keeps them
    # out of every sum and rank.
    position = np.minimum(starts[:, None] + slots, members.size - 1)
    ids = members[position]
    rows = data[ids]
    assignment, centroids = _bisect_lloyd(rows, valid, sizes, rng,
                                         BISECT_ITER)
    if equal_size:
        assignment = _equalize(rows, valid, sizes, centroids)
    # Stable partition of every run: first group, second group, padding.
    regroup = np.argsort(np.where(valid, assignment, 2).astype(np.int8),
                         axis=1, kind="stable")
    members[position[valid]] = np.take_along_axis(ids, regroup,
                                                  axis=1)[valid]
    return assignment.sum(axis=1)


def two_means_labels(data: np.ndarray, n_clusters: int, *, random_state=None,
                     equal_size: bool = True, metric: str = "sqeuclidean",
                     dtype=np.float64) -> np.ndarray:
    """Run Alg. 1 and return the cluster label of every sample.

    Parameters
    ----------
    data:
        ``(n, d)`` sample matrix.
    n_clusters:
        Number of leaves ``k`` to produce.
    random_state:
        Seed or generator.
    equal_size:
        Apply the equal-size adjustment (Alg. 1, line 9).  Disabling it turns
        the procedure into plain bisecting k-means by largest cluster and is
        exposed for the ablation benchmarks.
    metric, dtype:
        Distance engine configuration; cosine rows are normalised once up
        front.
    """
    engine = DistanceEngine(metric, dtype)
    data = check_data_matrix(data, min_samples=1, dtype=engine.dtype)
    data = engine.prepare_clustering(data)
    n = data.shape[0]
    n_clusters = check_positive_int(n_clusters, name="n_clusters", maximum=n)
    rng = check_random_state(random_state)

    # Every pending node is a contiguous run of ``members``; ``ranks`` is the
    # order the nodes were created in, which breaks size ties the way the
    # one-node-at-a-time priority queue did.
    members = np.arange(n, dtype=np.int64)
    starts = np.zeros(1, dtype=np.int64)
    sizes = np.full(1, n, dtype=np.int64)
    ranks = np.zeros(1, dtype=np.int64)
    node_labels = np.zeros(1, dtype=np.int64)
    while node_labels.size < n_clusters:
        # No child of this wave can outgrow ``largest_child``, so the queue
        # would pop every pending node at least that large before any child.
        largest = int(sizes.max())
        largest_child = (largest + 1) // 2 if equal_size else largest - 1
        wave = np.flatnonzero(sizes >= max(largest_child, 2))
        wave = wave[np.lexsort((ranks[wave], -sizes[wave]))]
        wave = wave[:min(n_clusters - node_labels.size,
                         max(WAVE_ROWS // largest, 1))]
        wave_starts, wave_sizes = starts[wave], sizes[wave]
        second = _split_wave(data, members, wave_starts, wave_sizes, rng,
                             equal_size)
        rest = np.ones(sizes.size, dtype=bool)
        rest[wave] = False
        born = ranks.max() + 1 + 2 * np.arange(wave.size)
        starts = np.concatenate([starts[rest], wave_starts,
                                 wave_starts + wave_sizes - second])
        sizes = np.concatenate([sizes[rest], wave_sizes - second, second])
        ranks = np.concatenate([ranks[rest], born, born + 1])
        node_labels = np.concatenate([
            node_labels[rest], node_labels[wave],
            node_labels.size + np.arange(wave.size)])

    labels = np.empty(n, dtype=np.int64)
    by_start = np.argsort(starts)
    labels[members] = np.repeat(node_labels[by_start], sizes[by_start])
    return labels


class TwoMeansTree(BaseClusterer):
    """Estimator wrapper around :func:`two_means_labels` (Alg. 1).

    Parameters
    ----------
    n_clusters:
        Number of clusters ``k``.
    equal_size:
        Whether to apply the equal-size adjustment.
    random_state:
        Seed or generator.
    """

    def __init__(self, n_clusters: int, *, equal_size: bool = True,
                 random_state=None, metric: str = "sqeuclidean",
                 dtype=np.float64) -> None:
        super().__init__(n_clusters, max_iter=1, random_state=random_state,
                         metric=metric, dtype=dtype)
        self.equal_size = equal_size

    def _fit(self, data: np.ndarray, n_clusters: int, max_iter: int,
             rng: np.random.Generator) -> ClusteringResult:
        start = time.perf_counter()
        # ``data`` is already transformed by the base class, so the tree runs
        # with the work engine's (squared-Euclidean) metric.
        labels = two_means_labels(
            data, n_clusters, random_state=rng, equal_size=self.equal_size,
            metric=self._work_engine.metric, dtype=self._work_engine.dtype)
        state = ClusterState(data, labels, n_clusters)
        elapsed = time.perf_counter() - start
        history = [IterationRecord(iteration=0, distortion=state.distortion,
                                   elapsed_seconds=elapsed, n_moves=0)]
        return ClusteringResult(
            labels=labels, centroids=state.centroids(),
            distortion=state.distortion, history=history, converged=True,
            init_seconds=elapsed, iteration_seconds=0.0,
            extra={"cluster_sizes": np.bincount(labels,
                                                minlength=n_clusters)})
