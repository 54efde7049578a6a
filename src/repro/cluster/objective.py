"""Composite-vector cluster state and the boost k-means objective.

Boost k-means (Zhao et al.) rewrites the k-means distortion (Eqn. 1 of the
paper) into the equivalent maximisation of

.. math::

    I = \\sum_{r=1}^{k} \\frac{D_r^\\top D_r}{n_r},

where :math:`D_r = \\sum_{x_i \\in S_r} x_i` is the *composite vector* of
cluster ``r`` and :math:`n_r` its size (Eqn. 2).  Because

.. math::

    \\sum_r \\sum_{x \\in S_r} \\lVert x - C_r \\rVert^2
        = \\sum_i \\lVert x_i \\rVert^2 - I,

maximising ``I`` minimises the distortion, and the distortion can be tracked
in O(1) per move once ``I`` is maintained incrementally.

:class:`ClusterState` maintains exactly this state — composite vectors,
cluster sizes, squared norms — and exposes the move gain ΔI of Eqn. 3 for an
arbitrary candidate set in two forms of the same formula: one sample at a
time (``delta_objective`` / ``move``), which
:class:`~repro.cluster.boost.BoostKMeans` (candidates = all clusters)
consumes, and a block of samples against one snapshot, scored only on the
distinct (sample, cluster) pairs that are real moves
(``delta_objective_pairs`` / ``move_block``, one round of both in
``move_best_block``), which the graph-guided sweep of
:class:`~repro.cluster.gkmeans.GKMeans` (candidates = clusters of the κ graph
neighbours) and the boost bisection of the two-means tree (candidates = the
two halves of the sample's node) consume.
"""

from __future__ import annotations

import numpy as np

from ..distance import assign_to_nearest, squared_norms
from ..exceptions import ValidationError
from ..validation import check_data_matrix, check_labels, check_positive_int

__all__ = ["BLOCK", "ClusterState", "boost_objective",
           "distortion_from_labels"]

#: Samples per block of a blocked boost sweep.  Big enough to amortise the
#: interpreter cost of a round, small enough that a sample's "stay" decision
#: is at most one block stale.  One sweep over 10000 × 64 float32, κ = 20
#: (median ms, first / late sweep): k = 200 — 35 / 3.1 at 128, 31 / 2.4 at
#: 256, 31 / 2.2 at 512; k = 1000 — 27 / 9.6 at 128, 25 / 8.5 at 256,
#: 25 / 9.5 at 512.  A different value also changes which moves apply.
BLOCK = 256

#: Columns summed per ``bincount`` when composites are built from scratch.
#: The ``(n, COLUMNS)`` cell index and weight copy are the only temporaries —
#: an eighth of a 64-d float64 dataset each.  16 columns per call are ~15%
#: faster for twice the temporaries, 4 are ~25% slower.
COLUMNS = 8


def boost_objective(data: np.ndarray, labels: np.ndarray,
                    n_clusters: int) -> float:
    """Evaluate the boost k-means objective ``I`` (Eqn. 2) from scratch."""
    state = ClusterState(data, labels, n_clusters)
    return state.objective


def distortion_from_labels(data: np.ndarray, labels: np.ndarray,
                           n_clusters: int | None = None) -> float:
    """Average distortion (Eqn. 4) of a labelling, recomputed exactly.

    Every sample contributes the squared distance to the centroid of the
    cluster it is assigned to; the result is the mean over samples.
    """
    data = check_data_matrix(data)
    labels = check_labels(labels, data.shape[0])
    if n_clusters is None:
        n_clusters = int(labels.max()) + 1 if labels.size else 0
    state = ClusterState(data, labels, n_clusters)
    return state.distortion


class ClusterState:
    """Incrementally maintained composite-vector representation of a clustering.

    Parameters
    ----------
    data:
        ``(n, d)`` sample matrix.  A reference is kept (not copied).
    labels:
        Initial assignment of every sample to a cluster in ``[0, n_clusters)``.
    n_clusters:
        Number of clusters ``k``.

    Attributes
    ----------
    labels:
        Current assignment (int64, owned by the state — mutated by
        :meth:`move` and :meth:`move_block`).
    composites:
        ``(k, d)`` matrix of composite vectors :math:`D_r`.
    counts:
        ``(k,)`` cluster sizes :math:`n_r`.
    """

    def __init__(self, data: np.ndarray, labels: np.ndarray,
                 n_clusters: int) -> None:
        self._data = check_data_matrix(data)
        n = self._data.shape[0]
        self.n_clusters = check_positive_int(n_clusters, name="n_clusters")
        self.labels = check_labels(labels, n).copy()
        if self.labels.size and self.labels.max() >= self.n_clusters:
            raise ValidationError(
                f"labels refer to cluster {self.labels.max()} but only "
                f"{self.n_clusters} clusters exist")

        self._sample_sq_norms = squared_norms(self._data)
        self._total_sq_norm = float(self._sample_sq_norms.sum())

        self.composites = np.empty((self.n_clusters, self._data.shape[1]),
                                   dtype=np.float64)
        self.recompute()

    # ------------------------------------------------------------------ #
    # Objective and distortion
    # ------------------------------------------------------------------ #
    @property
    def objective(self) -> float:
        """Current value of the boost objective ``I`` (Eqn. 2)."""
        nonempty = self.counts > 0
        return float(np.sum(self._composite_sq_norms[nonempty]
                            / self.counts[nonempty]))

    @property
    def distortion(self) -> float:
        """Average distortion (Eqn. 4): ``(sum ||x||^2 - I) / n``."""
        n = self._data.shape[0]
        return (self._total_sq_norm - self.objective) / n

    @property
    def inertia(self) -> float:
        """Total within-cluster sum of squared distances (Eqn. 1)."""
        return self._total_sq_norm - self.objective

    # ------------------------------------------------------------------ #
    # Derived quantities
    # ------------------------------------------------------------------ #
    def centroids(self) -> np.ndarray:
        """Cluster centroids ``D_r / n_r``; empty clusters yield zero rows."""
        safe_counts = np.maximum(self.counts, 1)
        return self.composites / safe_counts[:, None]

    def cluster_members(self, cluster: int) -> np.ndarray:
        """Indices of the samples currently assigned to ``cluster``."""
        return np.nonzero(self.labels == cluster)[0]

    # ------------------------------------------------------------------ #
    # Incremental moves (Eqn. 3)
    # ------------------------------------------------------------------ #
    def delta_objective(self, sample_index: int,
                        candidates: np.ndarray) -> np.ndarray:
        """ΔI of moving one sample to each candidate cluster (Eqn. 3).

        Candidates equal to the sample's current cluster get ΔI = 0 (a no-op
        move); candidates that would receive the sample as a new member get the
        full Eqn. 3 value.  Moving the last member out of a singleton cluster
        is scored as if the source cluster simply disappears (its term drops to
        zero), matching the objective's definition over non-empty clusters.
        """
        candidates = np.asarray(candidates, dtype=np.int64)
        x = self._data[sample_index]
        x_sq = self._sample_sq_norms[sample_index]
        source = int(self.labels[sample_index])

        source_count = self.counts[source]
        source_sq = self._composite_sq_norms[source]
        if source_count > 1:
            removed_sq = (source_sq
                          - 2.0 * float(self.composites[source] @ x) + x_sq)
            source_term = removed_sq / (source_count - 1) - source_sq / source_count
        else:
            # The source cluster becomes empty; its contribution vanishes.
            source_term = -source_sq / source_count

        cand_counts = self.counts[candidates].astype(np.float64)
        cand_sq = self._composite_sq_norms[candidates]
        cand_dot = self.composites[candidates] @ x
        grown_sq = cand_sq + 2.0 * cand_dot + x_sq
        with np.errstate(divide="ignore", invalid="ignore"):
            target_term = grown_sq / (cand_counts + 1.0) - np.where(
                cand_counts > 0, cand_sq / np.maximum(cand_counts, 1.0), 0.0)
        deltas = target_term + source_term
        deltas[candidates == source] = 0.0
        return deltas

    def best_move(self, sample_index: int,
                  candidates: np.ndarray,
                  *, allow_empty_source: bool = False) -> tuple[int, float]:
        """Best candidate cluster and its ΔI for one sample.

        Parameters
        ----------
        sample_index:
            The sample being considered.
        candidates:
            Candidate cluster ids (may include the current cluster).
        allow_empty_source:
            If false (default) and the sample is the last member of its
            cluster, the move is suppressed (ΔI reported as 0) so the number
            of non-empty clusters never drops below ``k``.
        """
        source = int(self.labels[sample_index])
        if not allow_empty_source and self.counts[source] <= 1:
            return source, 0.0
        deltas = self.delta_objective(sample_index, candidates)
        best = int(np.argmax(deltas))
        return int(candidates[best]), float(deltas[best])

    def move(self, sample_index: int, target: int) -> None:
        """Move one sample to ``target``, updating all incremental state."""
        source = int(self.labels[sample_index])
        if target == source:
            return
        x = self._data[sample_index]
        x_sq = self._sample_sq_norms[sample_index]

        self._composite_sq_norms[source] += (
            -2.0 * float(self.composites[source] @ x) + x_sq)
        self.composites[source] -= x
        self.counts[source] -= 1

        self._composite_sq_norms[target] += (
            2.0 * float(self.composites[target] @ x) + x_sq)
        self.composites[target] += x
        self.counts[target] += 1

        self.labels[sample_index] = target

    # ------------------------------------------------------------------ #
    # Block moves (Eqn. 3 for many samples against one snapshot)
    # ------------------------------------------------------------------ #
    def delta_objective_pairs(self, samples: np.ndarray, rows: np.ndarray,
                              targets: np.ndarray) -> np.ndarray:
        """ΔI of moving ``samples[rows[p]]`` to ``targets[p]`` (Eqn. 3).

        The pair counterpart of :meth:`delta_objective`: every pair is scored
        against the current state as if its sample were the only one moving,
        with one source term per sample and one ``einsum`` over the pairs, so
        the cost is ``O((b + P)·d)`` for ``P`` pairs whatever the cluster
        count.  A target must differ from its sample's own cluster — staying
        is worth 0 by definition, and the formula does not produce it.
        """
        x = self._data[samples].astype(np.float64, copy=False)
        x_sq = self._sample_sq_norms[samples]
        source = self.labels[samples]

        source_count = self.counts[source].astype(np.float64)
        source_sq = self._composite_sq_norms[source]
        removed_sq = (source_sq - 2.0 * np.einsum(
            "bd,bd->b", self.composites[source], x) + x_sq)
        # A singleton source becomes empty; its contribution vanishes.
        source_term = np.where(
            source_count > 1.0,
            removed_sq / np.maximum(source_count - 1.0, 1.0), 0.0
        ) - source_sq / source_count

        cand_counts = self.counts[targets].astype(np.float64)
        cand_sq = self._composite_sq_norms[targets]
        cand_dot = np.einsum("pd,pd->p", x[rows], self.composites[targets])
        grown_sq = cand_sq + 2.0 * cand_dot + x_sq[rows]
        # An empty candidate cluster has a zero composite, so cand_sq is 0.
        return (grown_sq / (cand_counts + 1.0)
                - cand_sq / np.maximum(cand_counts, 1.0)
                + source_term[rows])

    def move_block(self, samples: np.ndarray,
                   targets: np.ndarray) -> np.ndarray:
        """Apply the conflict-free subset of a batch of moves; say which.

        Move ``i`` takes ``samples[i]`` to ``targets[i]``.  It is applied iff
        neither its source nor its target cluster is named (as source or
        target) by an earlier move of the batch, so the applied moves touch
        pairwise distinct clusters: each one sees exactly the
        ``(D_u, n_u, D_v, n_v)`` its ΔI was computed from, and the bulk
        update below equals applying them one at a time with :meth:`move`.
        Returns the boolean mask of applied moves.  The first move of a batch
        is always applied, so repeating the call on the rest terminates; the
        exception is a "move" to the sample's own cluster, which names that
        cluster twice and is never applied.
        """
        samples = np.asarray(samples, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        sources = self.labels[samples]
        move_ids = np.arange(samples.size)
        touched = np.concatenate([sources, targets])
        # The earliest move naming each cluster (``samples.size``: none).
        first = np.full(self.n_clusters, samples.size, dtype=np.int64)
        np.minimum.at(first, touched, np.concatenate([move_ids, move_ids]))
        applied = ((first[sources] == move_ids) & (first[targets] == move_ids)
                   & (sources != targets))

        # One signed update of the ``[sources | targets]`` rows: no index
        # repeats, and ``D + (−x)`` is bitwise ``D − x``.
        samples = samples[applied]
        touched = touched[np.concatenate([applied, applied])]
        x = self._data[samples].astype(np.float64, copy=False)
        signed = np.concatenate([-x, x])
        gathered = self.composites[touched]
        self._composite_sq_norms[touched] += np.concatenate(
            [self._sample_sq_norms[samples]] * 2) + 2.0 * np.einsum(
                "bd,bd->b", gathered, signed)
        self.composites[touched] = gathered + signed
        self.counts[touched] += np.repeat([-1, 1], samples.size)
        self.labels[samples] = targets[applied]
        return applied

    def move_best_block(self, samples: np.ndarray,
                        candidates: np.ndarray) -> tuple[np.ndarray, int]:
        """Give every sample its best positive-ΔI move; apply what fits.

        One round of a blocked boost sweep: ``samples[b]`` is scored against
        ``candidates[b, :]`` on the current state (ties go to the first
        candidate), the samples with a positive best gain become movers and
        :meth:`move_block` applies the conflict-free ones.  Returns the
        conflicted movers — to be scored again on the updated state — and
        the number of moves applied.

        Only the pairs that can move are scored: entries naming the sample's
        own cluster, and entries repeating their left neighbour (in a sorted
        row every duplicate does), keep a gain of 0 in the ``(b, c)`` matrix
        the arg-best reads.  A 0 never beats a positive gain, and a kept
        entry precedes its duplicates, so the arg-best is the first maximum
        of the fully scored row.
        """
        # Flat comparisons (a row-wise ``[:, 1:]`` slice is several times
        # slower); every row start is a fresh entry whatever precedes it.
        width = candidates.shape[1]
        flat = candidates.ravel()
        fresh = np.empty(flat.size, dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=fresh[1:])
        fresh[::width] = True
        pairs = np.flatnonzero(
            fresh & (flat != np.repeat(self.labels[samples], width)))
        # Late in a fit most blocks have no pair, or no pair that gains.
        if not pairs.size:
            return samples[:0], 0
        deltas = self.delta_objective_pairs(samples, pairs // width,
                                            flat[pairs])
        if not (deltas > 0.0).any():
            return samples[:0], 0
        gains = np.zeros(flat.size)
        gains[pairs] = deltas
        gains = gains.reshape(candidates.shape)
        best = np.argmax(gains, axis=1)
        movers = np.flatnonzero(gains[np.arange(samples.size), best] > 0.0)
        samples = samples[movers]
        applied = self.move_block(samples, flat[movers * width + best[movers]])
        return samples[~applied], int(np.count_nonzero(applied))

    # ------------------------------------------------------------------ #
    # Consistency helpers (used by tests and after bulk label edits)
    # ------------------------------------------------------------------ #
    def recompute(self) -> None:
        """Rebuild composites/counts/norms from the current labels.

        The rows of a cluster are added up in sample order in float64, as
        ``np.add.at(composites, labels, data)`` would, but by one weighted
        ``bincount`` over (cluster, column) cells per ``COLUMNS`` columns —
        the scatter-add's element-at-a-time inner loop is the slow part.
        Clusters without members keep a zero composite.
        """
        for first in range(0, self._data.shape[1], COLUMNS):
            block = self._data[:, first:first + COLUMNS]
            width = block.shape[1]
            cells = self.labels[:, None] * width + np.arange(width)
            self.composites[:, first:first + width] = np.bincount(
                cells.ravel(), weights=block.ravel(),
                minlength=self.n_clusters * width).reshape(-1, width)
        self.counts = np.bincount(self.labels,
                                  minlength=self.n_clusters).astype(np.int64)
        self._composite_sq_norms = squared_norms(self.composites)

    def check_consistency(self, *, atol: float = 1e-6) -> bool:
        """Verify the incremental state matches a from-scratch recomputation."""
        composites = np.zeros_like(self.composites)
        np.add.at(composites, self.labels, self._data)
        counts = np.bincount(self.labels, minlength=self.n_clusters)
        return (np.allclose(composites, self.composites, atol=atol)
                and np.array_equal(counts, self.counts)
                and np.allclose(squared_norms(composites),
                                self._composite_sq_norms, atol=atol))

    # ------------------------------------------------------------------ #
    # Interop with batch (Lloyd-style) algorithms
    # ------------------------------------------------------------------ #
    def reassign_all_to_nearest(self) -> int:
        """One Lloyd pass: assign all samples to the nearest current centroid.

        Returns the number of samples whose label changed; the incremental
        state is rebuilt afterwards.
        """
        centroids = self.centroids()
        new_labels, _ = assign_to_nearest(self._data, centroids)
        changed = int(np.sum(new_labels != self.labels))
        self.labels = new_labels
        self.recompute()
        return changed
