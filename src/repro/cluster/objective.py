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
distinct (sample, cluster) pairs that are real moves and applied in order,
each move re-scored on the state the earlier ones leave
(``delta_objective_pairs`` / ``move_block``, one round of both in
``move_best_block``), which the graph-guided sweep of
:class:`~repro.cluster.gkmeans.GKMeans` (candidates = clusters of the κ graph
neighbours) consumes.  The state also versions its clusters and stamps its
samples (``versions`` / ``stamps``), so the graph-guided sweep can tell
which samples nothing has changed for since they were last scored.
"""

from __future__ import annotations

import numpy as np

from ..distance import squared_norms
from ..exceptions import ValidationError
from ..validation import check_data_matrix, check_labels, check_positive_int

__all__ = ["BLOCK", "ClusterState", "boost_objective", "cluster_sums"]

#: Samples per block of a blocked boost sweep.  Big enough to amortise the
#: interpreter cost of a round, small enough that a sample's "stay" decision
#: is at most one block stale.  Larger blocks are faster: a whole
#: ``GKMeans.fit`` at k = 1000 on 10000 × 64 float32, κ = 20 (median CPU ms
#: of six interleaved fits, seeds 7 / 9 / 11) takes 171 / 168 / 208 at 256,
#: 159 / 151 / 181 at 512 and 143 / 149 / 159 at 1024, its distortion
#: 0.0001–0.0004 higher.  256 stays for two reasons: any other value
#: changes which moves apply, and the staleness contract
#: (``tests/test_boost_pass_contract.py``) bounds a sweep's missed drop by
#: ε = BLOCK / n on data of n >= 2 · BLOCK rows from 600 up, so a larger
#: block fails that assert or loosens the bound.
BLOCK = 256

#: Columns summed per ``bincount`` by :func:`cluster_sums`.  The
#: ``(n, COLUMNS)`` cell index and weight copy are the only temporaries —
#: an eighth of a 64-d float64 dataset each.  16 columns per call are ~15%
#: faster for twice the temporaries, 4 are ~25% slower.
COLUMNS = 8


def cluster_sums(data: np.ndarray, labels: np.ndarray,
                 n_clusters: int) -> np.ndarray:
    """``(n_clusters, d)`` float64 sums of the rows of each cluster.

    The rows of a cluster are added up in sample order in float64, as
    ``np.add.at(sums, labels, data)`` would, but by one weighted ``bincount``
    over (cluster, column) cells per ``COLUMNS`` columns — the scatter-add's
    element-at-a-time inner loop is the slow part, and a float32 ``data`` is
    upcast a column block at a time, never as a whole.  Clusters without
    members get a zero row.  ``labels`` must lie in ``[0, n_clusters)``.
    """
    sums = np.empty((n_clusters, data.shape[1]))
    for first in range(0, data.shape[1], COLUMNS):
        block = data[:, first:first + COLUMNS]
        width = block.shape[1]
        cells = labels[:, None] * width + np.arange(width)
        sums[:, first:first + width] = np.bincount(
            cells.ravel(), weights=block.ravel(),
            minlength=n_clusters * width).reshape(-1, width)
    return sums


def boost_objective(data: np.ndarray, labels: np.ndarray,
                    n_clusters: int) -> float:
    """Evaluate the boost k-means objective ``I`` (Eqn. 2) from scratch."""
    state = ClusterState(data, labels, n_clusters)
    return state.objective


class ClusterState:
    """Incrementally maintained composite-vector representation of a clustering.

    Parameters
    ----------
    data:
        ``(n, d)`` sample matrix.  A reference is kept (not copied): a
        float32 or float64 matrix keeps its dtype, and the ΔI arithmetic
        upcasts the rows it reads to float64.
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
    tick:
        0 until the graph-guided sweep has run once since the last
        :meth:`recompute`; from then on, 1 plus the rounds it has stamped.
        Moves made at tick 0 precede every stamp, so they are not versioned.
    versions:
        ``(k,)`` tick at which an applied move last touched each cluster.
    stamps:
        ``(n,)`` tick at which each sample was last scored (0: never).  A
        sample whose own and candidate clusters all have a version below
        its stamp would be scored on exactly the state it was scored on.
    widths:
        ``(n,)`` distinct clusters each sample was last scored against —
        what Alg. 2 counts for it when a sweep skips re-scoring it.
    """

    def __init__(self, data: np.ndarray, labels: np.ndarray,
                 n_clusters: int) -> None:
        self._data = check_data_matrix(data, dtype=None)
        n = self._data.shape[0]
        self.n_clusters = check_positive_int(n_clusters, name="n_clusters")
        self.labels = check_labels(labels, n).copy()
        if self.labels.size and self.labels.max() >= self.n_clusters:
            raise ValidationError(
                f"labels refer to cluster {self.labels.max()} but only "
                f"{self.n_clusters} clusters exist")

        self._sample_sq_norms = squared_norms(self._data)
        self._total_sq_norm = float(self._sample_sq_norms.sum())
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
                  candidates: np.ndarray) -> tuple[int, float]:
        """Best candidate cluster and its ΔI for one sample.

        ``candidates`` are cluster ids and may include the sample's own
        cluster.  The last member of a cluster never moves (its ΔI is
        reported as 0), so no cluster is ever emptied.
        """
        source = int(self.labels[sample_index])
        if self.counts[source] <= 1:
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
        if self.tick:
            self.versions[source] = self.versions[target] = self.tick

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

    def move_block(self, samples: np.ndarray, targets: np.ndarray,
                   gains: np.ndarray | None = None) -> np.ndarray:
        """Apply a batch of moves in order, each on the state the earlier
        ones leave behind; say which were applied.

        Move ``i`` takes ``samples[i]`` (distinct samples) from its cluster
        ``u`` to ``targets[i]`` = ``v``.  Its ΔI is recomputed on the
        ``(D, n, ‖D‖²)`` of ``u`` and ``v`` just before its turn, and it is
        applied iff ``u ≠ v``, the recomputed ΔI is positive and ``u`` keeps
        another member at its turn — unless no earlier move names ``u``,
        which is then as the caller scored it.  A move that fails is held
        back, and so is every later move naming a cluster a held-back move
        named, transitively — so every applied move has exactly the gain
        computed for it, and the result is that of applying the moves one at
        a time with :meth:`move` (``tests/_round_oracle.py`` holds that
        loop).  Returns the boolean mask of applied moves.

        ``gains[i]``, if given, is the ΔI move ``i`` was scored at on the
        current state.  A move that is the first to name both its clusters
        sees that state, so it is judged on ``gains[i]`` instead of the
        recomputed value: the first move of a batch with a positive gain is
        always applied, and repeating the call on the held-back rest
        terminates whatever the two computations round to.

        Move ``i`` leaves its source as event ``i`` and joins its target as
        event ``m + i``.  One stable sort groups the events by cluster, in
        move order within one (a "run"), and scans over each run give every
        event's state; a run's values depend on its own events only.  Once the
        state has been swept (``tick`` > 0), every cluster an applied move
        touched gets the current ``tick`` as its version.
        """
        samples = np.asarray(samples, dtype=np.int64)
        targets = np.asarray(targets, dtype=np.int64)
        m = samples.size
        if not m:
            return np.zeros(0, dtype=bool)
        sources = self.labels[samples]
        named = np.concatenate([sources, targets])
        x = self._data[samples].astype(np.float64, copy=False)
        x_sq = self._sample_sq_norms[samples]
        events = np.arange(2 * m)
        order = np.argsort(named * m + events % m, kind="stable")
        # From here on the events are in run order.
        cluster, mover = named[order], order % m
        step = np.where(order < m, -1, 1)
        rows = np.concatenate([-x, x])[order]
        opens = np.empty(2 * m, dtype=bool)
        opens[0] = True
        np.not_equal(cluster[1:], cluster[:-1], out=opens[1:])
        start = np.maximum.accumulate(events * opens)
        back = events - start

        # D just before each event: a run's inclusive scan of [the snapshot
        # D, the rows of its events but the last], by doubling (⌈log₂⌉ of
        # the longest run in steps).  An opener reads the snapshot as is.
        composite = self.composites[cluster]
        later = np.flatnonzero(back)
        composite[later] = rows[later - 1]
        shift = 1
        while later.size:
            later = later[back[later] >= shift]
            composite[later] += composite[later - shift]
            shift *= 2

        # ∓D·x (a leave's ``D·x`` is the negated product, bitwise), and
        # ‖D‖² (stored for an opener) and n before and after each event, as
        # :meth:`move` grows them.
        signed_dot = np.einsum("ed,ed->e", composite, rows)
        sq = np.where(opens, self._composite_sq_norms[cluster],
                      np.einsum("ed,ed->e", composite, composite))
        grown_sq = sq + 2.0 * signed_dot + x_sq[mover]
        before = np.cumsum(step) - step
        count = self.counts[cluster] + (before - before[start])
        grown = count + step
        # Each event's Eqn. 2 term after minus before; an empty cluster's
        # term is 0 (its composite, and so ‖D‖², is zero).
        term = np.where(grown > 0, grown_sq / np.maximum(grown, 1),
                        0.0) - sq / np.maximum(count, 1)

        # Per move, summed over its two events in run order: ΔI (leave term
        # plus join term, as scored), and whether its source keeps a member
        # (a join always keeps one).
        gain = np.bincount(mover, weights=term, minlength=m)
        if gains is not None:
            fresh = np.bincount(mover, weights=opens, minlength=m) == 2.0
            gain[fresh] = gains[fresh]
        keeps = np.bincount(mover, weights=(grown > 0) | opens, minlength=m)
        fails = (sources == targets) | (gain <= 0.0) | (keeps < 2.0)
        # Until nothing changes, hold back every move with an event after a
        # held-back event of the same cluster.
        held = fails
        while held.any():
            last = np.maximum.accumulate(np.where(held[mover], events, -1))
            poisoned = last[:-1] >= start[1:]
            spread = fails.copy()
            spread[mover[1:][poisoned]] = True
            if np.array_equal(spread, held):
                break
            held = spread
        applied = ~held

        # A run's applied events precede its held-back ones; the last of
        # them leaves its cluster's new state.
        final = applied[mover]
        final[:-1] &= opens[1:] | ~final[1:]
        runs = cluster[final]
        self.composites[runs] = composite[final] + rows[final]
        self._composite_sq_norms[runs] = grown_sq[final]
        self.counts[runs] = grown[final]
        if self.tick:
            self.versions[runs] = self.tick
        self.labels[samples[applied]] = targets[applied]
        return applied

    def move_best_block(self, samples: np.ndarray,
                        candidates: np.ndarray) -> tuple[np.ndarray, int]:
        """Give every sample its best positive-ΔI move; apply what still gains.

        One round of a blocked boost sweep: ``samples[b]`` is scored against
        ``candidates[b, :]`` on the current state (ties go to the first
        candidate), the samples with a positive best gain become movers, and
        they are applied in order while each gain holds (:meth:`move_block`).
        Returns the held-back movers — to be scored again on the updated
        state — and the number of moves applied.

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
        best = np.argmax(gains.reshape(candidates.shape), axis=1)
        chosen = np.arange(samples.size) * width + best
        movers = np.flatnonzero(gains[chosen] > 0.0)
        chosen = chosen[movers]
        samples, targets, gains = samples[movers], flat[chosen], gains[chosen]
        applied = self.move_block(samples, targets, gains)
        return samples[~applied], int(np.count_nonzero(applied))

    # ------------------------------------------------------------------ #
    # Consistency helpers (used by tests and after bulk label edits)
    # ------------------------------------------------------------------ #
    def recompute(self) -> None:
        """Rebuild composites/counts/norms from the current labels
        (composites by :func:`cluster_sums`) and forget every score: after a
        bulk label edit no sample's last score describes the state."""
        self.composites = cluster_sums(self._data, self.labels,
                                       self.n_clusters)
        self.counts = np.bincount(self.labels,
                                  minlength=self.n_clusters).astype(np.int64)
        self._composite_sq_norms = squared_norms(self.composites)
        self.tick = 0
        self.versions = np.zeros(self.n_clusters, dtype=np.int64)
        self.stamps = np.zeros(self.labels.size, dtype=np.int64)
        self.widths = np.zeros(self.labels.size, dtype=np.int64)

    def check_consistency(self, *, atol: float = 1e-6) -> bool:
        """Verify the incremental state matches a from-scratch recomputation."""
        composites = np.zeros_like(self.composites)
        np.add.at(composites, self.labels, self._data)
        counts = np.bincount(self.labels, minlength=self.n_clusters)
        return (np.allclose(composites, self.composites, atol=atol)
                and np.array_equal(counts, self.counts)
                and np.allclose(squared_norms(composites),
                                self._composite_sq_norms, atol=atol))
