"""NN-Descent (KGraph) approximate k-NN graph construction.

Re-implementation of Dong, Moses & Li, *Efficient k-nearest neighbor graph
construction for generic similarity measures*, WWW 2011 — the "KGraph"
baseline the paper compares against ("KGraph+GK-means" runs and the recall
comparison in Table 2).

The algorithm starts from a random graph and repeatedly performs *local
joins*: for every point, pairs of its (new) neighbours and reverse neighbours
are compared and used to improve both neighbour lists, following the intuition
that "a neighbour of a neighbour is also likely to be a neighbour".

Each round is whole-array batches: one pass gathers every point's
candidate lists, one gemm joins each chunk of points, and the round ends
with one :func:`~repro.graph.repair.merge_offers` of every scored pair's
two offers — the merge an online insert's back-edges use.  A row keeps
the κ best of itself and its offers in any order, so a round leaves what
the heap loop it replaced (``tests/_nndescent_oracle.py``) would, up to
ties and random draws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..distance import DistanceEngine
from ..validation import (
    check_data_matrix,
    check_fraction,
    check_positive_int,
    check_random_state,
)
from .knngraph import KNNGraph
from .random_graph import random_knn_graph
from .repair import GATHER_ROWS, _ranks, merge_offers

__all__ = ["NNDescent", "nn_descent_knn_graph"]


@dataclass
class NNDescent:
    """NN-Descent graph builder.

    Parameters
    ----------
    n_neighbors:
        Width κ of the graph to build.
    max_iterations:
        Maximum number of local-join rounds.
    sample_rate:
        Fraction ρ of new neighbours sampled for the local join (the paper's
        implementation and KGraph both default to 1.0 for small κ; lowering it
        trades recall for speed).
    early_termination:
        Stop when the number of neighbour-list updates in a round drops below
        ``early_termination * n * n_neighbors``.
    random_state:
        Seed or generator.
    metric, dtype:
        Distance engine configuration — NN-Descent was designed for "generic
        similarity measures" and here supports ``sqeuclidean`` and ``cosine``
        in either float dtype.  Dataset norms are computed once and
        gathered into every local join.

    Attributes
    ----------
    n_updates_:
        Entry ``r`` counts the entries that entered a neighbour list in round
        ``r`` (diagnostic, useful to verify convergence).  A round's updates
        apply together at its end, not as its pairs are scored.
    n_distance_evaluations_:
        Total number of distance computations performed: ``n * κ`` for the
        random start plus every pair a local join scored.
    """

    n_neighbors: int = 10
    max_iterations: int = 10
    sample_rate: float = 1.0
    early_termination: float = 0.001
    random_state: object = None
    metric: str = "sqeuclidean"
    dtype: object = np.float64
    n_updates_: list = field(default_factory=list, init=False, repr=False)
    n_distance_evaluations_: int = field(default=0, init=False, repr=False)

    def build(self, data: np.ndarray) -> KNNGraph:
        """Construct the approximate k-NN graph of ``data``."""
        engine = DistanceEngine(self.metric, self.dtype)
        data = check_data_matrix(data, min_samples=2, dtype=engine.dtype)
        n = data.shape[0]
        n_neighbors = check_positive_int(self.n_neighbors, name="n_neighbors",
                                         maximum=n - 1)
        max_iterations = check_positive_int(self.max_iterations,
                                            name="max_iterations")
        sample_rate = check_fraction(self.sample_rate, name="sample_rate")
        rng = check_random_state(self.random_state)

        graph = random_knn_graph(data, n_neighbors, random_state=rng,
                                 engine=engine)
        norms = engine.norms(data)
        # "New" entries have not yet taken part in a local join.
        flags = np.ones(graph.indices.shape, dtype=bool)
        self.n_updates_ = []
        self.n_distance_evaluations_ = n * n_neighbors

        threshold = self.early_termination * n * n_neighbors
        for _ in range(max_iterations):
            new, old = _candidates(graph.indices, flags, sample_rate, rng)
            targets, ids, dists = self._local_join(engine, data, norms, new,
                                                   old, graph.distances)
            _, lost = merge_offers(graph.indices, graph.distances, targets,
                                   ids, dists, flags)
            self.n_updates_.append(int(lost.size))
            if lost.size <= threshold:
                break
        return graph

    def _local_join(self, engine: DistanceEngine, data: np.ndarray,
                    norms: np.ndarray, new: np.ndarray,
                    old: np.ndarray, distances: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Score every point's new–new and new–old candidate pairs.

        Returns the round's offers ``(targets, ids, dists)``: both
        directions of every scored pair that beats its target's κ-th
        distance, one per (target, id) at the distance it was first scored
        at.
        """
        n = new.shape[0]
        offers = []
        for start in range(0, n, GATHER_ROWS):
            chunk = slice(start, start + GATHER_ROWS)
            width = (new[chunk] >= 0).sum(axis=1).max()
            left = new[chunk, :width]
            cand = np.concatenate(
                (left, old[chunk, :(old[chunk] >= 0).sum(axis=1).max()]),
                axis=1)
            a, b = np.maximum(left, 0), np.maximum(cand, 0)
            block = engine.from_inner(
                np.matmul(data[a], data[b].transpose(0, 2, 1)),
                norms[a][:, :, None], norms[b][:, None, :])
            # The pairs the join scores: new–new once (a < b), new–old
            # unless both sides are the same point.
            column = np.arange(cand.shape[1])
            scored = np.where(column < width,
                              column > np.arange(width)[:, None],
                              left[:, :, None] != cand[:, None, :])
            scored &= (left >= 0)[:, :, None] & (cand >= 0)[:, None, :]
            lane, row, col = scored.nonzero()
            self.n_distance_evaluations_ += lane.size
            u, v = left[lane, row], cand[lane, col]
            dist = block[lane, row, col].astype(np.float64)
            targets, ids = np.concatenate((u, v)), np.concatenate((v, u))
            dists = np.concatenate((dist, dist))
            # Offers that cannot enter are dropped here, which keeps the
            # round's buffer small; the merge drops the rest.
            keep = dists < distances[targets, -1]
            offers.append((targets[keep], ids[keep], dists[keep]))
        targets, ids, dists = (np.concatenate(part) for part in zip(*offers))
        keys, first = np.unique(targets * n + ids, return_index=True)
        return keys // n, keys % n, dists[first]


def _candidates(indices: np.ndarray, flags: np.ndarray, sample_rate: float,
                rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Every point's new and old candidate lists for one local join.

    A point's candidates are its neighbours and reverse neighbours, split
    by the entry's "new" flag; a new entry takes part with probability
    ``sample_rate`` and is then flagged old.  A seeded subsample caps each
    list at ``2 * max(κ, 2)`` ids, so a popular point cannot make the round
    quadratic (KGraph's reverse-sample limit).  Returns two ``(n, cap)``
    arrays of ascending ids, ``-1`` padded.
    """
    n, n_neighbors = indices.shape
    cap = 2 * max(n_neighbors, 2)
    new = flags.copy()
    if sample_rate < 1.0:
        new &= rng.random(flags.shape) < sample_rate
    old = ~flags
    flags &= ~new
    owners = np.repeat(np.arange(n), n_neighbors).reshape(indices.shape)
    lists = []
    for mask in (new, old):
        # Forward and reverse edges as ``owner * n + id`` keys, deduped.
        keys = np.sort(np.concatenate((owners[mask] * n + indices[mask],
                                       indices[mask] * n + owners[mask])))
        keys = keys[np.diff(keys, prepend=-1) != 0]
        if keys.size and _ranks(keys // n).max() >= cap:
            # A random rank within each owner's run; keep the first ``cap``.
            order = np.lexsort((rng.random(keys.size), keys // n))
            keys = np.sort(keys[order[_ranks(keys[order] // n) < cap]])
        padded = np.full((n, cap), -1, dtype=np.int64)
        padded[keys // n, _ranks(keys // n)] = keys % n
        lists.append(padded)
    return lists[0], lists[1]


def nn_descent_knn_graph(data: np.ndarray, n_neighbors: int, *,
                         max_iterations: int = 10, sample_rate: float = 1.0,
                         random_state=None, metric: str = "sqeuclidean",
                         dtype=np.float64) -> KNNGraph:
    """Convenience wrapper building a graph with :class:`NNDescent`."""
    builder = NNDescent(n_neighbors=n_neighbors, max_iterations=max_iterations,
                        sample_rate=sample_rate, random_state=random_state,
                        metric=metric, dtype=dtype)
    return builder.build(data)
