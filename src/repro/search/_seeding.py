"""Entry-point seeding for the graph walk: the index's own clusters.

A k-NN graph over strongly clustered data is close to a union of
per-cluster components, so where a walk enters decides whether it finds the
query's neighbours at all.  The paper's Fig. 1 premise — a sample's k-NN
share its cluster — says where to enter: inside the query's nearest cluster.
Every searcher therefore carries a **seed partition**, one cluster label per
row (the last Alg. 3 round's two-means-tree labels for the ``gkmeans``
backend, one :func:`~repro.cluster.two_means_tree.two_means_labels` call for
the others), from which it derives the cluster means and member lists once.

Seeding a batch is the coarse-quantizer entry step of IVF search:

1. every query is scored against the ``c`` non-empty cluster means in one
   ``(m, c)`` block (:func:`nearest_centroids`, shared with the sharded
   index's router) and probes its nearest cluster, ties to the lower
   cluster;
2. only that cluster's members are scored, through the walk's own scorer
   (exact or compressed), each query against its own members;
3. the query starts from its ``n_starts`` nearest members.

A query's seeds are therefore a function of the query and the partition
alone — never of the batch around it, the group bound, the worker count or
a random draw — and each query is charged exactly its ``c`` centroids and
its cluster's members.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from ..distance import DistanceEngine
from ..distance.kernels import stable_smallest

__all__ = ["SeedPartition", "Seeds", "default_seed_labels",
           "nearest_centroids", "seed_entry_points"]

#: Queries whose probed members are gathered and scored in one block: caps
#: the ``(rows, width, d)`` gather at a few MB whatever the batch size.
SEED_ROWS = 256


def nearest_centroids(engine: DistanceEngine, queries: np.ndarray,
                      centroids: np.ndarray, count: int,
                      centroid_norms: np.ndarray | None = None) -> np.ndarray:
    """``(m, count)`` column ids of each query's nearest ``centroids``,
    nearest first, ties to the lower centroid id.

    ``engine`` is the serving engine; the queries are scored in its
    clustering space (l2-normalised rows for cosine), where ``centroids``
    must live, in one block.  ``centroid_norms`` are the centroids' norms
    in that space, when the caller keeps them.
    """
    scores = engine.clustering_engine().cross(
        engine.prepare_clustering(queries), centroids,
        b_norms=centroid_norms)
    if count == 1:
        # The first minimum: the stable order's head, without the partition.
        return scores.argmin(axis=1)[:, None]
    return stable_smallest(scores, count)


def default_seed_labels(data: np.ndarray, metric: str, dtype,
                        random_state) -> np.ndarray:
    """The seed partition of an index whose backend leaves none: one
    two-means tree of about 50 rows per cluster, in the clustering space
    of ``metric``."""
    from ..cluster.two_means_tree import two_means_labels

    n = data.shape[0]
    return two_means_labels(data, min(n, max(2, n // 50)),
                            random_state=random_state,
                            metric=metric, dtype=dtype)


class SeedPartition:
    """A seed partition and what seeding derives from it.

    Parameters
    ----------
    data:
        ``(n, d)`` indexed rows, in the engine dtype.
    labels:
        ``(n,)`` integer cluster label of every row, each in ``[0, n)``;
        labels no row carries are empty clusters and are never probed.
    metric, dtype:
        The serving engine's configuration; the means live in the
        clustering space of ``metric``.

    Attributes
    ----------
    labels:
        The ``(n,)`` int64 labels.
    clusters:
        ``(c,)`` labels of the non-empty clusters, ascending; row ``j`` of
        :attr:`centroids` is cluster ``clusters[j]``'s mean.
    centroids:
        ``(c, d)`` means, accumulated in float64, in the engine dtype.
    members, starts, sizes:
        Cluster ``clusters[j]`` is ``members[starts[j]:starts[j] +
        sizes[j]]``, ascending row ids.
    width, slots:
        The largest cluster's size, and ``arange(width)``: every query's
        members are scored at this padded width, so the block shape never
        depends on the batch.
    """

    def __init__(self, data: np.ndarray, labels: np.ndarray, metric: str,
                 dtype) -> None:
        self.engine = DistanceEngine(metric, dtype)
        self.labels = np.asarray(labels, dtype=np.int64)
        self.members = np.argsort(self.labels, kind="stable")
        counts = np.bincount(self.labels)
        self.clusters = np.flatnonzero(counts)
        self.sizes = counts[self.clusters]
        self.starts = (np.cumsum(counts) - counts)[self.clusters]
        self.width = int(self.sizes.max())
        self.slots = np.arange(self.width)
        rows = self.engine.prepare_clustering(data)[self.members]
        sums = np.add.reduceat(rows, self.starts, axis=0, dtype=np.float64)
        self.centroids = np.ascontiguousarray(
            sums / self.sizes[:, None], dtype=self.engine.dtype)

    @cached_property
    def centroid_norms(self) -> np.ndarray | None:
        """The means' norms in the clustering space, computed on first use
        and kept for every later query's nearest-centroid block."""
        return self.engine.clustering_engine().norms(self.centroids)

    @classmethod
    def cluster(cls, data: np.ndarray, metric: str, dtype,
                random_state) -> "SeedPartition":
        """The partition of :func:`default_seed_labels` over ``data``."""
        return cls(data, default_seed_labels(data, metric, dtype,
                                             random_state), metric, dtype)


class Seeds(NamedTuple):
    """Entry points of a batch, one row per query.

    ``ids``/``dists`` are ``(m, n_starts)``, ascending by the scorer's
    distance, earlier member first among equals, padded ``-1``/``inf``
    where the probed cluster holds fewer than ``n_starts`` rows;
    ``evaluations`` is each query's seeding cost (centroids plus members)
    and ``clusters`` the label of the cluster it probed.
    """

    ids: np.ndarray
    dists: np.ndarray
    evaluations: np.ndarray
    clusters: np.ndarray


def seed_entry_points(partition: SeedPartition, queries: np.ndarray,
                      score, n_starts: int) -> Seeds:
    """Seed every query from the members of its nearest cluster.

    ``queries`` are the batch's ``(m, d)`` rows in the engine dtype;
    ``score`` is the walk's scorer (see :mod:`repro.search._walk`), called
    with a slice of batch rows and a 2-D id block, so each query scores only
    its own members.
    """
    m = queries.shape[0]
    nearest = nearest_centroids(partition.engine, queries,
                                partition.centroids, 1,
                                partition.centroid_norms)[:, 0]
    first, sizes = partition.starts[nearest], partition.sizes[nearest]
    slots = partition.slots
    count = min(n_starts, partition.width)
    ids = np.full((m, n_starts), -1, dtype=np.int64)
    dists = None
    for start in range(0, m, SEED_ROWS):
        rows = slice(start, start + SEED_ROWS)
        # Short clusters repeat their last member; those slots score inf.
        valid = slots < sizes[rows, None]
        members = partition.members[
            first[rows, None] + np.minimum(slots, sizes[rows, None] - 1)]
        block = score(rows, members)
        block[~valid] = np.inf
        keep = stable_smallest(block, count)
        if dists is None:
            dists = np.full((m, n_starts), np.inf, dtype=block.dtype)
        lanes = np.arange(block.shape[0])[:, None]
        picked = valid[lanes, keep]
        ids[rows, :count] = np.where(picked, members[lanes, keep], -1)
        dists[rows, :count] = block[lanes, keep]
    evaluations = partition.clusters.size + sizes
    return Seeds(ids, dists, evaluations, partition.clusters[nearest])
