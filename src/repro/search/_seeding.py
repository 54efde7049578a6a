"""Entry-point seeding for the graph walk.

A k-NN graph over strongly clustered data is close to a union of
per-cluster components, so spending a few dozen extra distance evaluations
on entry-point selection is what keeps a greedy walk out of the wrong
cluster.  One random sample is drawn for the whole batch and scored against
*all* queries in a single block — for the small per-query work of graph-ANN
search that seed scoring is a significant fraction of the distance
evaluations, so batching it is a real win — and each query then starts from
the closest few sample points.
"""

from __future__ import annotations

import numpy as np

__all__ = ["seed_entry_points"]


def seed_entry_points(n_points: int, n_queries: int,
                      seed_sample: int | None, n_starts: int,
                      rng: np.random.Generator, score
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Draw one entry-point sample and score it for all queries in one block.

    ``score`` is the walk's scorer (see :mod:`repro.search._walk`).  Returns
    ``(sample, seed_block)``: the sampled dataset rows and the
    ``(n_queries, |sample|)`` distance block.  ``seed_sample=None`` uses the
    default ``max(32, 8 * n_starts)``; the sample never exceeds the dataset.
    """
    if seed_sample is None:
        seed_sample = max(32, 8 * n_starts)
    sample = rng.choice(n_points, size=min(seed_sample, n_points),
                        replace=False)
    return sample, score(np.arange(n_queries), sample)
