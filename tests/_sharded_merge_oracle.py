"""Oracle for the merge of a sharded search.

``Index.search`` lands each shard's part as an ``(m, width)``
block, concatenates the blocks in shard order and sorts once
(``repro.index.sharded._merge_parts``).  The merge it replaced scattered
every part into one buffer at per-(query, shard) column offsets — each
query's probed shards packed left in shard order, ``(-1, inf)`` after
them — and sorted that; it lives here as ``scatter_merge`` and must give
the same ids, distances and evaluations bitwise.
``tests/test_sharded_merge_contract.py`` compares the two.
"""

import numpy as np


def scatter_merge(landed, widths, m, n_results, routing_evaluations):
    """``(ids, distances, evaluations)`` of the parts ``landed`` —
    ``(shard, rows, part)`` triples as ``_merge_parts`` takes them —
    merged through the offset buffer."""
    widths = np.asarray(widths, dtype=np.int64)
    probed_mask = np.zeros((m, widths.size), dtype=bool)
    for shard, rows, _ in landed:
        probed_mask[rows, shard] = True
    # Query q's candidates from shard s start where the widths of q's
    # probed shards with smaller ids end.
    contrib = probed_mask * widths[None, :]
    ends = np.cumsum(contrib, axis=1)
    starts_at = ends - contrib
    buffer_width = max(int(ends[:, -1].max()), n_results)
    all_ids = np.full((m, buffer_width), -1, dtype=np.int64)
    all_dist = np.full((m, buffer_width), np.inf, dtype=np.float64)
    evaluations = np.full(m, routing_evaluations, dtype=np.int64)
    for shard, rows, part in landed:
        cols = starts_at[rows, shard][:, None] + \
            np.arange(widths[shard])[None, :]
        all_ids[rows[:, None], cols] = part.indices
        all_dist[rows[:, None], cols] = part.distances
        evaluations[rows] += part.evaluations
    order = np.argsort(all_dist, axis=1, kind="stable")[:, :n_results]
    return (np.take_along_axis(all_ids, order, axis=1),
            np.take_along_axis(all_dist, order, axis=1), evaluations)
