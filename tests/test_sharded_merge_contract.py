"""Contract of the sharded search's merge.

``Index.search`` merges its per-shard parts by concatenating one
``(m, width)`` block per shard in shard order and sorting once
(``repro.index.sharded._merge_parts``).  It must give bitwise the ids,
distances and evaluations of the scatter-merge it replaced
(``_sharded_merge_oracle.scatter_merge``), on full fan-outs and on routed
two-phase fan-outs alike: shards holding fewer than k live rows, rows
padded with ``(-1, inf)``, tied distances across shards, and float32 as
well as float64 parts.  A one-shard index's lone part is already sorted
and is returned as it is: the same values, in the walk's own dtypes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.index.sharded import _merge_parts
from repro.search import SearchResult

from _sharded_merge_oracle import scatter_merge


def shard_part(rng, n_rows, width, dtype, ties, short):
    """A shard's sorted top-``width`` for ``n_rows`` queries; a row stops
    short of ``width`` real entries with probability ``short`` and is
    padded with ``(-1, inf)`` like a walk's or a tombstone filter's."""
    if ties:
        dist = rng.integers(0, 3, size=(n_rows, width)).astype(dtype)
    else:
        dist = rng.random((n_rows, width)).astype(dtype)
    dist.sort(axis=1)
    ids = rng.integers(0, 10**6, size=(n_rows, width))
    real = np.where(rng.random(n_rows) < short,
                    rng.integers(0, width + 1, size=n_rows), width)
    padding = np.arange(width)[None, :] >= real[:, None]
    ids[padding], dist[padding] = -1, np.inf
    return SearchResult(ids, dist, rng.integers(0, 500, size=n_rows), None)


@st.composite
def fan_outs(draw):
    """``(landed, widths, m, n_results, routing_evaluations)`` of a random
    full or routed fan-out, as ``Index.search`` hands them over."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_shards = draw(st.integers(1, 4))
    m = draw(st.integers(1, 40))
    live = [draw(st.integers(1, 12)) for _ in range(n_shards)]
    n_results = min(draw(st.integers(1, 12)), sum(live))
    widths = [min(n_results, count) for count in live]
    probe = draw(st.integers(1, n_shards))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    ties, short = draw(st.booleans()), draw(st.sampled_from([0.0, 0.3, 1.0]))
    if probe == n_shards:
        phases = [[np.arange(m)] * n_shards]
    else:
        # Each query's probe nearest shards, nearest first: the nearest
        # shard's walks, then the other probed shards' walks.
        routes = np.argsort(rng.random((m, n_shards)), axis=1)[:, :probe]
        phases = [[np.flatnonzero(routes[:, 0] == shard)
                   for shard in range(n_shards)],
                  [np.flatnonzero((routes[:, 1:] == shard).any(axis=1))
                   for shard in range(n_shards)]]
    landed = [(shard, rows, shard_part(rng, rows.size, widths[shard], dtype,
                                       ties, short))
              for phase in phases for shard, rows in enumerate(phase)
              if rows.size]
    routing = n_shards if probe < n_shards else 0
    return landed, widths, m, n_results, routing


def assert_same_merge(case):
    ids, dist, evaluations = _merge_parts(*case)
    want_ids, want_dist, want_evaluations = scatter_merge(*case)
    if len(case[1]) == 1:
        (_, _, part), = case[0]
        assert ids is part.indices and dist is part.distances
        assert evaluations is part.evaluations
    else:
        assert ids.dtype == want_ids.dtype == np.int64
        assert dist.dtype == want_dist.dtype == np.float64
        assert evaluations.dtype == want_evaluations.dtype == np.int64
    assert np.array_equal(ids, want_ids)
    assert np.array_equal(dist, want_dist)
    assert np.array_equal(evaluations, want_evaluations)


class TestMergeMatchesTheScatterOracle:
    @settings(max_examples=400, deadline=None)
    @given(fan_outs())
    def test_random_fan_outs(self, case):
        assert_same_merge(case)

    def test_ties_keep_shard_then_rank_order(self):
        rows = np.arange(1)
        parts = [SearchResult(np.array([[shard * 10, shard * 10 + 1]]),
                              np.array([[1.0, 2.0]]), np.array([3]), None)
                 for shard in range(3)]
        case = ([(shard, rows, part) for shard, part in enumerate(parts)],
                [2, 2, 2], 1, 4, 0)
        assert_same_merge(case)
        ids, dist, evaluations = _merge_parts(*case)
        assert ids.tolist() == [[0, 10, 20, 1]]
        assert dist.tolist() == [[1.0, 1.0, 1.0, 2.0]]
        assert evaluations.tolist() == [9]

    def test_unprobed_shards_pad_short_rows(self):
        """Query 0 probes only shard 1, which holds one live row; its
        other columns are the ``(-1, inf)`` of the unprobed shard 0."""
        part = SearchResult(np.array([[7]]), np.array([[0.5]],
                                                      dtype=np.float32),
                            np.array([4]), None)
        case = ([(1, np.array([0]), part)], [3, 1], 2, 3, 2)
        assert_same_merge(case)
        ids, dist, evaluations = _merge_parts(*case)
        assert ids.tolist() == [[7, -1, -1], [-1, -1, -1]]
        assert dist[0, 0] == 0.5 and np.isinf(dist[:, 1:]).all()
        assert evaluations.tolist() == [6, 2]
