"""Generated inputs at every search entry: a typed error or a full answer.

No input from a caller or from the network may do worse than raise a
:class:`~repro.exceptions.ReproError`.  This harness draws query batches —
finite, NaN, ±inf, overflow-range, subnormal, integer-typed,
non-contiguous, one vector, 0-row and wrong-dimension — and sends each to
every search entry: ``Index.search`` on the thread and the remote
executor, ``GraphSearcher.batch_query`` and ``query``, and a shard daemon
through ``ShardClient.search``.  Each call either raises a ``ReproError``
or returns, in every row, ``min(n_results, live rows)`` real ids: distinct
live ids at finite, ascending distances, padded with ``(-1, inf)``.  A
refused input raises no warning on its way to the error.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError
from repro.graph import brute_force_knn_graph
from repro.index import Index, IndexSpec, ShardSearchTask
from repro.net import ShardClient, ShardServer
from repro.search import GraphSearcher

N, D = 160, 6
DELETED = np.array([3, 40, 41, 97])
KINDS = ("finite", "nan", "posinf", "neginf", "overflow", "subnormal",
         "integer", "noncontiguous", "vector", "empty", "wrong-dimension")
#: Row scales on both sides of the float32 and float64 range gates.
SCALES = (1e17, 1e19, 1e21, 1e150, 1e153, 1e155, 1e200)
CONFIGS = [("sqeuclidean", "float64", "none"), ("cosine", "float32", "none"),
           ("sqeuclidean", "float64", "int8")]


@st.composite
def query_batches(draw, kind: str):
    """A batch of ``kind``, as a caller might send one."""
    m = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    batch = rng.normal(size=(m, D))
    row, col = draw(st.integers(0, m - 1)), draw(st.integers(0, D - 1))
    if kind == "nan":
        batch[row, col] = np.nan
    elif kind in ("posinf", "neginf"):
        batch[row, col] = np.inf if kind == "posinf" else -np.inf
    elif kind == "overflow":
        batch[row] *= draw(st.sampled_from(SCALES))
    elif kind == "subnormal":
        batch[row] *= 1e-310
    elif kind == "integer":
        batch = rng.integers(-9, 9, size=(m, D))
    elif kind == "noncontiguous":
        batch = draw(st.sampled_from([np.asfortranarray(batch),
                                      np.repeat(batch, 2, axis=1)[:, ::2]]))
    elif kind == "vector":
        batch = batch[row]
    elif kind == "empty":
        batch = batch[:0]
    elif kind == "wrong-dimension":
        batch = rng.normal(size=(m, D + draw(st.sampled_from([-1, 1]))))
    return batch


@pytest.fixture(scope="module", params=CONFIGS,
                ids=["-".join(config) for config in CONFIGS])
def served(request):
    """An index with tombstones (two shards, each behind a daemon) and a
    searcher over the same rows."""
    metric, dtype, quantize = request.param
    rng = np.random.default_rng(14)
    base = rng.normal(size=(N, D)) + rng.integers(0, 4, size=(N, 1)) * 3.0
    spec = IndexSpec(backend="bruteforce", n_neighbors=8, metric=metric,
                     dtype=dtype, quantize=quantize, n_shards=2,
                     random_state=2)
    index = Index.build(base, spec)
    index.delete(DELETED)
    searcher = GraphSearcher(base, brute_force_knn_graph(
        base, 8, metric=metric), metric=metric, dtype=dtype,
        quantize=quantize, random_state=2)
    servers = [ShardServer(shard, shard_id=at)
               for at, shard in enumerate(index.shards)]
    for server in servers:
        server.start()
    index.endpoints = [server.endpoint for server in servers]
    client = ShardClient(servers[0].endpoint, connect_timeout=2.0,
                         read_timeout=10.0, retries=1, backoff_seconds=0.01)
    live = np.setdiff1d(np.arange(N), DELETED)
    first = index.shards[0]
    yield {"index": index, "searcher": searcher, "client": client,
           "live": live, "shard_live": first.ids[first.live_mask]}
    client.close()
    index.close()
    searcher.close()
    for server in servers:
        server.close()


def _meets_contract(result, n_results: int, live: np.ndarray) -> None:
    """Every row: ``min(n_results, live rows)`` distinct live ids at
    finite ascending distances, then ``(-1, inf)`` padding."""
    indices = np.atleast_2d(result.indices)
    distances = np.atleast_2d(result.distances)
    want = min(n_results, live.size)
    for ids, dists in zip(indices, distances):
        assert ids.shape == (n_results,)
        real = ids[:want]
        assert np.isin(real, live).all(), ids
        assert np.unique(real).size == want, ids
        assert np.isfinite(dists[:want]).all(), dists
        assert (np.diff(dists[:want]) >= 0).all(), dists
        assert (ids[want:] == -1).all() and np.isinf(dists[want:]).all()


def _call(entry: str, served: dict, batch, n_results: int):
    """Send ``batch`` to ``entry``; returns ``(result, live ids)``."""
    if entry == "daemon":
        task = ShardSearchTask(shard=0, queries=batch, shard_k=n_results)
        return served["client"].search(task), served["shard_live"]
    if entry in ("batch_query", "query"):
        searcher = served["searcher"]
        method = getattr(searcher, entry)
        return method(batch, n_results), np.arange(N)
    return (served["index"].search(batch, n_results, executor=entry),
            served["live"])


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("entry", ["thread", "remote", "batch_query",
                                   "query", "daemon"])
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), n_results=st.integers(1, 12))
def test_a_search_raises_a_typed_error_or_answers_in_full(served, entry,
                                                         kind, data,
                                                         n_results):
    batch = data.draw(query_batches(kind))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, live = _call(entry, served, batch, n_results)
        except ReproError:
            # A refused input is refused by the error alone: no numpy
            # warning (an overflowing cast, say) may escape before it.
            assert not caught, [str(warning.message) for warning in caught]
            return
    assert kind not in ("nan", "posinf", "neginf", "empty",
                        "wrong-dimension"), kind
    _meets_contract(result, n_results, live)
