"""Contract of the batched NN-Descent build.

``NNDescent.build`` runs each local-join round as whole-array batches: one
gather of every point's candidate lists, one gemm per chunk of points, and
one merge of the round's offers at its end (``merge_offers``, the merge an
online insert's back-edges use).  The pair-at-a-time heap loop it replaced
lives in ``tests/_nndescent_oracle.py``; under one seed both start from the
same random graph, but they draw their subsamples differently, so they are
not bitwise equal.  What the batched build promises instead, over metric ×
dtype:

* **quality** — graph recall@κ at least the oracle's minus 0.01 after 1, 2,
  3 and 5 rounds (Fig. 4's KGraph budgets) and at convergence;
* **cost** — distance evaluations per point within ±10% of the oracle's at
  each of those budgets;
* **bookkeeping** — ``n_distance_evaluations_`` is exactly ``n * κ`` plus
  the pairs the joins score, recounted from the candidate lists of every
  round, and ``n_updates_[r]`` is the number of entries that entered a row
  in round ``r``;
* **degenerate inputs** — ``n = κ + 1``, duplicated rows and all-equal rows
  (ties everywhere), in either dtype, build valid graphs with no id twice
  in a row, bit-identical under one ``random_state``.
"""

import numpy as np
import pytest
from _nndescent_oracle import heap_nn_descent
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.distance import METRICS
from repro.graph import (NNDescent, brute_force_knn_graph, graph_recall,
                         nndescent)

DTYPES = [np.float32, np.float64]
N_NEIGHBORS = 10
SEED = 1
#: Fig. 4's NN-Descent budgets, then "until early termination".
BUDGETS = [1, 2, 3, 5, None]
CONVERGED = 50


@pytest.fixture(scope="module")
def data():
    """Gaussian 1000 × 16: the random start's recall@10 is near 0.01 and
    the build converges to 0.95–0.98 in six or seven rounds."""
    return np.random.default_rng(0).normal(size=(1000, 16))


@pytest.fixture(scope="module",
                params=[(m, d) for m in METRICS for d in DTYPES],
                ids=lambda p: f"{p[0]}-{p[1].__name__}")
def oracle(request, data):
    """(metric, dtype, exact graph, oracle graph per round, oracle
    evaluation count per round)."""
    metric, dtype = request.param
    truth = brute_force_knn_graph(data, N_NEIGHBORS, metric=metric,
                                  dtype=dtype)
    graphs, _, evaluations = heap_nn_descent(
        data, N_NEIGHBORS, max_iterations=CONVERGED, random_state=SEED,
        metric=metric, dtype=dtype)
    return metric, dtype, truth, graphs, evaluations


def _build(data, metric, dtype, max_iterations=CONVERGED, **kwargs):
    builder = NNDescent(n_neighbors=N_NEIGHBORS, max_iterations=max_iterations,
                        random_state=SEED, metric=metric, dtype=dtype,
                        **kwargs)
    return builder, builder.build(data)


@pytest.mark.parametrize("budget", BUDGETS,
                         ids=lambda b: "converged" if b is None else f"{b}")
def test_quality_and_cost_match_the_oracle(data, oracle, budget):
    metric, dtype, truth, graphs, evaluations = oracle
    builder, graph = _build(data, metric, dtype,
                            max_iterations=budget or CONVERGED)
    at = len(graphs) - 1 if budget is None else min(budget, len(graphs)) - 1
    assert graph_recall(graph, truth) >= graph_recall(graphs[at], truth) - 0.01
    ratio = builder.n_distance_evaluations_ / evaluations[at]
    assert 0.9 <= ratio <= 1.1


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("sample_rate", [1.0, 0.5])
def test_evaluations_are_the_scored_pairs(data, monkeypatch, metric,
                                          sample_rate):
    """Every round scores each point's new–new pairs once and its new–old
    pairs unless both sides are one point; nothing else is counted."""
    gathered = []
    candidates = nndescent._candidates

    def recording(*args):
        lists = candidates(*args)
        gathered.append(lists)
        return lists

    monkeypatch.setattr(nndescent, "_candidates", recording)
    builder, _ = _build(data, metric, np.float64, sample_rate=sample_rate)
    expected = len(data) * N_NEIGHBORS
    for new, old in gathered:
        n_new = (new >= 0).sum(axis=1)
        n_old = (old >= 0).sum(axis=1)
        both = ((new[:, :, None] == old[:, None, :])
                & (new >= 0)[:, :, None]).sum(axis=(1, 2))
        expected += int((n_new * (n_new - 1) // 2 + n_new * n_old
                         - both).sum())
    assert len(gathered) == len(builder.n_updates_)
    assert builder.n_distance_evaluations_ == expected


def test_updates_count_the_entries_each_round_brought_in(data):
    """A build stopped after ``r`` rounds is the first ``r`` rounds of a
    longer one, so consecutive budgets show what each round changed."""
    builder, _ = _build(data, "sqeuclidean", np.float64)
    previous = _build(data, "sqeuclidean", np.float64, max_iterations=1)[1]
    for r in range(1, len(builder.n_updates_)):
        graph = _build(data, "sqeuclidean", np.float64,
                       max_iterations=r + 1)[1]
        entered = sum(np.setdiff1d(row, before).size for row, before
                      in zip(graph.indices, previous.indices))
        assert entered == builder.n_updates_[r]
        previous = graph
    assert builder.n_updates_[-1] <= 0.001 * len(data) * N_NEIGHBORS


@settings(max_examples=60, deadline=None)
@given(n_neighbors=st.integers(1, 4), extra=st.integers(0, 5),
       kind=st.sampled_from(["duplicated", "all-equal", "random"]),
       metric=st.sampled_from(METRICS), dtype=st.sampled_from(DTYPES),
       seed=st.integers(0, 2**16))
@example(n_neighbors=4, extra=0, kind="all-equal", metric="sqeuclidean",
         dtype=np.float32, seed=0)
@example(n_neighbors=3, extra=0, kind="duplicated", metric="cosine",
         dtype=np.float32, seed=0)
def test_degenerate_inputs_build_valid_reproducible_graphs(
        n_neighbors, extra, kind, metric, dtype, seed):
    rng = np.random.default_rng(seed)
    n = n_neighbors + 1 + extra
    if kind == "all-equal":
        data = np.full((n, 3), 0.5)
    elif kind == "duplicated":
        data = rng.normal(size=(2, 3))[rng.integers(0, 2, size=n)]
    else:
        data = rng.normal(size=(n, 3))
    builds = []
    for _ in range(2):
        builder = NNDescent(n_neighbors=n_neighbors, random_state=seed,
                            metric=metric, dtype=dtype)
        graph = builder.build(data)
        graph.validate()
        for point, row in enumerate(graph.indices):
            assert np.unique(row).size == n_neighbors
            assert point not in row
        builds.append((graph, builder.n_updates_,
                       builder.n_distance_evaluations_))
    (a, updates_a, evals_a), (b, updates_b, evals_b) = builds
    assert np.array_equal(a.indices, b.indices)
    assert np.array_equal(a.distances, b.distances)
    assert updates_a == updates_b and evals_a == evals_b
