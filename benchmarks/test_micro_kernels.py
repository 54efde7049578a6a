"""Micro-benchmarks of the hot kernels (repeated-measurement mode).

These are conventional pytest-benchmark measurements of the primitives every
algorithm is built from; they are useful for tracking performance regressions
of the library itself, independent of the paper's experiments.
"""

import numpy as np
import pytest

from repro.cluster.gkmeans import graph_guided_boost_pass
from repro.cluster.objective import ClusterState
from repro.cluster.two_means_tree import two_means_labels
from repro.datasets import make_sift_like
from repro.distance import DistanceEngine
from repro.graph import brute_force_knn_graph


@pytest.fixture(scope="module")
def micro_data():
    return make_sift_like(2000, 32, random_state=0)


def test_micro_cross_distances(benchmark, micro_data):
    centroids = micro_data[:200]
    result = benchmark(DistanceEngine().cross, micro_data, centroids)
    assert result.shape == (2000, 200)


def test_micro_assignment(benchmark, micro_data):
    centroids = micro_data[:200]
    labels, _ = benchmark(DistanceEngine().assign_to_nearest, micro_data,
                          centroids)
    assert labels.shape == (2000,)


def test_micro_brute_force_graph(benchmark, micro_data):
    graph = benchmark.pedantic(brute_force_knn_graph, args=(micro_data, 10),
                               rounds=3, iterations=1)
    assert graph.n_neighbors == 10


def test_micro_two_means_tree(benchmark, micro_data):
    labels = benchmark.pedantic(two_means_labels, args=(micro_data, 40),
                                kwargs={"random_state": 0}, rounds=3,
                                iterations=1)
    assert len(np.unique(labels)) == 40


def test_micro_boost_pass_with_graph(benchmark, micro_data):
    graph = brute_force_knn_graph(micro_data, 10)
    labels = two_means_labels(micro_data, 40, random_state=0)

    def one_pass():
        state = ClusterState(micro_data, labels, 40)
        return graph_guided_boost_pass(state, graph.indices,
                                       np.random.default_rng(0))

    moves = benchmark.pedantic(one_pass, rounds=3, iterations=1)
    assert moves > 0
