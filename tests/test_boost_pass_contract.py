"""Contract of the blocked Alg. 2 sweep (``graph_guided_boost_pass``).

Alg. 2 as printed visits one sample at a time and applies its best move at
once.  The implementation evaluates a block of samples against one snapshot,
applies the movers that share no cluster, and re-evaluates the rest.  The
printed loop lives here as :func:`sequential_reference_pass` — the oracle —
and the tests pin what the two must share: a monotone objective, no emptied
cluster, the same fixed points, the same result where no movers interact (or
the block holds one sample), comparable quality after a few sweeps, the same
evaluation count and the same use of the random stream.

A round scores only the distinct non-own (sample, cluster) pairs; the dense
round it replaced (``dense_move_best_block`` of ``tests/_round_oracle.py``)
must make the same moves through a whole graph build and fit.
"""

import numpy as np
import pytest
from _round_oracle import dense_move_best_block
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import GKMeans, gkmeans
from repro.cluster.gkmeans import graph_guided_boost_pass
from repro.cluster.objective import ClusterState
from repro.cluster.two_means_tree import two_means_labels
from repro.datasets import make_blobs
from repro.distance import DistanceCounter
from repro.graph import brute_force_knn_graph, build_knn_graph_by_clustering


def sequential_reference_pass(state, neighbor_indices, rng, *,
                              protect_singletons=True, counter=None):
    """Alg. 2's sweep, one sample and one immediate move at a time."""
    moves = 0
    for sample in map(int, rng.permutation(neighbor_indices.shape[0])):
        current = int(state.labels[sample])
        if protect_singletons and state.counts[current] <= 1:
            continue
        row = neighbor_indices[sample]
        candidates = np.unique(np.append(state.labels[row[row >= 0]], current))
        if counter is not None:
            counter.add(candidates.size)
        deltas = state.delta_objective(sample, candidates)
        best = int(np.argmax(deltas))
        if deltas[best] > 0.0:
            state.move(sample, int(candidates[best]))
            moves += 1
    return moves


def sweep_to_fixed_point(sweep, state, neighbor_indices, *, limit=500, **kw):
    """Run ``sweep`` until it makes no move; fail if it never settles."""
    for round_index in range(limit):
        if sweep(state, neighbor_indices, np.random.default_rng(round_index),
                 **kw) == 0:
            return
    pytest.fail(f"no fixed point within {limit} sweeps")


def distinct_candidate_total(labels, counts, neighbor_indices, *,
                             protect_singletons=True):
    """Σ over visited samples of their distinct candidate clusters."""
    total = 0
    for sample, row in enumerate(neighbor_indices):
        if protect_singletons and counts[labels[sample]] <= 1:
            continue
        total += len({int(labels[sample]), *labels[row[row >= 0]].tolist()})
    return total


@pytest.fixture(scope="module", params=["sift_small", "blob_data"])
def dataset(request, sift_small, sift_small_graph, blob_data):
    """(float64 data, exact 10-NN indices, k, two-means start).

    The two-means start is what GK-means sweeps from and settles within a
    few dozen moves; the tests that want many interacting movers start from
    :func:`scrambled` labels instead.
    """
    if request.param == "sift_small":
        data, indices = sift_small, sift_small_graph.indices
    else:
        data = blob_data[0]
        indices = brute_force_knn_graph(data, 10).indices
    n_clusters = 15
    return data, indices, n_clusters, two_means_labels(data, n_clusters,
                                                       random_state=0)


def scrambled(labels, n_clusters):
    """A uniformly random labelling of the same samples."""
    return np.random.default_rng(0).integers(0, n_clusters, size=labels.size)


class TestAgainstSequentialReference:
    @pytest.mark.parametrize("protect", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_objective_monotone_state_consistent_no_cluster_emptied(
            self, dataset, dtype, protect):
        data, indices, k, labels = dataset
        state = ClusterState(data.astype(dtype), scrambled(labels, k), k)
        for sweep in range(4):
            before = state.objective
            graph_guided_boost_pass(state, indices,
                                    np.random.default_rng(sweep),
                                    protect_singletons=protect)
            assert state.objective >= before - 1e-9 * abs(before)
            assert state.check_consistency()
            if protect:
                assert (state.counts > 0).all()

    @pytest.mark.parametrize("protect", [True, False])
    def test_fixed_points_agree(self, dataset, protect):
        data, indices, k, labels = dataset
        labels = scrambled(labels, k)
        for settle, probe in [
                (graph_guided_boost_pass, sequential_reference_pass),
                (sequential_reference_pass, graph_guided_boost_pass)]:
            state = ClusterState(data, labels, k)
            sweep_to_fixed_point(settle, state, indices,
                                 protect_singletons=protect)
            settled = state.labels.copy()
            assert probe(state, indices, np.random.default_rng(99),
                         protect_singletons=protect) == 0
            assert np.array_equal(state.labels, settled)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_five_sweeps_land_within_one_percent(self, dataset, dtype):
        data, indices, k, labels = dataset
        data = data.astype(dtype)
        blocked = ClusterState(data, labels, k)
        sequential = ClusterState(data, labels, k)
        for sweep in range(5):
            graph_guided_boost_pass(blocked, indices,
                                    np.random.default_rng(sweep))
            sequential_reference_pass(sequential, indices,
                                      np.random.default_rng(sweep))
        assert blocked.distortion <= 1.01 * sequential.distortion
        assert blocked.distortion < ClusterState(data, labels, k).distortion

    def test_block_of_one_is_the_sequential_sweep(self, dataset, monkeypatch):
        data, indices, k, labels = dataset
        monkeypatch.setattr(gkmeans, "BLOCK", 1)
        labels = scrambled(labels, k)
        blocked = ClusterState(data, labels, k)
        sequential = ClusterState(data, labels, k)
        for sweep in range(3):
            moved = graph_guided_boost_pass(blocked, indices,
                                            np.random.default_rng(sweep))
            assert moved == sequential_reference_pass(
                sequential, indices, np.random.default_rng(sweep))
            assert np.array_equal(blocked.labels, sequential.labels)
        assert not np.array_equal(blocked.labels, labels)

    def test_movers_that_share_no_cluster_match_bitwise(self):
        # Eight far-apart blobs, correctly labelled except that one point of
        # blob 2j sits in cluster 2j+1: four movers, four disjoint
        # (source, target) pairs, nothing else wants to move.
        data, truth = make_blobs(240, 6, 8, cluster_std=0.3, center_box=40.0,
                                 random_state=3)
        indices = brute_force_knn_graph(data, 8).indices
        labels = truth.copy()
        strays = [int(np.flatnonzero(truth == 2 * j)[0]) for j in range(4)]
        labels[strays] = [2 * j + 1 for j in range(4)]

        blocked = ClusterState(data, labels, 8)
        sequential = ClusterState(data, labels, 8)
        assert graph_guided_boost_pass(
            blocked, indices, np.random.default_rng(0)) == 4
        assert sequential_reference_pass(
            sequential, indices, np.random.default_rng(0)) == 4
        assert np.array_equal(blocked.labels, truth)
        assert np.array_equal(blocked.labels, sequential.labels)
        assert np.array_equal(blocked.counts, sequential.counts)
        assert np.array_equal(blocked.composites, sequential.composites)

    def test_two_member_cluster_keeps_one_member(self):
        # Cluster 2 is {p, q}: p belongs with the points around 0, q with
        # the points around 10, and both sit in the same block.  Each move
        # alone is a gain; taking both would empty the cluster.
        low = np.linspace(-0.5, 0.5, 6)
        high = np.linspace(9.5, 10.5, 6)
        data = np.concatenate([low, high, [0.1, 9.9]])[:, None]
        labels = np.array([0] * 6 + [1] * 6 + [2, 2])
        indices = brute_force_knn_graph(data, 3).indices
        state = ClusterState(data, labels, 3)
        assert state.delta_objective(12, np.array([0]))[0] > 0
        assert state.delta_objective(13, np.array([1]))[0] > 0
        # With the guard off the second mover is still held back: it is
        # re-scored after the first left, and leaving a singleton never pays.
        for protect in (True, False):
            state = ClusterState(data, labels, 3)
            assert graph_guided_boost_pass(
                state, indices, np.random.default_rng(0),
                protect_singletons=protect) == 1
            assert state.counts.tolist() in ([7, 6, 1], [6, 7, 1])
            reference = ClusterState(data, labels, 3)
            sequential_reference_pass(reference, indices,
                                      np.random.default_rng(0),
                                      protect_singletons=protect)
            assert reference.counts.min() >= 1


class TestEvaluationCountAndRandomStream:
    @pytest.mark.parametrize("n_clusters", [15, 150])
    def test_evaluations_bounded_by_kappa_not_k(self, sift_small,
                                                sift_small_graph, n_clusters):
        labels = two_means_labels(sift_small, n_clusters, random_state=0)
        state = ClusterState(sift_small, labels, n_clusters)
        n, kappa = sift_small_graph.indices.shape
        for sweep in range(3):
            counter = DistanceCounter()
            graph_guided_boost_pass(state, sift_small_graph.indices,
                                    np.random.default_rng(sweep),
                                    counter=counter)
            assert n <= counter.count <= n * (kappa + 1)

    @pytest.mark.parametrize("protect", [True, False])
    def test_count_is_the_distinct_candidates_of_visited_samples(
            self, dataset, protect):
        # On a fixed point no label changes during the sweep, so the sum is
        # computable from the labelling alone — for both implementations.
        data, indices, k, labels = dataset
        state = ClusterState(data, scrambled(labels, k), k)
        sweep_to_fixed_point(graph_guided_boost_pass, state, indices,
                             protect_singletons=protect)
        expected = distinct_candidate_total(state.labels, state.counts,
                                            indices,
                                            protect_singletons=protect)
        for sweep in (graph_guided_boost_pass, sequential_reference_pass):
            counter = DistanceCounter()
            sweep(state, indices, np.random.default_rng(0),
                  protect_singletons=protect, counter=counter)
            assert counter.count == expected

    def test_same_seed_same_labels_one_permutation_consumed(self, dataset):
        data, indices, k, labels = dataset
        outcomes = []
        for _ in range(2):
            state = ClusterState(data, labels, k)
            rng = np.random.default_rng(42)
            graph_guided_boost_pass(state, indices, rng)
            outcomes.append(state.labels.copy())
            reference = np.random.default_rng(42)
            reference.permutation(len(data))
            assert rng.bit_generator.state == reference.bit_generator.state
        assert np.array_equal(*outcomes)


class TestDenseRoundEndToEnd:
    """Graph ids / distances and GK-means labels equal the dense round's."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("metric", ["sqeuclidean", "cosine"])
    @pytest.mark.parametrize("bisection", ["lloyd", "boost"])
    def test_build_and_fit_match_the_dense_round(self, sift_small, bisection,
                                                 metric, dtype, monkeypatch):
        def build_and_fit():
            built = build_knn_graph_by_clustering(
                sift_small, 10, tau=3, cluster_size=30, bisection=bisection,
                random_state=0, metric=metric, dtype=dtype)
            model = GKMeans(40, n_neighbors=10, graph=built.graph,
                            bisection=bisection, max_iter=5, random_state=0,
                            metric=metric, dtype=dtype).fit(sift_small)
            return built, model

        built, model = build_and_fit()
        monkeypatch.setattr(ClusterState, "move_best_block",
                            dense_move_best_block)
        oracle_built, oracle_model = build_and_fit()
        assert np.array_equal(built.graph.indices, oracle_built.graph.indices)
        assert np.array_equal(built.graph.distances,
                              oracle_built.graph.distances)
        assert built.n_distance_evaluations == \
            oracle_built.n_distance_evaluations
        assert np.array_equal(model.labels_, oracle_model.labels_)
        moves = [record.n_moves for record in model.history_]
        assert moves == [record.n_moves for record in oracle_model.history_]
        assert moves[0] > 0
        assert model.result_.extra["n_distance_evaluations"] == \
            oracle_model.result_.extra["n_distance_evaluations"]


@st.composite
def small_problems(draw):
    """Random data, a random graph with ``-1`` padding, a random labelling."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(4, 60))
    d = draw(st.integers(1, 4))
    k = draw(st.integers(2, 6))
    kappa = draw(st.integers(1, 5))
    data = rng.normal(size=(n, d))
    indices = rng.integers(0, n - 1, size=(n, kappa))
    indices[indices >= np.arange(n)[:, None]] += 1          # no self-loops
    indices[rng.random((n, kappa)) < draw(st.floats(0.0, 0.6))] = -1
    return data, indices, rng.integers(0, k, size=n), k


class TestProperty:
    @settings(max_examples=60, deadline=None)
    @given(small_problems(), st.booleans())
    def test_contract_on_small_random_problems(self, problem, protect):
        data, indices, labels, k = problem
        state = ClusterState(data, labels, k)
        occupied = state.counts > 0

        # One block holds every sample here, so the whole sweep is scored
        # against the initial labelling and the count is known up front.
        assert len(data) <= gkmeans.BLOCK
        expected = distinct_candidate_total(state.labels, state.counts,
                                            indices,
                                            protect_singletons=protect)
        counter = DistanceCounter()
        before = state.objective
        rng = np.random.default_rng(7)
        graph_guided_boost_pass(state, indices, rng,
                                protect_singletons=protect, counter=counter)
        assert counter.count == expected
        assert state.objective >= before - 1e-9 * abs(before)
        assert state.check_consistency()
        if protect:
            assert (state.counts[occupied] > 0).all()

        again = ClusterState(data, labels, k)
        graph_guided_boost_pass(again, indices, np.random.default_rng(7),
                                protect_singletons=protect)
        assert np.array_equal(again.labels, state.labels)

        sweep_to_fixed_point(graph_guided_boost_pass, state, indices,
                             protect_singletons=protect)
        assert sequential_reference_pass(
            state, indices, np.random.default_rng(1),
            protect_singletons=protect) == 0
        other = ClusterState(data, labels, k)
        sweep_to_fixed_point(sequential_reference_pass, other, indices,
                             protect_singletons=protect)
        assert graph_guided_boost_pass(
            other, indices, np.random.default_rng(1),
            protect_singletons=protect) == 0
