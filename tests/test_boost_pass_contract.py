"""Contract of the blocked Alg. 2 sweep (``graph_guided_boost_pass``).

Alg. 2 as printed visits one sample at a time and applies its best move at
once.  The implementation evaluates a block of samples against one snapshot,
applies the movers in order, each on the state the earlier ones leave, while
its gain holds, and re-evaluates the rest.  The printed loop lives here as
:func:`sequential_reference_pass` — the oracle — and the tests pin what the
two must share: a monotone objective, no emptied cluster, the same fixed
points, the same result where no movers interact (or the block holds one
sample), comparable quality after a few sweeps, the same evaluation count and
the same use of the random stream.

A round scores only the distinct non-own (sample, cluster) pairs; the dense
round (``dense_move_best_block`` of ``tests/_round_oracle.py``) must make the
same moves through a whole graph build and fit.
"""

import numpy as np
import pytest
from _round_oracle import dense_move_best_block
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import GKMeans, gkmeans
from repro.cluster.gkmeans import graph_guided_boost_pass
from repro.cluster.initialization import random_balanced_labels
from repro.cluster.objective import ClusterState
from repro.cluster.two_means_tree import two_means_labels
from repro.datasets import make_blobs, make_sift_like
from repro.distance import DistanceCounter
from repro.graph import brute_force_knn_graph, build_knn_graph_by_clustering


def sequential_reference_pass(state, neighbor_indices, rng, *, counter=None):
    """Alg. 2's sweep, one sample and one immediate move at a time."""
    moves = 0
    for sample in map(int, rng.permutation(neighbor_indices.shape[0])):
        current = int(state.labels[sample])
        if state.counts[current] <= 1:
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


def sweep_to_fixed_point(sweep, state, neighbor_indices, *, limit=500):
    """Run ``sweep`` until it makes no move; fail if it never settles."""
    for round_index in range(limit):
        if sweep(state, neighbor_indices,
                 np.random.default_rng(round_index)) == 0:
            return
    pytest.fail(f"no fixed point within {limit} sweeps")


def distinct_candidate_total(labels, counts, neighbor_indices):
    """Σ over visited samples of their distinct candidate clusters."""
    total = 0
    for sample, row in enumerate(neighbor_indices):
        if counts[labels[sample]] <= 1:
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
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_objective_monotone_state_consistent_no_cluster_emptied(
            self, dataset, dtype):
        data, indices, k, labels = dataset
        state = ClusterState(data.astype(dtype), scrambled(labels, k), k)
        for sweep in range(4):
            before = state.objective
            graph_guided_boost_pass(state, indices,
                                    np.random.default_rng(sweep))
            assert state.objective >= before - 1e-9 * abs(before)
            assert state.check_consistency()
            assert (state.counts > 0).all()

    def test_fixed_points_agree(self, dataset):
        data, indices, k, labels = dataset
        labels = scrambled(labels, k)
        for settle, probe in [
                (graph_guided_boost_pass, sequential_reference_pass),
                (sequential_reference_pass, graph_guided_boost_pass)]:
            state = ClusterState(data, labels, k)
            sweep_to_fixed_point(settle, state, indices)
            settled = state.labels.copy()
            assert probe(state, indices, np.random.default_rng(99)) == 0
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

    @pytest.mark.parametrize("start", ["two-means", "random"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    @pytest.mark.parametrize("n, d, k, kappa", [(600, 8, 12, 8),
                                                (1500, 16, 40, 10),
                                                (3000, 24, 60, 16)])
    def test_one_sweep_keeps_most_of_the_sequential_drop(self, n, d, k, kappa,
                                                         seed, start):
        # The staleness bound: from the same start and permutation, one
        # blocked sweep achieves at least (1 - ε) of the distortion drop of
        # Alg. 2's one-at-a-time sweep.  A sample's stay decision may be up
        # to one block old, so ε grows with BLOCK / n; ε = BLOCK / n here.
        # Measured share of the drop missed, seeds 0-11 of each cell (72
        # cases): at most 0.253 / 0.103 (two-means / random start) at
        # n = 600, 0.007 / 0.073 at 1500 and 0.008 / 0.043 at 3000, that is
        # at most 0.6 of ε in every cell.
        data = make_sift_like(n, d, random_state=seed)
        indices = brute_force_knn_graph(data, kappa).indices
        if start == "two-means":
            labels = two_means_labels(data, k, random_state=seed)
        else:
            labels = random_balanced_labels(n, k, np.random.default_rng(seed))
        assert n >= 2 * gkmeans.BLOCK
        before = ClusterState(data, labels, k).distortion
        blocked = ClusterState(data, labels, k)
        sequential = ClusterState(data, labels, k)
        graph_guided_boost_pass(blocked, indices, np.random.default_rng(seed))
        sequential_reference_pass(sequential, indices,
                                  np.random.default_rng(seed))
        epsilon = gkmeans.BLOCK / n
        assert before - blocked.distortion >= \
            (1.0 - epsilon) * (before - sequential.distortion) > 0.0

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
        # Both are movers of the same round; the second is held back at its
        # turn, when its source has no other member left.
        state = ClusterState(data, labels, 3)
        assert graph_guided_boost_pass(
            state, indices, np.random.default_rng(0)) == 1
        assert state.counts.tolist() in ([7, 6, 1], [6, 7, 1])
        reference = ClusterState(data, labels, 3)
        sequential_reference_pass(reference, indices,
                                  np.random.default_rng(0))
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

    def test_count_is_the_distinct_candidates_of_visited_samples(
            self, dataset):
        # On a fixed point no label changes during the sweep, so the sum is
        # computable from the labelling alone — for both implementations.
        data, indices, k, labels = dataset
        state = ClusterState(data, scrambled(labels, k), k)
        sweep_to_fixed_point(graph_guided_boost_pass, state, indices)
        expected = distinct_candidate_total(state.labels, state.counts,
                                            indices)
        for sweep in (graph_guided_boost_pass, sequential_reference_pass):
            counter = DistanceCounter()
            sweep(state, indices, np.random.default_rng(0), counter=counter)
            assert counter.count == expected
        # Alg. 2's count is what a sweep visits; from a fixed point the
        # blocked sweep re-scores none of it.
        counter, scored = DistanceCounter(), DistanceCounter()
        graph_guided_boost_pass(state, indices, np.random.default_rng(1),
                                counter=counter, scored=scored)
        assert counter.count == expected
        assert scored.count == 0

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
    def test_build_and_fit_match_the_dense_round(self, sift_small, metric,
                                                 dtype, monkeypatch):
        def build_and_fit():
            built = build_knn_graph_by_clustering(
                sift_small, 10, tau=3, cluster_size=30, random_state=0,
                metric=metric, dtype=dtype)
            model = GKMeans(40, n_neighbors=10, graph=built.graph,
                            max_iter=5, random_state=0, metric=metric,
                            dtype=dtype).fit(sift_small)
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


class TestRoundCount:
    @pytest.mark.parametrize("seed", range(3))
    def test_one_sweep_takes_few_rounds_per_block(self, seed, monkeypatch):
        # From two-means labels about 45% of the samples move in the first
        # sweep; applying a round's movers in order leaves few to re-score.
        data = make_sift_like(2000, 16, random_state=seed)
        indices = brute_force_knn_graph(data, 10).indices
        state = ClusterState(data, two_means_labels(data, 40,
                                                    random_state=seed), 40)
        rounds = []
        score = ClusterState.move_best_block

        def counted(self, samples, candidates):
            rounds.append(samples.size)
            return score(self, samples, candidates)

        monkeypatch.setattr(ClusterState, "move_best_block", counted)
        moves = graph_guided_boost_pass(state, indices,
                                        np.random.default_rng(seed))
        assert moves > 200
        assert len(rounds) <= 3 * -(-len(data) // gkmeans.BLOCK)


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
    @given(small_problems())
    def test_contract_on_small_random_problems(self, problem):
        data, indices, labels, k = problem
        state = ClusterState(data, labels, k)
        occupied = state.counts > 0

        # One block holds every sample here, so the whole sweep is scored
        # against the initial labelling and the count is known up front.
        assert len(data) <= gkmeans.BLOCK
        expected = distinct_candidate_total(state.labels, state.counts,
                                            indices)
        counter = DistanceCounter()
        before = state.objective
        rng = np.random.default_rng(7)
        graph_guided_boost_pass(state, indices, rng, counter=counter)
        assert counter.count == expected
        assert state.objective >= before - 1e-9 * abs(before)
        assert state.check_consistency()
        assert (state.counts[occupied] > 0).all()

        again = ClusterState(data, labels, k)
        graph_guided_boost_pass(again, indices, np.random.default_rng(7))
        assert np.array_equal(again.labels, state.labels)

        sweep_to_fixed_point(graph_guided_boost_pass, state, indices)
        assert sequential_reference_pass(
            state, indices, np.random.default_rng(1)) == 0
        other = ClusterState(data, labels, k)
        sweep_to_fixed_point(sequential_reference_pass, other, indices)
        assert graph_guided_boost_pass(
            other, indices, np.random.default_rng(1)) == 0
