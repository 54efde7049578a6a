"""Contract of the settled-sample skip in the blocked Alg. 2 sweep.

``graph_guided_boost_pass`` does not score a sample again while its own
cluster and every candidate cluster are unchanged since it was last scored:
each cluster carries the tick of the last applied move that touched it, each
sample the tick it was last scored at (``ClusterState.versions`` /
``ClusterState.stamps``).  Scoring such a sample again would return "stay"
bit for bit, so the skip is exact.  The oracle is the sweep that scores every
visited sample, ``unskipped_boost_pass`` of ``tests/_round_oracle.py``: from
the same state and permutation, the two must agree bitwise on the labels, the
distortion and every sweep's move count — from two-means and random starts,
in sqeuclidean float64 and cosine float32, over several blocks, and across a
``recompute()`` after a bulk label edit.
"""

import numpy as np
import pytest
from _round_oracle import unskipped_boost_pass
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import GKMeans, gkmeans
from repro.cluster.gkmeans import graph_guided_boost_pass
from repro.cluster.initialization import random_balanced_labels
from repro.cluster.objective import BLOCK, ClusterState
from repro.cluster.two_means_tree import two_means_labels
from repro.datasets import make_sift_like
from repro.distance import DistanceCounter, DistanceEngine
from repro.graph import brute_force_knn_graph

SPACES = [("sqeuclidean", np.float64), ("cosine", np.float32)]


def clustering_problem(n, d, k, kappa, metric, dtype, start, seed):
    """(data in the clustering space, κ-NN indices, starting labels)."""
    outer = DistanceEngine(metric, dtype)
    data = outer.prepare_clustering(
        make_sift_like(n, d, random_state=seed).astype(dtype))
    engine = outer.clustering_engine()
    indices = brute_force_knn_graph(data, kappa, metric=engine.metric,
                                    dtype=engine.dtype).indices
    if start == "two-means":
        labels = two_means_labels(data, k, random_state=seed,
                                  metric=engine.metric, dtype=engine.dtype)
    else:
        labels = random_balanced_labels(n, k, np.random.default_rng(seed))
    return data, indices, labels


def bulk_edit(states, share, seed):
    """Move a ``share`` of the samples to random clusters, then recompute."""
    rng = np.random.default_rng(seed)
    n, k = states[0].labels.size, states[0].n_clusters
    edited = rng.random(n) < share
    targets = rng.integers(0, k, size=int(edited.sum()))
    for state in states:
        state.labels[edited] = targets
        state.recompute()


def assert_same_sweeps(skipping, oracle, indices, sweeps, seed):
    """Sweep both states ``sweeps`` times from the same permutations."""
    for sweep in range(sweeps):
        moves = graph_guided_boost_pass(
            skipping, indices, np.random.default_rng((seed, sweep)))
        assert moves == unskipped_boost_pass(
            oracle, indices, np.random.default_rng((seed, sweep)))
        assert np.array_equal(skipping.labels, oracle.labels)
        assert skipping.distortion == oracle.distortion
        if moves == 0:
            return


@st.composite
def sweep_problems(draw):
    metric, dtype = draw(st.sampled_from(SPACES))
    return dict(n=draw(st.integers(2 * BLOCK, 2 * BLOCK + 300)),
                d=draw(st.integers(2, 8)), k=draw(st.integers(4, 60)),
                kappa=draw(st.integers(3, 12)), metric=metric, dtype=dtype,
                start=draw(st.sampled_from(["two-means", "random"])),
                seed=draw(st.integers(0, 2**16)),
                edit=draw(st.sampled_from([0.0, 0.05, 0.5])))


class TestAgainstTheUnskippedSweep:
    @settings(max_examples=25, deadline=None)
    @given(sweep_problems())
    def test_labels_distortion_and_moves_match_bitwise(self, problem):
        data, indices, labels = clustering_problem(
            problem["n"], problem["d"], problem["k"], problem["kappa"],
            problem["metric"], problem["dtype"], problem["start"],
            problem["seed"])
        k, seed = problem["k"], problem["seed"]
        skipping = ClusterState(data, labels, k)
        oracle = ClusterState(data, labels, k)
        assert_same_sweeps(skipping, oracle, indices, 6, seed)
        if problem["edit"]:
            bulk_edit([skipping, oracle], problem["edit"], seed)
            assert np.array_equal(skipping.labels, oracle.labels)
            assert_same_sweeps(skipping, oracle, indices, 6, seed + 1)

    @pytest.mark.parametrize("metric, dtype", SPACES)
    @pytest.mark.parametrize("init", ["two-means", "random"])
    def test_gkmeans_fit_matches_the_unskipped_fit(self, metric, dtype, init,
                                                   monkeypatch):
        data = make_sift_like(3 * BLOCK, 12, random_state=5)

        def fit():
            return GKMeans(40, n_neighbors=10, graph_builder="brute-force",
                           init=init, max_iter=12, random_state=5,
                           metric=metric, dtype=dtype).fit(data)

        model = fit()
        monkeypatch.setattr(
            gkmeans, "graph_guided_boost_pass",
            lambda state, indices, rng, **counters: unskipped_boost_pass(
                state, indices, rng))
        oracle = fit()
        assert np.array_equal(model.labels_, oracle.labels_)
        assert model.result_.distortion == oracle.result_.distortion
        moves = [record.n_moves for record in model.history_]
        assert moves == [record.n_moves for record in oracle.history_]
        extra = model.result_.extra
        assert extra["n_distance_evaluations"] < extra["n_alg2_evaluations"]


class TestWhatIsSkipped:
    @pytest.fixture()
    def settled(self):
        """A state at a fixed point of the sweep, and its graph."""
        data, indices, labels = clustering_problem(
            3 * BLOCK, 8, 30, 10, "sqeuclidean", np.float64, "random", 3)
        state = ClusterState(data, labels, 30)
        for sweep in range(200):
            if graph_guided_boost_pass(state, indices,
                                       np.random.default_rng(sweep)) == 0:
                return state, indices
        pytest.fail("no fixed point within 200 sweeps")

    def test_first_sweep_of_a_state_scores_every_visited_sample(self):
        data, indices, labels = clustering_problem(
            3 * BLOCK, 8, 30, 10, "sqeuclidean", np.float64, "random", 3)
        state = ClusterState(data, labels, 30)
        counter, scored = DistanceCounter(), DistanceCounter()
        graph_guided_boost_pass(state, indices, np.random.default_rng(0),
                                counter=counter, scored=scored)
        # Re-evaluated held-back movers count again in ``scored`` only.
        assert scored.count >= counter.count > 0
        assert not state.stamps.any()

    def test_recompute_forgets_every_score(self, settled):
        state, indices = settled
        bulk_edit([state], 0.05, 0)
        assert state.tick == 0 and not state.stamps.any()
        counter, scored = DistanceCounter(), DistanceCounter()
        graph_guided_boost_pass(state, indices, np.random.default_rng(0),
                                counter=counter, scored=scored)
        assert scored.count >= counter.count > 0

    def test_one_move_wakes_its_clusters_samples_only(self, settled):
        # Move one sample by hand: the next sweep re-scores exactly the
        # samples with its source or target among their clusters.
        state, indices = settled
        sample = int(np.flatnonzero(state.counts[state.labels] > 2)[0])
        source = int(state.labels[sample])
        target = (source + 1) % state.n_clusters
        state.move(sample, target)
        candidates = gkmeans.candidate_label_block(
            state.labels, indices, state.labels)
        touched = ((candidates == source) | (candidates == target)).any(axis=1)
        visited = state.counts[state.labels] > 1
        scored_rows = []
        score = ClusterState.move_best_block

        def recorded(self, samples, candidates):
            scored_rows.append(samples.copy())
            return score(self, samples, candidates)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ClusterState, "move_best_block", recorded)
            graph_guided_boost_pass(state, indices, np.random.default_rng(1))
        scored = np.zeros(state.labels.size, dtype=bool)
        scored[np.concatenate(scored_rows)] = True
        # Every woken sample is scored; the rest stay asleep unless a move
        # of this sweep wakes them, and the one move wakes few.
        assert scored[touched & visited].all()
        assert scored.sum() < visited.sum() // 2
