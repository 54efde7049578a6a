"""Tests for the composite-vector ClusterState and the boost objective.

These are the most safety-critical tests in the suite: every incremental
algorithm (BKM, GK-means, Alg. 3) trusts `ClusterState.move` and
`delta_objective` to exactly track the objective of Eqn. 2/3.

One round of the blocked boost sweep (`ClusterState.move_best_block`) scores
only the distinct (sample, cluster) pairs that are real moves and finds
conflicting movers with a scatter.  The round it replaced — every candidate
entry scored, conflicts found by a stable sort — is the oracle
``dense_move_best_block`` of ``tests/_round_oracle.py``, and the new round
must match it bitwise.
"""

import numpy as np
import pytest
from _round_oracle import (argsort_first_mover_rule, dense_delta_objective_block,
                           dense_move_best_block, dense_move_block)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterState, boost_objective, distortion_from_labels
from repro.cluster.objective import cluster_sums
from repro.exceptions import ValidationError
from repro.metrics import average_distortion


def assert_states_identical(state, oracle):
    for name in ("labels", "counts", "composites", "_composite_sq_norms"):
        assert np.array_equal(getattr(state, name), getattr(oracle, name)), name


def run_block_against_oracle(data, labels, k, samples, candidates_of):
    """Drive one block to completion with both rounds, comparing each round.

    ``candidates_of(state, pending)`` builds a round's candidate rows, as the
    sweeps do.  Returns the final state and the number of applied moves.
    """
    state, oracle = ClusterState(data, labels, k), ClusterState(data, labels, k)
    pending, moves = np.asarray(samples, dtype=np.int64), 0
    while pending.size:
        got, applied = state.move_best_block(pending,
                                             candidates_of(state, pending))
        want, want_applied = dense_move_best_block(
            oracle, pending, candidates_of(oracle, pending))
        assert np.array_equal(got, want)
        assert applied == want_applied
        assert_states_identical(state, oracle)
        pending, moves = got, moves + applied
    assert state.check_consistency()
    return state, moves


def _random_state(n=30, d=4, k=5, seed=0):
    rng = np.random.default_rng(seed)
    data = rng.normal(size=(n, d))
    labels = rng.integers(0, k, size=n)
    labels[:k] = np.arange(k)  # no empty clusters
    return data, labels.astype(np.int64), k


class TestObjectiveIdentities:
    def test_objective_matches_definition(self):
        data, labels, k = _random_state()
        state = ClusterState(data, labels, k)
        expected = 0.0
        for cluster in range(k):
            members = data[labels == cluster]
            if len(members):
                composite = members.sum(axis=0)
                expected += composite @ composite / len(members)
        assert state.objective == pytest.approx(expected)

    def test_distortion_equals_sum_norm_minus_objective(self):
        data, labels, k = _random_state(seed=1)
        state = ClusterState(data, labels, k)
        direct = average_distortion(data, labels)
        assert state.distortion == pytest.approx(direct)

    def test_distortion_from_labels_helper(self):
        data, labels, k = _random_state(seed=2)
        assert distortion_from_labels(data, labels, k) == pytest.approx(
            average_distortion(data, labels))

    def test_boost_objective_helper(self):
        data, labels, k = _random_state(seed=3)
        assert boost_objective(data, labels, k) == pytest.approx(
            ClusterState(data, labels, k).objective)

    def test_inertia_is_n_times_distortion(self):
        data, labels, k = _random_state(seed=4)
        state = ClusterState(data, labels, k)
        assert state.inertia == pytest.approx(state.distortion * len(data))


class TestComposites:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n, d, k", [(1, 1, 1), (50, 3, 7), (400, 16, 9),
                                         (400, 37, 60)])
    def test_composites_equal_a_scatter_add_and_counts_are_exact(
            self, n, d, k, dtype):
        # d = 37 spans three column blocks, the last one ragged; the label
        # draw leaves cluster 0 (and more, for k = 60) without members.
        rng = np.random.default_rng(n + d)
        data = (100 * rng.normal(size=(n, d))).astype(dtype)
        labels = rng.integers(min(1, k - 1), k, size=n)
        expected = np.zeros((k, d))
        np.add.at(expected, labels, data.astype(np.float64))
        state = ClusterState(data, labels, k)
        assert state.composites.dtype == np.float64
        np.testing.assert_allclose(state.composites, expected, rtol=1e-13,
                                   atol=0)
        assert np.array_equal(state.counts, np.bincount(labels, minlength=k))
        assert state.counts.dtype == np.int64
        empty = state.counts == 0
        assert k == 1 or empty[0]
        assert not state.composites[empty].any()

        state.labels[:] = labels[::-1]
        state.recompute()
        expected[:] = 0.0
        np.add.at(expected, labels[::-1], data.astype(np.float64))
        np.testing.assert_allclose(state.composites, expected, rtol=1e-13,
                                   atol=0)
        assert state.check_consistency()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_cluster_sums_are_bitwise_a_scatter_add(self, dtype):
        rng = np.random.default_rng(11)
        data = (100 * rng.normal(size=(700, 37))).astype(dtype)
        labels = rng.integers(0, 50, size=700)
        expected = np.zeros((53, 37))
        np.add.at(expected, labels, data.astype(np.float64))
        sums = cluster_sums(data, labels, 53)
        assert sums.dtype == np.float64
        assert np.array_equal(sums, expected)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_state_keeps_its_float_matrix_without_a_copy(self, dtype):
        data, labels, k = _random_state()
        x = data.astype(dtype)
        state = ClusterState(x, labels, k)
        assert np.shares_memory(state._data, x)
        wide = ClusterState(x.astype(np.float64), labels, k)
        for name in ("composites", "counts", "_composite_sq_norms"):
            assert np.array_equal(getattr(state, name), getattr(wide, name))
        assert state.objective == wide.objective

    def test_state_casts_integer_data_to_float64(self):
        data = np.arange(12).reshape(6, 2)
        state = ClusterState(data, np.array([0, 0, 1, 1, 2, 2]), 3)
        assert state._data.dtype == np.float64


class TestMoves:
    def test_move_updates_labels_and_counts(self):
        data, labels, k = _random_state()
        state = ClusterState(data, labels, k)
        source = int(labels[10])
        target = (source + 1) % k
        before = state.counts.copy()
        state.move(10, target)
        assert state.labels[10] == target
        assert state.counts[source] == before[source] - 1
        assert state.counts[target] == before[target] + 1

    def test_move_to_same_cluster_is_noop(self):
        data, labels, k = _random_state()
        state = ClusterState(data, labels, k)
        objective = state.objective
        state.move(3, int(labels[3]))
        assert state.objective == pytest.approx(objective)

    def test_state_consistent_after_many_moves(self):
        data, labels, k = _random_state(n=60, seed=5)
        state = ClusterState(data, labels, k)
        rng = np.random.default_rng(0)
        for _ in range(200):
            sample = int(rng.integers(60))
            target = int(rng.integers(k))
            if state.counts[state.labels[sample]] > 1:
                state.move(sample, target)
        assert state.check_consistency()

    def test_delta_objective_matches_recomputation(self):
        data, labels, k = _random_state(n=40, seed=6)
        state = ClusterState(data, labels, k)
        sample = 17
        candidates = np.arange(k)
        deltas = state.delta_objective(sample, candidates)
        base = state.objective
        for candidate, delta in zip(candidates, deltas):
            trial_labels = state.labels.copy()
            trial_labels[sample] = candidate
            recomputed = boost_objective(data, trial_labels, k)
            assert delta == pytest.approx(recomputed - base, abs=1e-8)

    def test_delta_zero_for_current_cluster(self):
        data, labels, k = _random_state(seed=7)
        state = ClusterState(data, labels, k)
        deltas = state.delta_objective(5, np.array([int(labels[5])]))
        assert deltas[0] == 0.0

    def test_best_move_protects_singletons(self):
        data = np.array([[0.0, 0.0], [10.0, 10.0], [10.1, 10.1]])
        labels = np.array([0, 1, 1])
        state = ClusterState(data, labels, 2)
        target, gain = state.best_move(0, np.array([0, 1]))
        assert target == 0 and gain == 0.0

    def test_best_move_allows_empty_when_requested(self):
        data = np.array([[0.0, 0.0], [0.1, 0.1], [10.0, 10.0]])
        labels = np.array([0, 1, 1])
        state = ClusterState(data, labels, 2)
        target, gain = state.best_move(0, np.array([0, 1]),
                                       allow_empty_source=True)
        assert target in (0, 1)

    def test_moves_with_positive_delta_increase_objective(self):
        data, labels, k = _random_state(n=50, seed=8)
        state = ClusterState(data, labels, k)
        rng = np.random.default_rng(1)
        for _ in range(100):
            sample = int(rng.integers(50))
            if state.counts[state.labels[sample]] <= 1:
                continue
            before = state.objective
            target, gain = state.best_move(sample, np.arange(k))
            if gain > 0:
                state.move(sample, target)
                assert state.objective >= before

    def test_centroids_are_cluster_means(self):
        data, labels, k = _random_state(seed=9)
        state = ClusterState(data, labels, k)
        centroids = state.centroids()
        for cluster in range(k):
            members = data[labels == cluster]
            if len(members):
                assert np.allclose(centroids[cluster], members.mean(axis=0))

    def test_cluster_members(self):
        data, labels, k = _random_state(seed=10)
        state = ClusterState(data, labels, k)
        members = state.cluster_members(2)
        assert set(members) == set(np.nonzero(labels == 2)[0])

    def test_reassign_all_to_nearest_reduces_distortion(self):
        data, labels, k = _random_state(n=80, seed=11)
        state = ClusterState(data, labels, k)
        before = state.distortion
        state.reassign_all_to_nearest()
        assert state.distortion <= before + 1e-12
        assert state.check_consistency()

    def test_labels_out_of_range_rejected(self):
        data, labels, k = _random_state()
        with pytest.raises(ValidationError):
            ClusterState(data, labels, 2)


class TestBlockForms:
    """Eqn. 3 exists three times — scalar, pairs and the dense oracle; they
    must not drift apart."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_delta_objective_pairs_matches_scalar_rows(self, dtype):
        rng = np.random.default_rng(5)
        n, k = 40, 7
        data = rng.normal(size=(n, 6)).astype(dtype)
        labels = rng.integers(0, 5, size=n)
        labels[:5] = np.arange(5)
        labels[5] = 5                      # cluster 5: singleton source
        state = ClusterState(data, labels, k)        # cluster 6: empty
        assert state.counts[5] == 1 and state.counts[6] == 0

        samples = np.array([5, 0, 17, 33, 5, 8])
        candidates = rng.integers(0, k, size=(samples.size, 9))
        candidates[:, 0] = 6                         # empty candidate
        candidates[:, 1] = state.labels[samples]     # own cluster
        rows, cols = np.nonzero(candidates != state.labels[samples][:, None])
        pairs = state.delta_objective_pairs(samples, rows,
                                            candidates[rows, cols])
        assert pairs.shape == rows.shape and pairs.dtype == np.float64
        for row, sample in enumerate(samples):
            scalar = state.delta_objective(int(sample), candidates[row])
            np.testing.assert_allclose(pairs[rows == row],
                                       scalar[cols[rows == row]],
                                       rtol=1e-9, atol=1e-12)
        block = dense_delta_objective_block(state, samples, candidates)
        assert np.array_equal(pairs, block[rows, cols])
        assert np.all(block[:, 1] == 0.0)

    def test_move_block_applies_first_occurrences_only(self):
        data, labels, k = _random_state(n=40, k=6, seed=21)
        state = ClusterState(data, labels, k)
        reference = ClusterState(data, labels, k)
        members = [int(np.flatnonzero(labels == c)[0]) for c in range(k)]
        # 0→1 applies; 2→1 reuses target 1; 3→4 applies; 1→5 reuses source
        # 1; a second member of cluster 0 reuses source 0.
        second_of_0 = int(np.flatnonzero(labels == 0)[1])
        samples = np.array([members[0], members[2], members[3], members[1],
                            second_of_0])
        targets = np.array([1, 1, 4, 5, 5])
        applied = state.move_block(samples, targets)
        assert applied.tolist() == [True, False, True, False, False]
        reference.move(members[0], 1)
        reference.move(members[3], 4)
        assert np.array_equal(state.labels, reference.labels)
        assert np.array_equal(state.counts, reference.counts)
        assert np.array_equal(state.composites, reference.composites)
        assert state.objective == pytest.approx(reference.objective,
                                                rel=1e-12)
        assert state.check_consistency()

    def test_move_block_never_applies_a_move_to_the_own_cluster(self):
        data, labels, k = _random_state(seed=22)
        state = ClusterState(data, labels, k)
        applied = state.move_block(np.array([3]), state.labels[[3]])
        assert applied.tolist() == [False]
        assert np.array_equal(state.labels, labels)
        assert state.move_block(np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64)).size == 0


class TestRoundAgainstDenseOracle:
    """``move_best_block`` makes exactly the dense round's moves."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("seed", range(4))
    def test_sorted_rows_with_duplicates(self, dtype, seed):
        rng = np.random.default_rng(seed)
        n, k = 300, 9
        data = (10 * rng.normal(size=(n, 5))).astype(dtype)
        labels = rng.integers(0, k, size=n)
        # Wide rows over few clusters: nearly every row repeats clusters.
        neighbours = rng.integers(0, n, size=(n, 12))

        def candidates_of(state, pending):      # as the sweep builds them
            rows = [state.labels[neighbours[pending]],
                    state.labels[pending, None]]
            return np.sort(np.concatenate(rows, axis=1), axis=1)

        _, moves = run_block_against_oracle(
            data, labels, k, rng.permutation(n)[:256], candidates_of)
        assert moves > 10

    def test_rows_of_only_the_own_cluster_score_nothing(self):
        data, labels, k = _random_state(n=40, seed=31)
        state = ClusterState(data, labels, k)
        samples = np.arange(0, 40, 3)
        own_only = np.repeat(labels[samples, None], 4, axis=1)
        pending, applied = state.move_best_block(samples, own_only)
        assert pending.size == 0 and applied == 0
        assert_states_identical(state, ClusterState(data, labels, k))

        # Mixed with rows that do have pairs, the own-only rows stay put.
        scored = samples[::2]

        def candidates_of(state, pending):
            own = state.labels[pending, None]
            other = np.where(np.isin(pending, scored)[:, None],
                             (own + 1) % k, own)
            return np.sort(np.concatenate([own, own, other], axis=1), axis=1)

        state, moves = run_block_against_oracle(data, labels, k, samples,
                                                candidates_of)
        assert moves > 0
        still = np.setdiff1d(samples, scored)
        assert np.array_equal(state.labels[still], labels[still])

    def test_singleton_source_and_empty_candidate_cluster(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(50, 3))
        labels = rng.integers(0, 4, size=50)
        labels[7] = 4                        # cluster 4: a singleton
        k = 6                                # cluster 5: empty
        state = ClusterState(data, labels, k)
        assert state.counts[4] == 1 and state.counts[5] == 0
        neighbours = rng.integers(0, 50, size=(50, 6))
        neighbours[:, 0] = 7                 # everyone sees the singleton

        def candidates_of(state, pending):
            rows = state.labels[neighbours[pending]]
            empty = np.full((pending.size, 1), 5)
            own = state.labels[pending, None]
            return np.sort(np.concatenate([rows, empty, own], axis=1), axis=1)

        samples = np.unique(np.concatenate([[7], rng.permutation(50)[:30]]))
        _, moves = run_block_against_oracle(data, labels, k, samples,
                                            candidates_of)
        assert moves > 0

    @pytest.mark.parametrize("own_first", [True, False])
    def test_unsorted_two_column_rows_of_the_boost_bisection(self, own_first):
        # _bisect_boost's rows: the two halves of the sample's node, so the
        # own cluster is the first column for even labels, the second for
        # odd ones — or, here, always first (unsorted whenever own is odd).
        rng = np.random.default_rng(11)
        n_nodes, n = 5, 200
        data = rng.normal(size=(n, 4)) + rng.normal(size=(n_nodes, 4))[
            rng.integers(0, n_nodes, size=n)]
        node = rng.integers(0, n_nodes, size=n)
        labels = 2 * node + rng.integers(0, 2, size=n)

        def candidates_of(state, pending):
            own = state.labels[pending]
            if own_first:
                return np.stack([own, own ^ 1], axis=1)
            return np.stack([2 * node[pending], 2 * node[pending] + 1], axis=1)

        _, moves = run_block_against_oracle(data, labels, 2 * n_nodes,
                                            rng.permutation(n)[:128],
                                            candidates_of)
        assert moves > 0

    def test_self_moves_never_apply_and_block_later_moves(self):
        data, labels, k = _random_state(n=40, k=6, seed=23)
        samples = np.array([0, 1, 2, 3, 4, 5, 6, 7])
        targets = (labels[samples] + np.array([0, 1, 0, 2, 3, 0, 1, 4])) % k
        state, oracle = ClusterState(data, labels, k), ClusterState(
            data, labels, k)
        applied = state.move_block(samples, targets)
        assert np.array_equal(applied, dense_move_block(oracle, samples,
                                                        targets))
        assert not applied[targets == labels[samples]].any()
        assert_states_identical(state, oracle)
        # A self-move names its cluster: a later move out of it is blocked.
        first = int(np.flatnonzero(labels == labels[0])[1])
        state = ClusterState(data, labels, k)
        assert state.move_block(np.array([0, first]),
                                np.array([labels[0], (labels[0] + 1) % k])
                                ).tolist() == [False, False]

    def test_empty_block(self):
        data, labels, k = _random_state(seed=24)
        state = ClusterState(data, labels, k)
        pending, applied = state.move_best_block(
            np.array([], dtype=np.int64), np.empty((0, 3), dtype=np.int64))
        assert pending.size == 0 and applied == 0
        assert_states_identical(state, ClusterState(data, labels, k))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(1, 12))
    def test_scatter_first_mover_rule_is_the_argsort_rule(self, seed, m, k):
        rng = np.random.default_rng(seed)
        n = max(m, k)
        data = rng.normal(size=(n, 3))
        labels = rng.integers(0, k, size=n)
        samples = rng.permutation(n)[:m]
        targets = rng.integers(0, k, size=m)
        state, oracle = ClusterState(data, labels, k), ClusterState(
            data, labels, k)
        applied = state.move_block(samples, targets)
        assert np.array_equal(
            applied, argsort_first_mover_rule(labels[samples], targets))
        assert np.array_equal(applied, dense_move_block(oracle, samples,
                                                        targets))
        assert_states_identical(state, oracle)


class TestPropertyBased:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_incremental_state_always_consistent(self, seed):
        """Random move sequences never desynchronise the incremental state."""
        rng = np.random.default_rng(seed)
        n, d, k = 25, 3, 4
        data = rng.normal(size=(n, d))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        state = ClusterState(data, labels, k)
        for _ in range(30):
            sample = int(rng.integers(n))
            target = int(rng.integers(k))
            state.move(sample, target)
        assert state.check_consistency()
        assert state.distortion == pytest.approx(
            average_distortion(data, state.labels), abs=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10_000))
    def test_delta_objective_agrees_with_recompute(self, seed):
        rng = np.random.default_rng(seed)
        n, d, k = 18, 2, 3
        data = rng.normal(size=(n, d))
        labels = rng.integers(0, k, size=n)
        labels[:k] = np.arange(k)
        state = ClusterState(data, labels, k)
        sample = int(rng.integers(n))
        candidates = np.arange(k)
        deltas = state.delta_objective(sample, candidates)
        base = state.objective
        for candidate, delta in zip(candidates, deltas):
            trial = state.labels.copy()
            trial[sample] = candidate
            assert delta == pytest.approx(
                boost_objective(data, trial, k) - base, abs=1e-7)
