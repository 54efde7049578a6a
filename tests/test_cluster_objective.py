"""Tests for the composite-vector ClusterState and the boost objective.

These are the most safety-critical tests in the suite: every incremental
algorithm (BKM, GK-means, Alg. 3) trusts `ClusterState.move` and
`delta_objective` to exactly track the objective of Eqn. 2/3.

One round of the blocked boost sweep (`ClusterState.move_best_block`) scores
only the distinct (sample, cluster) pairs that are real moves and applies its
movers in order through `ClusterState.move_block`, by prefix sums over the
clusters they name.  The oracles of ``tests/_round_oracle.py`` are the round
that scores every candidate entry densely (``dense_delta_objective_block``)
and the application rule as a loop of `ClusterState.move`
(``sequential_move_block``).  Against the dense round the pair-sparse one
must match bitwise; against the loop, applied masks, labels and counts must
match exactly, composites and ‖D‖² to rounding.
"""

import numpy as np
import pytest
from _round_oracle import (dense_delta_objective_block, dense_move_best_block,
                           sequential_move_block)
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterState, boost_objective
from repro.cluster.objective import cluster_sums
from repro.exceptions import ValidationError
from repro.metrics import average_distortion


def assert_states_identical(state, oracle):
    for name in ("labels", "counts", "composites", "_composite_sq_norms"):
        assert np.array_equal(getattr(state, name), getattr(oracle, name)), name


def assert_states_match(state, oracle):
    """Labels and counts exactly; composites and ‖D‖² to rounding.

    The absolute slack is the relative one at the array's largest entry, for
    entries that cancel to near 0 and round differently in the two orders.
    """
    assert np.array_equal(state.labels, oracle.labels)
    assert np.array_equal(state.counts, oracle.counts)
    for name in ("composites", "_composite_sq_norms"):
        want = getattr(oracle, name)
        np.testing.assert_allclose(getattr(state, name), want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max(),
                                   err_msg=name)


def sequential_round(state, samples, candidates):
    """One round of the oracles: dense scoring, sequential application."""
    return dense_move_best_block(state, samples, candidates,
                                 apply=sequential_move_block)


def run_block_against_oracle(data, labels, k, samples, candidates_of):
    """Drive one block to completion with three rounds, comparing each round.

    The pair-sparse round must equal the dense round bitwise (both apply
    through ``move_block``) and the sequential loop to rounding.
    ``candidates_of(state, pending)`` builds a round's candidate rows, as the
    sweeps do.  Returns the final state and the number of applied moves.
    """
    state, dense, oracle = (ClusterState(data, labels, k) for _ in range(3))
    pending, moves = np.asarray(samples, dtype=np.int64), 0
    while pending.size:
        got, applied = state.move_best_block(pending,
                                             candidates_of(state, pending))
        scored, scored_applied = dense_move_best_block(
            dense, pending, candidates_of(dense, pending))
        want, want_applied = sequential_round(
            oracle, pending, candidates_of(oracle, pending))
        assert np.array_equal(got, scored)
        assert applied == scored_applied
        assert_states_identical(state, dense)
        assert np.array_equal(got, want)
        assert applied == want_applied
        assert_states_match(state, oracle)
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

    def test_empty_clusters_leave_the_distortion_unchanged(self):
        data, labels, k = _random_state(seed=2)
        assert ClusterState(data, labels, k + 3).distortion == pytest.approx(
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

    def test_move_block_applies_in_order_as_the_sequential_loop(self):
        data, labels, k = _random_state(n=40, k=6, seed=21)
        state = ClusterState(data, labels, k)
        reference = ClusterState(data, labels, k)
        members = [int(np.flatnonzero(labels == c)[0]) for c in range(k)]
        # 0→1, then 2→1 into the grown cluster 1, 3→4, 1→5 out of it, and a
        # second member of cluster 0 to 5, which no longer gains.
        second_of_0 = int(np.flatnonzero(labels == 0)[1])
        samples = np.array([members[0], members[2], members[3], members[1],
                            second_of_0])
        targets = np.array([1, 1, 4, 5, 5])
        applied = state.move_block(samples, targets)
        assert applied.tolist() == [True, True, True, True, False]
        assert np.array_equal(applied, sequential_move_block(
            reference, samples, targets))
        assert_states_match(state, reference)
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
    def test_unsorted_two_column_rows(self, own_first):
        # Rows naming the two halves of the sample's node, so the own
        # cluster is the first column for even labels, the second for odd
        # ones — or, here, always first (unsorted whenever own is odd).
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
        assert np.array_equal(applied, sequential_move_block(oracle, samples,
                                                             targets))
        assert not applied[targets == labels[samples]].any()
        assert_states_match(state, oracle)
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
    def test_move_block_is_the_sequential_loop(self, seed, m, k):
        rng = np.random.default_rng(seed)
        n = max(m, k)
        data = rng.normal(size=(n, 3))
        labels = rng.integers(0, k, size=n)
        samples = rng.permutation(n)[:m]
        targets = rng.integers(0, k, size=m)
        state, oracle = ClusterState(data, labels, k), ClusterState(
            data, labels, k)
        applied = state.move_block(samples, targets)
        assert np.array_equal(applied, sequential_move_block(oracle, samples,
                                                             targets))
        assert_states_match(state, oracle)


class TestOrderedApplication:
    """``move_block`` applies a round's movers in order, each on the state
    the earlier ones leave, and holds back only what that state rejects."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 4),
           st.integers(1, 40))
    def test_long_runs_over_few_clusters_match_the_sequential_loop(
            self, seed, m, k, d):
        # Few clusters: every cluster is named by many movers, so the prefix
        # sums run over long groups.
        rng = np.random.default_rng(seed)
        n = m + k
        data = rng.normal(size=(n, d))
        labels = rng.integers(0, k, size=n)
        samples = rng.permutation(n)[:m]
        targets = rng.integers(0, k, size=m)
        state, oracle = ClusterState(data, labels, k), ClusterState(
            data, labels, k)
        applied = state.move_block(samples, targets)
        assert np.array_equal(applied, sequential_move_block(oracle, samples,
                                                             targets))
        assert_states_match(state, oracle)
        assert state.check_consistency()

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40), st.integers(2, 12))
    def test_first_mover_is_applied_iff_its_snapshot_gain_is_positive(
            self, seed, m, k):
        rng = np.random.default_rng(seed)
        n = max(m, k) + 5
        data = rng.normal(size=(n, 3))
        labels = rng.integers(0, k, size=n)
        samples = rng.permutation(n)[:m]
        targets = rng.integers(0, k, size=m)
        targets[0] = (labels[samples[0]] + 1 + rng.integers(k - 1)) % k
        state = ClusterState(data, labels, k)
        gain = state.delta_objective(int(samples[0]), targets[:1])[0]
        applied = state.move_block(samples, targets)
        assert applied[0] == (gain > 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_only_a_first_namer_is_judged_on_its_scored_gain(self, seed):
        # Termination rests on the scored gain, not on ``move_block``
        # recomputing it bitwise: a move that is the first to name both its
        # clusters is judged on the gain it is given, a later one on its
        # recomputed gain (both gains given here are forged).
        rng = np.random.default_rng(seed)
        n, k = 60, 4
        data = rng.normal(size=(n, 3))
        labels = np.arange(n) % k
        first = int(rng.integers(n))
        target = (labels[first] + 1) % k
        second = int(rng.choice(np.flatnonzero(
            (labels != target) & (np.arange(n) != first))))
        samples, targets = np.array([first, second]), np.array([target] * 2)
        replay = ClusterState(data, labels, k)
        replay.move(first, target)
        second_gain = replay.delta_objective(second, np.array([target]))[0]
        for given in (1.0, -1.0):
            state = ClusterState(data, labels, k)
            applied = state.move_block(samples, targets,
                                       np.array([given, -second_gain]))
            assert applied[0] == (given > 0.0)
            assert applied[1] == (given > 0.0 and second_gain > 0.0)
            assert state.check_consistency()

    @pytest.mark.parametrize("protect", [True, False])
    @pytest.mark.parametrize("seed", range(6))
    def test_first_mover_of_every_round_is_applied(self, seed, protect):
        # The termination argument of the sweep: a round's first mover opens
        # both its clusters' groups, so it is applied on its scored gain.
        rng = np.random.default_rng(seed)
        n, k = 400, 12
        data = rng.normal(size=(n, 4)).astype(np.float32 if seed % 2 else
                                               np.float64)
        labels = rng.integers(0, k, size=n)
        labels[0] = k - 1
        labels[labels == k - 1] = 0
        labels[0] = k - 1                 # cluster k − 1: a singleton
        state = ClusterState(data, labels, k)
        neighbours = rng.integers(0, n, size=(n, 6))
        for start in range(0, n, 128):
            pending = rng.permutation(n)[start:start + 128]
            while pending.size:
                if protect:
                    pending = pending[state.counts[state.labels[pending]] > 1]
                candidates = np.sort(np.concatenate(
                    [state.labels[neighbours[pending]],
                     state.labels[pending, None]], axis=1), axis=1)
                before = state.labels[pending].copy()
                held, moved = state.move_best_block(pending, candidates)
                if held.size:
                    assert moved > 0
                    first = np.flatnonzero(state.labels[pending] != before)
                    assert first.size and not np.isin(
                        pending[:first[0] + 1], held).any()
                pending = held
        assert state.check_consistency()

    @pytest.mark.parametrize("seed", range(4))
    def test_objective_rises_by_the_applied_gains(self, seed):
        # A round's movers: every sample's best move on the snapshot.
        rng = np.random.default_rng(seed)
        n, k = 300, 30
        data = 10 * rng.normal(size=(n, 5))
        labels = rng.integers(0, k, size=n)
        state = ClusterState(data, labels, k)
        samples = rng.permutation(n)[:200]
        deltas = dense_delta_objective_block(
            state, samples, np.tile(np.arange(k), (samples.size, 1)))
        movers = deltas.max(axis=1) > 0.0
        samples, targets = samples[movers], deltas[movers].argmax(axis=1)
        before = state.objective
        applied = state.move_block(samples, targets)
        assert 1 < applied.sum() < applied.size

        # Each applied move's ΔI on the state the earlier ones leave, as the
        # sequential loop takes the same movers.
        replay, gains = ClusterState(data, labels, k), 0.0
        ordered = sequential_move_block(ClusterState(data, labels, k),
                                        samples, targets)
        for sample, target in zip(samples[ordered], targets[ordered]):
            gains += replay.delta_objective(int(sample), [int(target)])[0]
            replay.move(int(sample), int(target))
        assert gains > 0.0
        assert state.objective - before == pytest.approx(gains, rel=1e-9)


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
