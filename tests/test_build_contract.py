"""Contract of the batched build: wave tree (Alg. 1) and batched merge (Alg. 3).

Both halves of a build used to be paid in interpreter calls.  The two-means
tree bisected one node per priority-queue pop and the refinement step merged
one cluster per call.  The implementation now bisects a *wave* of nodes per
step and merges every cluster of one size per step.  The loops it replaced
live here as the oracles — :func:`heap_tree_labels` and
:func:`merge_clusters_reference` — and the tests pin what each pair must share.

Merge: the arithmetic is unchanged (same products, same partition, same
sort, cluster by cluster), so ids, order, distances, the evaluation count and
the use of the random stream are **identical**.  The batched merge skips the
partition and sort of every row that no candidate strictly beats; the loop
sorts those rows too, keeping their own κ entries, ties at the boundary
included — pinned on integer data where such ties are the rule.

Tree: batched reductions round differently from per-node ones and a flipped
near-tie cascades down the tree, so labels are identical only where no sample
sits within rounding of a bisecting plane (a float64 fixture).  Everywhere
the cluster-size profile, the label numbering, the seed draws and the
generator's final state are identical, and quality (distortion, the recall of
the graph Alg. 3 builds on the tree) matches within a tolerance fixed
beforehand.  Inside a wave, two steps replace per-node calls and are pinned
bitwise against them: the one-call seed draw against ``rng.choice`` node by
node, and the equal-size selection against the row-wise stable sort it
replaced (:func:`equalize_by_sort`).
"""

import heapq

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import two_means_tree
from repro.cluster.objective import ClusterState
from repro.cluster.two_means_tree import two_means_labels
from repro.distance import DistanceEngine
from repro.graph import (
    build_knn_graph_by_clustering,
    graph_recall,
    random_knn_graph,
)
from repro.graph import construction
from repro.graph.construction import _merge_clusters
from repro.validation import check_random_state


# ---------------------------------------------------------------------- #
# Oracle: the per-cluster merge loop of Alg. 3, lines 8-14
# ---------------------------------------------------------------------- #
def merge_cluster_block_reference(indices, distances, members, data,
                                  n_neighbors, engine, norms):
    """Refine the rows of one cluster with its pairwise distances."""
    m = members.size
    if m < 2:
        return
    block = engine.pairwise(data[members], norms[members])
    np.fill_diagonal(block, np.inf)

    current_idx = indices[members]                     # (m, κ)
    current_dist = distances[members]                  # (m, κ)
    candidate_idx = np.broadcast_to(members[None, :], (m, m))

    # Mask candidates that are already present in the row they would enter.
    duplicate = (candidate_idx[:, :, None] == current_idx[:, None, :]).any(axis=2)
    block = np.where(duplicate, np.inf, block)

    merged_idx = np.concatenate([current_idx, candidate_idx], axis=1)
    merged_dist = np.concatenate([current_dist, block], axis=1)

    keep = np.argpartition(merged_dist, n_neighbors - 1, axis=1)[:, :n_neighbors]
    kept_dist = np.take_along_axis(merged_dist, keep, axis=1)
    kept_idx = np.take_along_axis(merged_idx, keep, axis=1)
    order = np.argsort(kept_dist, axis=1, kind="stable")
    indices[members] = np.take_along_axis(kept_idx, order, axis=1)
    distances[members] = np.take_along_axis(kept_dist, order, axis=1)


def merge_clusters_reference(indices, distances, labels, n_clusters, data,
                             n_neighbors, max_block, rng, engine, norms):
    """The refinement step, one cluster and one call at a time."""
    order = np.argsort(labels, kind="stable")
    boundaries = np.searchsorted(labels[order], np.arange(n_clusters + 1))
    evaluations = 0
    for cluster in range(n_clusters):
        members = order[boundaries[cluster]:boundaries[cluster + 1]]
        if members.size > max_block:
            members = rng.choice(members, size=max_block, replace=False)
        evaluations += members.size * (members.size - 1) // 2
        merge_cluster_block_reference(indices, distances, members, data,
                                      n_neighbors, engine, norms)
    return evaluations


# ---------------------------------------------------------------------- #
# Oracle: the one-node-per-pop two-means tree of Alg. 1
# ---------------------------------------------------------------------- #
def bisect_lloyd_reference(data, members, rng, n_iter, engine):
    subset = data[members]
    seeds = rng.choice(members.size, size=2, replace=False)
    centroids = subset[seeds].copy()
    assignment = np.zeros(members.size, dtype=bool)
    for _ in range(n_iter):
        dist = engine.cross(subset, centroids)
        new_assignment = dist[:, 1] < dist[:, 0]
        if new_assignment.all() or not new_assignment.any():
            # Degenerate split (identical seeds); perturb by random halving.
            new_assignment = np.zeros(members.size, dtype=bool)
            new_assignment[rng.permutation(members.size)[: members.size // 2]] = True
        if np.array_equal(new_assignment, assignment):
            assignment = new_assignment
            break
        assignment = new_assignment
        centroids[0] = subset[~assignment].mean(axis=0)
        centroids[1] = subset[assignment].mean(axis=0)
    return assignment


def equalize_reference(data, members, assignment, engine):
    subset = data[members]
    centroid_a = subset[~assignment].mean(axis=0)
    centroid_b = subset[assignment].mean(axis=0)
    dist_a = engine.cross(subset, centroid_a[None, :])[:, 0]
    dist_b = engine.cross(subset, centroid_b[None, :])[:, 0]
    preference = dist_a - dist_b  # larger = prefers cluster b
    half = members.size // 2
    order = np.argsort(preference, kind="stable")
    balanced = np.zeros(members.size, dtype=bool)
    balanced[order[members.size - half:]] = True
    return balanced


def heap_tree_labels(data, n_clusters, *, random_state=None,
                     equal_size=True, metric="sqeuclidean",
                     dtype=np.float64):
    """Alg. 1 through a priority queue: pop the largest node, bisect it."""
    outer = DistanceEngine(metric, dtype)
    data = outer.prepare_clustering(data)
    engine = outer.clustering_engine()
    rng = check_random_state(random_state)

    labels = np.zeros(data.shape[0], dtype=np.int64)
    # Priority queue keyed by negative size; ties broken by insertion order.
    heap = [(-data.shape[0], 0, np.arange(data.shape[0], dtype=np.int64))]
    counter = 0
    next_label = 1
    while next_label < n_clusters:
        _, _, members = heapq.heappop(heap)
        assignment = bisect_lloyd_reference(data, members, rng,
                                            two_means_tree.BISECT_ITER,
                                            engine)
        if equal_size:
            assignment = equalize_reference(data, members, assignment, engine)
        for group in (members[~assignment], members[assignment]):
            counter += 1
            heapq.heappush(heap, (-group.size, counter, group))
        labels[members[assignment]] = next_label
        next_label += 1
    return labels


def equalize_by_sort(rows, valid, sizes, centroids):
    """The wave's equal-size adjustment as one row-wise stable sort."""
    preference = np.where(valid, two_means_tree._project(rows, centroids),
                          -np.inf)
    order = np.argsort(preference, axis=1, kind="stable")
    width = valid.shape[1]
    top_half = np.arange(width) >= (width - sizes // 2)[:, None]
    balanced = np.empty(valid.shape, dtype=bool)
    np.put_along_axis(balanced, order, top_half, axis=1)
    return balanced


class CountingGenerator(np.random.Generator):
    """Counts seed pairs (the Lloyd bisection's seed draws) and
    ``permutation`` calls (its degenerate-split repairs).

    The heap tree draws one pair per ``choice`` call; the wave tree draws a
    whole wave's pairs in one ``integers`` call, three bounds per node."""

    def __init__(self, seed):
        super().__init__(np.random.PCG64(seed))
        self.n_seed_pairs = self.n_permutations = 0

    def choice(self, *args, **kwargs):
        self.n_seed_pairs += 1
        return super().choice(*args, **kwargs)

    def integers(self, low, high=None, *args, **kwargs):
        self.n_seed_pairs += np.size(high) // 3
        return super().integers(low, high, *args, **kwargs)

    def permutation(self, *args, **kwargs):
        self.n_permutations += 1
        return super().permutation(*args, **kwargs)


# ---------------------------------------------------------------------- #
# Fixtures
# ---------------------------------------------------------------------- #
@pytest.fixture(scope="module", params=["sift_small", "blob_data"])
def points(request, sift_small, blob_data):
    """float64 rows of the two shared datasets."""
    return sift_small if request.param == "sift_small" else blob_data[0]


@pytest.fixture(scope="module")
def tie_free():
    """float64 Gaussian rows: no sample within rounding of a bisecting plane,
    no two equal distances."""
    return np.random.default_rng(11).normal(size=(500, 8))


def distortion(data, labels, n_clusters):
    return ClusterState(data, labels, n_clusters).distortion


def clustering_space(data, metric, dtype):
    """What ``build_knn_graph_by_clustering`` hands its refinement step."""
    outer = DistanceEngine(metric, dtype)
    data = outer.prepare_clustering(data)
    engine = outer.clustering_engine()
    return data, engine, engine.norms(data)


def uneven_labels(n, n_clusters, rng):
    """A labelling with an empty cluster, a singleton and one big cluster."""
    labels = rng.integers(3, n_clusters, size=n)
    labels[labels == 3] = 4                 # cluster 3 (and 0, 1) stay empty
    labels[0] = 2                           # cluster 2 is {0}
    labels[rng.random(n) < 0.2] = 5         # cluster 5 outgrows max_block
    labels[0] = 2
    return labels


# ---------------------------------------------------------------------- #
# Merge
# ---------------------------------------------------------------------- #
class TestMergeAgainstPerClusterLoop:
    @pytest.mark.parametrize("metric", ["sqeuclidean", "cosine"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_identical_ids_order_distances_count_and_draws(
            self, points, dtype, metric):
        data, engine, norms = clustering_space(points, metric, dtype)
        n, n_clusters, kappa, max_block = data.shape[0], 14, 8, 40
        graph = random_knn_graph(data, kappa, random_state=3, engine=engine)
        batched = graph.indices.copy(), graph.distances.copy()
        looped = graph.indices.copy(), graph.distances.copy()
        batched_rng, looped_rng = (np.random.default_rng(5) for _ in "ab")
        label_rng = np.random.default_rng(9)
        # Three rounds on the evolving graph: from the second on, rows
        # already hold many of their cluster mates.
        for _ in range(3):
            labels = uneven_labels(n, n_clusters, label_rng)
            sizes = np.bincount(labels, minlength=n_clusters)
            assert sizes.max() > max_block and 0 in sizes and 1 in sizes
            count = _merge_clusters(*batched, labels, n_clusters, data,
                                    kappa, max_block, batched_rng, engine,
                                    norms)
            assert count == merge_clusters_reference(
                *looped, labels, n_clusters, data, kappa, max_block,
                looped_rng, engine, norms)
            sizes = np.minimum(sizes, max_block)
            assert count == int(np.sum(sizes * (sizes - 1) // 2))
            assert np.array_equal(batched[0], looped[0])
            assert np.array_equal(batched[1], looped[1])
            assert (batched_rng.bit_generator.state
                    == looped_rng.bit_generator.state)
        assert not np.array_equal(batched[0], graph.indices)

    def test_row_chunk_does_not_change_the_result(self, sift_small,
                                                  monkeypatch):
        data, engine, norms = clustering_space(sift_small, "sqeuclidean",
                                               np.float32)
        labels = np.random.default_rng(0).integers(0, 40, size=len(data))
        graph = random_knn_graph(data, 6, random_state=0, engine=engine)
        outcomes = []
        for chunk in (construction.ROW_CHUNK, 1):
            monkeypatch.setattr(construction, "ROW_CHUNK", chunk)
            indices, distances = graph.indices.copy(), graph.distances.copy()
            _merge_clusters(indices, distances, labels, 40, data, 6, 200,
                            np.random.default_rng(0), engine, norms)
            outcomes.append((indices, distances))
        assert np.array_equal(outcomes[0][0], outcomes[1][0])
        assert np.array_equal(outcomes[0][1], outcomes[1][1])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_tie_heavy_integer_rows_match_bitwise(self, dtype):
        # Points on a {0, 1, 2}³ grid: distances are small integers, so
        # most rows have a candidate at exactly their κ-th distance.
        for seed in range(6):
            rng = np.random.default_rng(seed)
            points = rng.integers(0, 3, size=(600, 3)).astype(np.float64)
            data, engine, norms = clustering_space(points, "sqeuclidean",
                                                   dtype)
            graph = random_knn_graph(data, 12, random_state=seed,
                                     engine=engine)
            batched = graph.indices.copy(), graph.distances.copy()
            looped = graph.indices.copy(), graph.distances.copy()
            batched_rng, looped_rng = (np.random.default_rng(seed)
                                       for _ in "ab")
            for _ in range(4):
                labels = rng.integers(0, 8, size=len(data))
                _merge_clusters(*batched, labels, 8, data, 12, 150,
                                batched_rng, engine, norms)
                merge_clusters_reference(*looped, labels, 8, data, 12, 150,
                                         looped_rng, engine, norms)
                assert np.array_equal(batched[0], looped[0])
                assert np.array_equal(batched[1], looped[1])
            assert (batched[1][:, -1][:, None] == batched[1][:, :-1]).any()

    def test_a_row_no_candidate_beats_keeps_its_bytes(self):
        # The exact 12-NN lists of integer points: no cluster mate is
        # strictly nearer than a row's 12th neighbour, though many tie it.
        points = np.random.default_rng(4).integers(
            0, 3, size=(500, 3)).astype(np.float64)
        data, engine, norms = clustering_space(points, "sqeuclidean",
                                               np.float64)
        exact = engine.pairwise(data, norms)
        np.fill_diagonal(exact, np.inf)
        indices = np.argsort(exact, axis=1, kind="stable")[:, :12]
        distances = np.take_along_axis(exact, indices, axis=1)
        labels = np.random.default_rng(5).integers(0, 6, size=len(data))
        before = indices.tobytes(), distances.tobytes()
        tied = 0
        for cluster in range(6):
            members = np.flatnonzero(labels == cluster)
            block = exact[np.ix_(members, members)]
            tied += int(np.sum(block.min(axis=1)
                               == distances[members, -1]))
        assert tied > 100
        _merge_clusters(indices, distances, labels, 6, data, 12, 500,
                        np.random.default_rng(0), engine, norms)
        assert (indices.tobytes(), distances.tobytes()) == before

    def test_rows_stay_sorted_unique_and_free_of_self(self, points):
        data, engine, norms = clustering_space(points, "sqeuclidean",
                                               np.float64)
        graph = random_knn_graph(data, 5, random_state=1, engine=engine)
        indices, distances = graph.indices.copy(), graph.distances.copy()
        labels = np.random.default_rng(2).integers(0, 9, size=len(data))
        _merge_clusters(indices, distances, labels, 9, data, 5, 30,
                        np.random.default_rng(0), engine, norms)
        assert np.all(np.diff(distances, axis=1) >= 0)
        assert np.all(distances <= graph.distances)
        ranked = np.sort(indices, axis=1)
        assert np.all(ranked[:, 1:] != ranked[:, :-1])
        assert np.all(indices != np.arange(len(data))[:, None])


# ---------------------------------------------------------------------- #
# Tree
# ---------------------------------------------------------------------- #
class TestTreeAgainstHeapLoop:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n_clusters", [2, 13, 64])
    def test_sizes_numbering_and_seed_draws_match_for_every_seed(
            self, points, n_clusters, dtype):
        # Under ``equal_size`` the profile depends on (n, k) alone.
        for seed in range(5):
            waves, heap = CountingGenerator(seed), CountingGenerator(seed)
            new = two_means_labels(points, n_clusters, random_state=waves,
                                   dtype=dtype)
            old = heap_tree_labels(points, n_clusters, random_state=heap,
                                   dtype=dtype)
            assert np.array_equal(np.bincount(new, minlength=n_clusters),
                                  np.bincount(old, minlength=n_clusters))
            assert waves.n_seed_pairs == heap.n_seed_pairs == n_clusters - 1
            assert waves.bit_generator.state == heap.bit_generator.state

    @pytest.mark.parametrize("equal_size", [True, False])
    @pytest.mark.parametrize("metric", ["sqeuclidean", "cosine"])
    def test_labels_and_random_stream_identical_without_near_ties(
            self, tie_free, metric, equal_size):
        for seed, n_clusters in [(0, 7), (1, 32), (2, 100)]:
            waves, heap = (np.random.default_rng(seed) for _ in "ab")
            new = two_means_labels(tie_free, n_clusters, random_state=waves,
                                   equal_size=equal_size, metric=metric)
            old = heap_tree_labels(tie_free, n_clusters, random_state=heap,
                                   equal_size=equal_size, metric=metric)
            assert np.array_equal(new, old)
            assert waves.bit_generator.state == heap.bit_generator.state

    def test_wave_width_does_not_change_the_labels(self, tie_free,
                                                   monkeypatch):
        whole = two_means_labels(tie_free, 40, random_state=3)
        monkeypatch.setattr(two_means_tree, "WAVE_ROWS", 1)   # one node a wave
        assert np.array_equal(
            two_means_labels(tie_free, 40, random_state=3), whole)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_distortion_within_one_percent_of_the_heap_tree(self, points,
                                                            dtype):
        n_clusters = 12
        data = points.astype(dtype)
        new, old = (np.mean([
            distortion(data, tree(data, n_clusters, random_state=seed,
                                  dtype=dtype), n_clusters)
            for seed in range(5)]) for tree in (two_means_labels,
                                                heap_tree_labels))
        assert new <= 1.01 * old

    @pytest.mark.parametrize("equal_size", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_duplicated_rows_are_repaired_inside_a_wave(self, dtype,
                                                        equal_size):
        # Three points repeated 40 times each beside 80 distinct rows: below
        # the first levels a wave mixes nodes of identical rows (both seeds
        # equal, nothing closer to either, split repaired by a random
        # halving) with ordinary nodes.
        rng = np.random.default_rng(4)
        data = np.concatenate([np.repeat(rng.normal(size=(3, 5)), 40, axis=0),
                               rng.normal(size=(80, 5))]).astype(dtype)
        n_clusters = 50
        waves = CountingGenerator(0)
        labels = two_means_labels(data, n_clusters, random_state=waves,
                                  equal_size=equal_size, dtype=dtype)
        assert waves.n_seed_pairs == n_clusters - 1
        assert waves.n_permutations > 0
        sizes = np.bincount(labels, minlength=n_clusters)
        assert sizes.min() >= 1 and sizes.sum() == len(data)
        if equal_size:
            assert np.array_equal(sizes, np.bincount(heap_tree_labels(
                data, n_clusters, random_state=0, dtype=dtype)))
        assert np.array_equal(labels, two_means_labels(
            data, n_clusters, random_state=0, equal_size=equal_size,
            dtype=dtype))

    def test_all_rows_identical(self):
        labels = two_means_labels(np.ones((64, 3)), 8, random_state=0)
        assert np.array_equal(np.bincount(labels), np.full(8, 8))


def same_state(a, b):
    """Equal bit-generator states, array fields (MT19937's key) included."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@st.composite
def tie_heavy_waves(draw):
    """A padded wave whose projections are small integers, exact in float32.

    Rows and centroids hold integers in ``[-2, 2]``, so every projection is
    a multiple of ½ with few distinct values; a node whose two centroids
    coincide projects every slot to 0 (a row of which every slot is tied).
    Padding slots hold values too, as they do in a wave's gather."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    width = draw(st.integers(2, 40))
    n_nodes = draw(st.integers(1, 6))
    dims = draw(st.integers(1, 3))
    sizes = np.array(draw(st.lists(st.integers(2, width), min_size=n_nodes,
                                   max_size=n_nodes)), dtype=np.int64)
    sizes[draw(st.integers(0, n_nodes - 1))] = width
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    rows = rng.integers(-2, 3, size=(n_nodes, width, dims)).astype(dtype)
    centroids = rng.integers(-2, 3, size=(n_nodes, 2, dims)).astype(dtype)
    tied = rng.random(n_nodes) < 0.25
    centroids[tied, 1] = centroids[tied, 0]
    valid = np.arange(width) < sizes[:, None]
    return rows, valid, sizes, centroids


class TestWaveStepsAgainstPerNodeOracles:
    @pytest.mark.parametrize("bit_generator", [np.random.PCG64,
                                               np.random.MT19937])
    def test_wave_seed_draw_is_the_per_node_choice_stream(self,
                                                          bit_generator):
        # The tree relies on how ``Generator.choice`` spends the stream for
        # two distinct values; a numpy release that changes it fails here.
        sampler = np.random.default_rng(5)
        for wave in range(40):
            n_nodes = int(sampler.integers(1, 1001))
            sizes = np.where(sampler.random(n_nodes) < 0.5,
                             sampler.integers(2, 64, size=n_nodes),
                             sampler.integers(2, 20001, size=n_nodes))
            ours, theirs = (np.random.Generator(bit_generator(wave))
                            for _ in "ab")
            if wave % 2:
                # A 32-bit draw; PCG64 keeps the other half of its 64-bit
                # word buffered for the next one.
                ours.integers(0, 7)
                theirs.integers(0, 7)
                assert ours.bit_generator.state.get("has_uint32", 1) == 1
            seeds = two_means_tree._draw_seed_pairs(sizes, ours)
            expected = np.stack([theirs.choice(size, size=2, replace=False)
                                 for size in sizes.tolist()])
            assert np.array_equal(seeds, expected)
            assert same_state(ours.bit_generator.state,
                              theirs.bit_generator.state)

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_waves())
    def test_selection_marks_the_stable_sort_top_half(self, wave):
        rows, valid, sizes, centroids = wave
        balanced = two_means_tree._equalize(rows, valid, sizes, centroids)
        assert np.array_equal(balanced,
                              equalize_by_sort(rows, valid, sizes, centroids))
        assert np.array_equal(balanced.sum(axis=1), sizes // 2)


# ---------------------------------------------------------------------- #
# Both together: the graph Alg. 3 builds
# ---------------------------------------------------------------------- #
class TestBuiltGraph:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_recall_within_half_a_percent_of_the_loop_build(
            self, sift_small, sift_small_graph, dtype, monkeypatch):
        def recall():
            return np.mean([graph_recall(build_knn_graph_by_clustering(
                sift_small, 10, tau=5, cluster_size=30, random_state=seed,
                dtype=dtype).graph, sift_small_graph) for seed in range(3)])

        batched = recall()
        monkeypatch.setattr(two_means_tree, "two_means_labels",
                            heap_tree_labels)
        monkeypatch.setattr(construction, "_merge_clusters",
                            merge_clusters_reference)
        looped = recall()
        assert abs(batched - looped) <= 0.005
        assert batched > 0.75
