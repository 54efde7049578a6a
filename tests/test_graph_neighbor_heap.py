"""Tests for the bounded neighbour lists (NeighborHeap) of the NN-Descent
oracle."""

import numpy as np
import pytest
from _nndescent_oracle import NeighborHeap, to_graph
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError


class TestPush:
    def test_basic_insert(self):
        heap = NeighborHeap(4, 2)
        assert heap.push(0, 1, 5.0)
        assert heap.indices[0, 0] == 1
        assert heap.distances[0, 0] == 5.0

    def test_self_loop_rejected(self):
        heap = NeighborHeap(3, 2)
        assert not heap.push(1, 1, 0.0)

    def test_duplicate_rejected(self):
        heap = NeighborHeap(3, 2)
        heap.push(0, 1, 5.0)
        assert not heap.push(0, 1, 3.0)

    def test_worse_than_worst_rejected_when_full(self):
        heap = NeighborHeap(3, 2)
        heap.push(0, 1, 1.0)
        heap.push(0, 2, 2.0)
        assert not heap.push(0, 1, 3.0)
        assert heap.worst_distance(0) == 2.0

    def test_better_candidate_displaces_worst(self):
        heap = NeighborHeap(4, 2)
        heap.push(0, 1, 5.0)
        heap.push(0, 2, 6.0)
        assert heap.push(0, 3, 1.0)
        assert heap.indices[0].tolist() == [3, 1]
        assert 2 not in heap.indices[0]

    def test_rows_stay_sorted(self):
        heap = NeighborHeap(2, 4)
        rng = np.random.default_rng(0)
        for neighbor, dist in enumerate(rng.uniform(0, 10, 20)):
            heap.push(0, neighbor + 10 if neighbor + 10 < 2 else neighbor + 2,
                      float(dist))
        row = heap.distances[0]
        assert np.all(np.diff(row[np.isfinite(row)]) >= 0)

    def test_push_symmetric_updates_both(self):
        heap = NeighborHeap(3, 2)
        changed = heap.push_symmetric(0, 1, 2.0)
        assert changed == 2
        assert heap.indices[0, 0] == 1
        assert heap.indices[1, 0] == 0

    def test_flags_recorded(self):
        heap = NeighborHeap(3, 2)
        heap.push(0, 1, 1.0, flag=True)
        heap.push(0, 2, 2.0, flag=False)
        assert heap.flags[0, 0]
        assert not heap.flags[0, 1]
        heap.mark_all_old()
        assert not heap.flags.any()

    def test_neighbors_of_excludes_padding(self):
        heap = NeighborHeap(3, 4)
        heap.push(0, 1, 1.0)
        assert heap.neighbors_of(0).tolist() == [1]


class TestValidate:
    def test_valid_heap_passes(self):
        heap = NeighborHeap(5, 3)
        rng = np.random.default_rng(1)
        for _ in range(40):
            i, j = rng.integers(0, 5, 2)
            heap.push(int(i), int(j), float(rng.uniform(0, 10)))
        heap.validate()

    def test_corrupted_order_detected(self):
        heap = NeighborHeap(2, 2)
        heap.push(0, 1, 1.0)
        heap.distances[0, 0] = 50.0
        heap.distances[0, 1] = 1.0
        heap.indices[0, 1] = 1
        with pytest.raises(GraphError):
            heap.validate()

    def test_self_loop_detected(self):
        heap = NeighborHeap(2, 1)
        heap.indices[0, 0] = 0
        heap.distances[0, 0] = 0.0
        with pytest.raises(GraphError, match="self-loop"):
            heap.validate()


class TestToArrays:
    def test_copies_returned(self):
        heap = NeighborHeap(2, 2)
        heap.push(0, 1, 1.0)
        indices, distances = heap.to_arrays()
        indices[0, 0] = 99
        assert heap.indices[0, 0] == 1

    def test_to_graph(self):
        heap = NeighborHeap(3, 2, metric="cosine")
        heap.push_symmetric(0, 1, 1.0)
        heap.push_symmetric(1, 2, 2.0)
        graph = to_graph(heap)
        assert graph.n_points == 3
        assert graph.indices[0, 0] == 1
        assert graph.metric == "cosine"


class TestPropertyBased:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9),
                              st.floats(0, 100, allow_nan=False)),
                    min_size=1, max_size=200))
    def test_invariants_hold_after_any_push_sequence(self, pushes):
        heap = NeighborHeap(10, 4)
        for point, neighbor, distance in pushes:
            heap.push(point, neighbor, distance)
        heap.validate()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0, 1000, allow_nan=False), min_size=1,
                    max_size=60))
    def test_keeps_k_smallest(self, distances):
        """After pushing distinct neighbours, the heap holds the k smallest."""
        heap = NeighborHeap(200, 5)
        for neighbor, distance in enumerate(distances):
            heap.push(0, neighbor + 1, float(distance))
        kept = heap.distances[0][np.isfinite(heap.distances[0])]
        expected = np.sort(np.asarray(distances))[: len(kept)]
        assert np.allclose(np.sort(kept), expected)
