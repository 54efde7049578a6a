"""Oracles for one round of the blocked boost sweep.

``ClusterState.move_best_block`` scores only the distinct (sample, cluster)
pairs that are real moves; the round that scored every candidate entry
densely lives here as ``dense_move_best_block`` and must make the same moves
bitwise.  ``ClusterState.move_block`` applies a round's movers in order by
prefix sums over the clusters they name; ``sequential_move_block`` is the
same rule as a loop of ``ClusterState.move``.
``tests/test_cluster_objective.py`` compares them round by round,
``tests/test_boost_pass_contract.py`` through a whole graph build and fit.

``graph_guided_boost_pass`` does not re-score a sample whose clusters are
unchanged since it was last scored; ``unskipped_boost_pass`` is the sweep
that scores every visited sample, and
``tests/test_settled_skip_contract.py`` holds the two to the same labels.
"""

import numpy as np

from repro.cluster.gkmeans import candidate_label_block
from repro.cluster.objective import BLOCK


def dense_delta_objective_block(state, samples, candidates):
    """ΔI of moving ``samples[b]`` to each of ``candidates[b, :]``; own = 0."""
    samples = np.asarray(samples, dtype=np.int64)
    candidates = np.asarray(candidates, dtype=np.int64)
    x = state._data[samples].astype(np.float64, copy=False)
    x_sq = state._sample_sq_norms[samples]
    source = state.labels[samples]

    source_count = state.counts[source].astype(np.float64)
    source_sq = state._composite_sq_norms[source]
    removed_sq = (source_sq - 2.0 * np.einsum(
        "bd,bd->b", state.composites[source], x) + x_sq)
    source_term = np.where(
        source_count > 1.0,
        removed_sq / np.maximum(source_count - 1.0, 1.0), 0.0
    ) - source_sq / source_count

    cand_counts = state.counts[candidates].astype(np.float64)
    cand_sq = state._composite_sq_norms[candidates]
    cand_dot = np.einsum("bd,bcd->bc", x, state.composites[candidates])
    grown_sq = cand_sq + 2.0 * cand_dot + x_sq[:, None]
    deltas = (grown_sq / (cand_counts + 1.0)
              - cand_sq / np.maximum(cand_counts, 1.0)
              + source_term[:, None])
    deltas[candidates == source[:, None]] = 0.0
    return deltas


def dense_move_best_block(state, samples, candidates, apply=None):
    """The dense round: same contract as ``ClusterState.move_best_block``.

    Its movers are applied by ``apply(state, samples, targets)``, by default
    ``ClusterState.move_block`` given their scored gains.
    """
    deltas = dense_delta_objective_block(state, samples, candidates)
    best = np.argmax(deltas, axis=1)
    movers = np.flatnonzero(deltas[np.arange(samples.size), best] > 0.0)
    samples = samples[movers]
    targets = candidates[movers, best[movers]]
    if apply is None:
        applied = state.move_block(samples, targets,
                                   deltas[movers, best[movers]])
    else:
        applied = apply(state, samples, targets)
    return samples[~applied], int(np.count_nonzero(applied))


def sequential_move_block(state, samples, targets):
    """``ClusterState.move_block``'s rule, one ``ClusterState.move`` at a time.

    A move is applied iff neither of its clusters is held, its source is not
    its target, its source keeps another member (or no earlier move named
    the source) and its ΔI on the current state is positive; otherwise both
    its clusters are held for the rest of the batch.
    """
    applied = np.zeros(len(samples), dtype=bool)
    named, held = set(), set()
    for i, (sample, target) in enumerate(zip(map(int, samples),
                                             map(int, targets))):
        source = int(state.labels[sample])
        if (source not in held and target not in held and source != target
                and (state.counts[source] > 1 or source not in named)
                and state.delta_objective(sample, np.array([target]))[0] > 0.0):
            state.move(sample, target)
            applied[i] = True
        else:
            held.update((source, target))
        named.update((source, target))
    return applied


def unskipped_boost_pass(state, neighbor_indices, rng):
    """``graph_guided_boost_pass`` scoring every visited sample: each block's
    rounds until no held-back mover is left, nothing skipped or stamped."""
    labels = state.labels
    moves = 0
    order = rng.permutation(neighbor_indices.shape[0])
    for start in range(0, order.size, BLOCK):
        pending = order[start:start + BLOCK]
        while pending.size:
            pending = pending[state.counts[labels[pending]] > 1]
            candidates = candidate_label_block(
                labels, neighbor_indices[pending], labels[pending])
            candidates.sort(axis=1)
            pending, applied = state.move_best_block(pending, candidates)
            moves += applied
    return moves
