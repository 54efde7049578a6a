"""Oracle for one round of the blocked boost sweep: the dense round.

``ClusterState.move_best_block`` scores only the distinct (sample, cluster)
pairs that are real moves and finds conflicting movers with a scatter.  The
round it replaced — every candidate entry scored, conflicts found by a stable
sort, sources and targets updated separately — lives here, and the new round
must match it bitwise.  ``tests/test_cluster_objective.py`` compares them
round by round, ``tests/test_boost_pass_contract.py`` through a whole graph
build and fit.
"""

import numpy as np


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


def argsort_first_mover_rule(sources, targets):
    """Moves whose clusters no earlier move names, by a stable sort."""
    touched = np.stack([sources, targets], axis=1).ravel()
    order = np.argsort(touched, kind="stable")
    opens_run = np.ones(touched.size, dtype=bool)
    opens_run[1:] = touched[order[1:]] != touched[order[:-1]]
    is_first = np.empty(touched.size, dtype=bool)
    is_first[order] = opens_run
    return is_first.reshape(-1, 2).all(axis=1)


def dense_move_block(state, samples, targets):
    """Apply the conflict-free moves with separate source/target updates."""
    samples = np.asarray(samples, dtype=np.int64)
    targets = np.asarray(targets, dtype=np.int64)
    sources = state.labels[samples]
    applied = argsort_first_mover_rule(sources, targets)
    samples, sources, targets = (samples[applied], sources[applied],
                                 targets[applied])
    x = state._data[samples].astype(np.float64, copy=False)
    x_sq = state._sample_sq_norms[samples]
    state._composite_sq_norms[sources] += x_sq - 2.0 * np.einsum(
        "bd,bd->b", state.composites[sources], x)
    state.composites[sources] -= x
    state.counts[sources] -= 1
    state._composite_sq_norms[targets] += x_sq + 2.0 * np.einsum(
        "bd,bd->b", state.composites[targets], x)
    state.composites[targets] += x
    state.counts[targets] += 1
    state.labels[samples] = targets
    return applied


def dense_move_best_block(state, samples, candidates):
    """The dense round: same contract as ``ClusterState.move_best_block``."""
    deltas = dense_delta_objective_block(state, samples, candidates)
    best = np.argmax(deltas, axis=1)
    movers = np.flatnonzero(deltas[np.arange(samples.size), best] > 0.0)
    samples = samples[movers]
    applied = dense_move_block(state, samples,
                               candidates[movers, best[movers]])
    return samples[~applied], int(np.count_nonzero(applied))
