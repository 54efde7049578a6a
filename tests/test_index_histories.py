"""Generated mutation histories over the one index class, at 1, 2 and 3 shards.

A hypothesis state machine drives one :class:`~repro.index.Index` through
inserts (auto ids, and caller ids in descending order, compacted ids
included), deletes, compactions, rebalances and save/load round trips.
After every step:

* searches equal the rebuild-from-scratch oracle over the live rows up to
  bitwise distance ties (``test_mutations``' exhaustive spec, oracle and
  tie rule: every shard keeps enough live rows for its walk to stay
  exhaustive);
* ``data``, ``ids`` and ``live_mask`` are aligned row for row, ascending
  in id, each row the vector inserted under its id, and their live rows
  are ``evaluation_corpus``;
* ``next_id`` never falls and no generation ever decreases;

and a save/load round trip answers bitwise what the saved index answered.
"""

import shutil
import tempfile

import numpy as np
from hypothesis import assume, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.datasets import make_sift_like
from repro.exceptions import ValidationError
from repro.index import Index

from test_mutations import (
    _assert_rows_match_up_to_ties,
    _exhaustive_spec,
    _rebuild_oracle,
)

N_BASE, N_EXTRA, D, K = 150, 60, 8, 6
#: Live rows every shard keeps: with κ = 12 its graph is connected and the
#: pool covers it, so its walk is exhaustive and the oracle applies.
MIN_LIVE = 13
_ROWS = make_sift_like(N_BASE + N_EXTRA + 8, D, random_state=31)
BASE, EXTRA, QUERIES = (_ROWS[:N_BASE], _ROWS[N_BASE:N_BASE + N_EXTRA],
                        _ROWS[N_BASE + N_EXTRA:])


class IndexHistory(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.index = None
        self.directory = tempfile.mkdtemp(prefix="index-history-")
        self.saves = 0

    @initialize(n_shards=st.sampled_from([1, 2, 3]),
                partitioner=st.sampled_from(["round_robin", "gkmeans"]),
                engine=st.sampled_from([("sqeuclidean", "float64"),
                                        ("cosine", "float32")]))
    def build(self, n_shards, partitioner, engine):
        self.metric, self.dtype = engine
        self.rtol = 1e-9 if self.dtype == "float64" else 1e-5
        # The pool covers every row the index can ever hold.
        spec = _exhaustive_spec(N_BASE + N_EXTRA, self.metric, self.dtype,
                                n_shards=n_shards, partitioner=partitioner)
        self.index = Index.build(BASE, spec)
        assume(min(self.index.shard_sizes) >= MIN_LIVE)
        #: The vector inserted under each id, the oracle's corpus.
        self.rows = {i: row for i, row in enumerate(BASE)}
        self.cursor = 0
        self._note_counters()

    def teardown(self) -> None:
        if self.index is not None:
            self.index.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    def _note_counters(self) -> None:
        self.next_id = self.index._next_id
        self.generations = (self.index.generation,
                            *self.index.shard_generations)

    def _take(self, count: int) -> np.ndarray:
        rows = EXTRA[self.cursor:self.cursor + count]
        self.cursor += rows.shape[0]
        return rows

    @rule(count=st.integers(1, 6))
    def insert_auto_ids(self, count):
        vectors = self._take(count)
        assume(vectors.shape[0] > 0)
        new_ids = self.index.insert(vectors)
        assert np.array_equal(new_ids, np.arange(self.next_id,
                                                 self.next_id + count))
        self.rows.update(zip(new_ids.tolist(), vectors))

    @rule(count=st.integers(1, 6), seed=st.integers(0, 2**16))
    def insert_descending_caller_ids(self, count, seed):
        """Fresh ids and ids compaction freed, in descending order."""
        vectors = self._take(count)
        assume(vectors.shape[0] > 0)
        held = set(self.index.ids.tolist())
        free = [i for i in range(self.next_id + 20) if i not in held]
        ids = np.random.default_rng(seed).choice(free, size=len(vectors),
                                                 replace=False)
        ids = np.sort(ids)[::-1]
        assert np.array_equal(self.index.insert(vectors, ids=ids), ids)
        self.rows.update(zip(ids.tolist(), vectors))

    @rule(count=st.integers(1, 12), seed=st.integers(0, 2**16))
    def delete(self, count, seed):
        live = [shard.ids[shard.live_mask] for shard in self.index.shards]
        rng = np.random.default_rng(seed)
        doomed = [rng.choice(ids, size=min(count, ids.size - MIN_LIVE),
                             replace=False)
                  for ids in live if ids.size > MIN_LIVE]
        assume(doomed)
        doomed = np.concatenate(doomed)
        assert self.index.delete(doomed) == doomed.size
        assert not np.isin(doomed, self.index.ids[self.index.live_mask]).any()

    @rule()
    def compact(self):
        tombstones = self.index.n_tombstones
        assert self.index.compact() == tombstones
        assert self.index.n_tombstones == 0

    @rule()
    def rebalance(self):
        rows, ids = self.index.evaluation_corpus
        try:
            report = self.index.rebalance()
        except ValidationError:
            # The partition starves a shard: nothing moved.
            assert np.array_equal(self.index.evaluation_corpus[1], ids)
            return
        assert np.array_equal(self.index.ids, ids)
        assert sum(report.shard_sizes_after) == ids.size
        assume(min(report.shard_sizes_after) >= MIN_LIVE)

    @rule()
    def save_and_load(self):
        path = f"{self.directory}/index-{self.saves}"
        self.saves += 1
        self.index.save(path)
        before = self.index.search(QUERIES, K)
        loaded = Index.load(path)
        after = loaded.search(QUERIES, K)
        for got, want in zip((*after, after.evaluations),
                             (*before, before.evaluations)):
            assert got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert loaded.generation == self.index.generation
        assert loaded.shard_generations == self.index.shard_generations
        assert loaded._next_id == self.index._next_id
        self.index.close()
        self.index = loaded

    @invariant()
    def answers_match_the_rebuild_oracle(self):
        if self.index is None:
            return
        _, live_ids = self.index.evaluation_corpus
        full = np.zeros((max(self.rows) + 1, D))
        for i, row in self.rows.items():
            full[i] = row
        oracle = _rebuild_oracle(full, live_ids, self.metric, self.dtype)
        o_idx, o_dist = oracle(QUERIES, K)
        s_idx, s_dist = self.index.search(QUERIES, K)
        _assert_rows_match_up_to_ties(s_idx, s_dist, o_idx, o_dist,
                                      rtol=self.rtol, label="history")
        single = self.index.search(QUERIES[0], K)
        assert np.array_equal(single.indices, s_idx[0])

    @invariant()
    def rows_are_aligned_with_the_corpus(self):
        if self.index is None:
            return
        index = self.index
        data, ids, live = index.data, index.ids, index.live_mask
        assert data.shape[0] == ids.size == live.size == index.n_rows
        assert np.all(np.diff(ids) > 0)
        assert np.array_equal(
            data, np.array([self.rows[i] for i in ids.tolist()],
                           dtype=data.dtype))
        corpus_rows, corpus_ids = index.evaluation_corpus
        assert np.array_equal(corpus_rows, data[live])
        assert np.array_equal(corpus_ids, ids[live])
        assert np.array_equal(index.tombstone_ids, ids[~live])

    @invariant()
    def counters_never_fall(self):
        if self.index is None:
            return
        generations = (self.index.generation,
                       *self.index.shard_generations)
        assert self.index._next_id >= self.next_id
        assert all(new >= old for new, old in zip(generations,
                                                  self.generations))
        self._note_counters()


IndexHistory.TestCase.settings = settings(
    max_examples=40, stateful_step_count=15, deadline=None)
TestIndexHistory = IndexHistory.TestCase
