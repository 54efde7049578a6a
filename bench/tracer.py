"""Outside-in tracer: spans around the public callables of every layer.

Nothing in ``src/`` knows about this module.  :meth:`Tracer.install` swaps a
fixed table of callables (:data:`TARGETS`) for timing wrappers and
:meth:`Tracer.uninstall` puts the originals back, so the untraced section of
a run executes exactly the code a user would.

Two properties of the program shape the implementation:

* Module-level functions are imported *by value* all over ``repro``
  (``from .frontier import frontier_batch_search``), so a wrapper is rebound
  in every loaded ``repro.*`` module whose attribute **is** the original.
* Span stacks are thread-local and only synchronous callables are wrapped.
  ``CoalescingServer.search`` is a coroutine interleaved on one thread — a
  stack span around it would nest unrelated requests — so the ``serving``
  layer is measured from ``RequestStats`` and client clocks instead.

A span is ``(id, parent id, name, thread, start, end, self seconds, op)``;
*self* is the duration minus the child spans on the same thread, and ``op``
is the index of the workload operation that was running (``-1`` during
set-up).  Counts the API already returns are read at the same boundaries
(``TARGETS[...].counts``) into :attr:`Tracer.counters`, keyed by
``(counter, op)``.
"""

from __future__ import annotations

import collections
import importlib
import itertools
import sys
import threading
import time
from typing import Callable, NamedTuple

import numpy as np

__all__ = ["TARGETS", "ROOT", "Target", "Tracer", "Trace"]

#: Name of the span the harness opens around every workload operation.
ROOT = "trace.op"


class Target(NamedTuple):
    """One wrapped callable: ``layer.span`` names the spans it produces."""

    layer: str
    span: str
    module: str
    attr: str                      # "function" or "Class.method"
    counts: Callable | None = None  # (args, kwargs, result) -> [(key, n)]


def _walk_counts(args, kwargs, result):
    stats = result[3]
    return [("search.walk_queries", stats.n_queries),
            ("search.rounds", stats.n_rounds),
            ("search.gemms", stats.n_gemms)]


def _facade_search_counts(args, kwargs, result):
    index = args[0]
    k = args[2] if len(args) > 2 else kwargs.get("n_results", 10)
    return [("distance.evals", index.last_n_evaluations),
            ("facade.searches", 1),
            ("facade.fetched", k + index.n_tombstones)]


def _sharded_search_counts(args, kwargs, result):
    index = args[0]
    queries = np.asarray(args[1] if len(args) > 1 else kwargs["queries"])
    stats = index.last_serving_stats
    if stats is not None:
        return [("sharded.probed", sum(stats.queries_per_shard)),
                ("sharded.queries", stats.n_queries)]
    # Single-vector calls publish no stats record; they fan out to every
    # shard unless a probe is given, which no workload does for them.
    n_queries = 1 if queries.ndim == 1 else queries.shape[0]
    return [("sharded.probed", index.n_shards * n_queries),
            ("sharded.queries", n_queries)]


def _fit_counts(args, kwargs, result):
    outcome = result.result_
    return [("cluster.fits", 1),
            ("cluster.iterations", outcome.n_iterations),
            ("cluster.evals", outcome.extra["n_distance_evaluations"]),
            ("cluster.init_s", outcome.init_seconds)]


#: The fixed table of wrapped callables, grouped by layer.
TARGETS = (
    Target("distance", "cross", "repro.distance.engine",
           "DistanceEngine.cross"),
    Target("distance", "q_block", "repro.distance.quantized",
           "QuantizedScorer.block"),
    Target("distance", "q_prepare", "repro.distance.quantized",
           "QuantizedScorer.prepare_queries"),
    Target("graph", "construct", "repro.graph.construction",
           "build_knn_graph_by_clustering",
           lambda a, k, r: [("graph.construct_evals",
                             r.n_distance_evaluations)]),
    Target("graph", "refine_neighborhood", "repro.graph.repair",
           "refine_neighborhood"),
    Target("graph", "push_back_edges", "repro.graph.repair",
           "push_back_edges"),
    Target("graph", "csr_pack", "repro.graph.csr", "CSRAdjacency.from_rows"),
    Target("cluster", "fit", "repro.cluster.gkmeans", "GKMeans.fit",
           _fit_counts),
    Target("cluster", "boost_pass", "repro.cluster.gkmeans",
           "graph_guided_boost_pass"),
    Target("cluster", "two_means", "repro.cluster.two_means_tree",
           "two_means_labels"),
    Target("search", "seed", "repro.search._seeding", "seed_entry_points"),
    Target("search", "frontier_walk", "repro.search.frontier",
           "frontier_batch_search", _walk_counts),
    Target("search", "beam_walk", "repro.search.quantized",
           "quantized_batch_search", _walk_counts),
    Target("search", "batch_query", "repro.search.greedy",
           "GraphSearcher.batch_query"),
    Target("search", "greedy_query", "repro.search.greedy",
           "GraphSearcher.query",
           lambda a, k, r: [("search.walk_queries", 1)]),
    Target("search", "insert_points", "repro.search.greedy",
           "GraphSearcher.insert_points"),
    Target("facade", "build", "repro.index.facade", "Index.build"),
    Target("facade", "search", "repro.index.facade", "Index.search",
           _facade_search_counts),
    Target("facade", "insert", "repro.index.facade", "Index.insert"),
    Target("facade", "delete", "repro.index.facade", "Index.delete"),
    Target("facade", "compact", "repro.index.facade", "Index.compact"),
    Target("sharded", "partition", "repro.index.sharded",
           "partition_dataset"),
    Target("sharded", "search", "repro.index.sharded", "ShardedIndex.search",
           _sharded_search_counts),
    Target("executors", "run", "repro.index.executors",
           "ThreadShardExecutor.run"),
    Target("executors", "run", "repro.index.executors",
           "RemoteShardExecutor.run"),
    Target("executors", "search_shard", "repro.index.executors",
           "search_shard_index"),
    Target("net", "rpc", "repro.net.client", "ShardClient.search"),
    Target("net", "dumps", "repro.net.framing", "dumps"),
    Target("net", "loads", "repro.net.framing", "loads"),
    Target("net", "encode_frame", "repro.net.framing", "encode_frame",
           lambda a, k, r: [("net.frame_bytes", len(r))]),
    Target("net", "read_frame", "repro.net.framing", "read_frame"),
)


class Trace(NamedTuple):
    """Columnar snapshot of the recorded spans (one row per span)."""

    names: tuple            # span-name table; ``name`` indexes into it
    sid: np.ndarray
    parent: np.ndarray
    name: np.ndarray
    thread: np.ndarray
    start: np.ndarray
    end: np.ndarray
    self_s: np.ndarray
    op: np.ndarray
    counters: dict          # (key, op) -> accumulated value
    main_thread: int

    def save(self, path) -> None:
        """Write the spans and counters as one ``.npz`` file."""
        keys = sorted(self.counters)
        np.savez_compressed(
            path, names=np.array(self.names), sid=self.sid,
            parent=self.parent, name=self.name, thread=self.thread,
            start=self.start, end=self.end, self_s=self.self_s, op=self.op,
            main_thread=np.int64(self.main_thread),
            counter_key=np.array([key for key, _ in keys] or [""]),
            counter_op=np.array([op for _, op in keys] or [0]),
            counter_value=np.array([self.counters[key] for key in keys]
                                   or [0.0], dtype=np.float64))


class Tracer:
    """Installs the wrappers, records spans, restores the originals."""

    def __init__(self) -> None:
        names = [ROOT]
        for target in TARGETS:
            name = f"{target.layer}.{target.span}"
            if name not in names:
                names.append(name)
        self.names = tuple(names)
        self.spans: list = []
        self.counters: collections.Counter = collections.Counter()
        #: Index of the workload operation in flight (-1 = set-up).
        self.op = -1
        #: Cleared by the harness around its own untimed work.
        self.enabled = True
        self.main_thread = threading.get_ident()
        self._local = threading.local()
        self._ids = itertools.count()
        self._undo: list = []

    # ------------------------------------------------------------------ #
    # Wrapping
    # ------------------------------------------------------------------ #
    def wrap(self, func: Callable, name: str,
             counts: Callable | None = None) -> Callable:
        """``func`` with a span named ``name`` around every call."""
        name_id = self.names.index(name)
        spans, counters, local = self.spans, self.counters, self._local
        ids, clock, ident = self._ids, time.perf_counter, threading.get_ident
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            frame = [next(ids), 0.0]           # span id, child seconds
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                spans.append((frame[0], parent, name_id, ident(), start, end,
                              end - start - frame[1], tracer.op))
            if counts is not None:
                for key, value in counts(args, kwargs, result):
                    counters[key, tracer.op] += value
            return result

        return traced

    def install(self) -> None:
        """Swap every :data:`TARGETS` callable for its wrapper."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        for target in TARGETS:
            module = importlib.import_module(target.module)
            name = f"{target.layer}.{target.span}"
            owner_name, _, attr = target.attr.rpartition(".")
            if owner_name:
                self._patch_method(getattr(module, owner_name), attr, name,
                                   target.counts)
            else:
                self._patch_function(getattr(module, attr), name,
                                     target.counts)

    def _patch_method(self, owner: type, attr: str, name: str,
                      counts) -> None:
        raw = owner.__dict__.get(attr)
        inherited = raw is None
        if inherited:                      # e.g. GKMeans.fit lives on the base
            raw = getattr(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrap(raw.__func__, name, counts))
        else:
            wrapped = self.wrap(raw, name, counts)
        setattr(owner, attr, wrapped)
        self._undo.append((owner, attr, None if inherited else raw))

    def _patch_function(self, original: Callable, name: str, counts) -> None:
        wrapped = self.wrap(original, name, counts)
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._undo.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore every original (idempotent)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #
    def snapshot(self) -> Trace:
        """The spans recorded so far, as columns."""
        columns = list(zip(*list(self.spans))) or [()] * 8
        ints = [np.asarray(columns[i], dtype=np.int64) for i in (0, 1, 2, 3, 7)]
        floats = [np.asarray(columns[i], dtype=np.float64) for i in (4, 5, 6)]
        return Trace(
            names=self.names, sid=ints[0], parent=ints[1], name=ints[2],
            thread=ints[3], start=floats[0], end=floats[1], self_s=floats[2],
            op=ints[4], counters=dict(self.counters),
            main_thread=self.main_thread)
