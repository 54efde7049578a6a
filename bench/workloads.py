"""The seven benchmark workloads.

Each workload builds its inputs from one seed, runs a *closed loop* (the
next operation is issued when the previous one returns; client counts are
stated per workload) and keeps the outputs of its first **pass** — a fixed
prefix of operations that every section runs in full, whatever ``--seconds``
says — for the checks in :mod:`checks`.  Work counters are reported over
that pass only, so they repeat exactly from run to run.

Every operation is timed twice: on the wall clock (what the trace and the
tail latencies use) and in CPU seconds at reference speed (:mod:`reference`;
what the gated metrics use, because on a shared host plain seconds mostly
measure the other tenants).

Why each workload exists, and which layers it stresses or bypasses, is in
``bench/README.md`` and in the ``why`` lines of ``BENCHMARK.json``.
"""

from __future__ import annotations

import asyncio
import os
import time

import numpy as np

from repro import (
    CoalescingServer,
    GKMeans,
    Index,
    IndexSpec,
    KMeans,
    ShardedIndex,
)
from repro.datasets import make_sift_like, train_query_split
from repro.exceptions import ReproError
from repro.net.server import ShardServer

import checks
from checks import K
from reference import SAMPLER
from tracer import ROOT

__all__ = ["ALLOWED_CORES", "WORKLOADS", "Section", "median"]

clock = time.perf_counter
#: The cores the process may use, noted before ``run.py`` pins it to one.
ALLOWED_CORES = os.sched_getaffinity(0)

#: Search defaults shared by the 20000 x 64 workloads.  ``seed_sample`` and
#: ``n_starts`` are scaled with the corpus: the library default
#: (``seed_sample=256``) gives recall@10 = 0.64 at this size on a perfectly
#: good graph, 0.9995 with the values below.
SEARCH_SPEC = dict(backend="gkmeans", n_neighbors=20, dtype="float32",
                   pool_size=64, seed_sample=2048, n_starts=8,
                   params={"tau": 6, "cluster_size": 50})


def percentile_ms(seconds, q: float) -> float:
    """``q``-th percentile of a list of durations, in milliseconds."""
    return float(np.percentile(np.asarray(seconds), q)) * 1e3


def median(values) -> float:
    return float(np.median(np.asarray(values)))


def held_out(seed: int, n: int, d: int, n_held: int):
    """``(base, held)``: an ``n``-row float32 corpus and ``n_held`` rows held
    out of the same SIFT-like draw, everything derived from ``seed``."""
    data = make_sift_like(n + n_held, d, random_state=seed)
    base, held = train_query_split(data, n_held, random_state=seed)
    return (np.ascontiguousarray(base, dtype=np.float32),
            np.ascontiguousarray(held, dtype=np.float32))


class Section:
    """What one measured section of a workload produced.

    Per operation, in completion order: ``starts`` is when it began
    (perf_counter), ``durations`` its wall time, ``cpu`` the CPU seconds the
    process spent on it, ``ends`` when it finished on the section's clock
    (harness pauses removed) and ``work`` how many work items it completed.
    ``outputs`` are the first pass's return values and ``errors`` the
    operations that raised a :class:`ReproError`.
    """

    def __init__(self) -> None:
        self.starts: list = []
        self.durations: list = []
        self.cpu: list = []
        self.ends: list = []
        self.work: list = []
        self.outputs: list = []
        self.errors: list = []
        self.extra: dict = {}

    @property
    def wall(self) -> float:
        """Seconds from the section's start to its last completion."""
        return self.ends[-1]

    @property
    def speeds(self) -> np.ndarray:
        """Per operation: the machine's speed while it ran."""
        starts = np.asarray(self.starts)
        return SAMPLER.speed(starts, starts + np.asarray(self.durations))

    @property
    def costs(self) -> np.ndarray:
        """Per operation: CPU seconds at reference speed."""
        return np.asarray(self.cpu) * self.speeds


class Stopwatch:
    """Times the operations of one section on both clocks."""

    def __init__(self, section: Section) -> None:
        self.section = section
        self.begin = clock()
        self.paused = 0.0

    def pause(self, untimed) -> None:
        """Run ``untimed()`` off the section's clock."""
        hold = clock()
        untimed()
        self.paused += clock() - hold

    def start(self) -> None:
        self.cpu_started = SAMPLER.process_cpu()
        self.started = clock()

    def stop(self, work: int) -> None:
        end = clock()
        spent = SAMPLER.process_cpu() - self.cpu_started
        section = self.section
        section.starts.append(self.started)
        section.durations.append(end - self.started)
        section.cpu.append(spent)
        section.ends.append(end - self.begin - self.paused)
        section.work.append(work)


def closed_loop(operation, pass_ops: int, seconds: float, tracer, *,
                work, scripted: bool = False, prepare=None) -> Section:
    """Run ``operation(i)`` for ``i = 0, 1, ...`` with one caller.

    Runs at least ``pass_ops`` operations and then until ``seconds`` have
    passed; a ``scripted`` workload only ever runs whole passes.
    ``prepare()`` runs (untimed, untraced) before operation 0 of every
    pass.  ``work(i)`` is the number of work items operation ``i``
    completes.
    """
    section = Section()
    watch = Stopwatch(section)
    call = operation if tracer is None else tracer.wrap(operation, ROOT)
    i = 0
    while (i < pass_ops or (scripted and i % pass_ops)
           or clock() - watch.begin < seconds):
        if prepare is not None and i % pass_ops == 0:
            if tracer is not None:
                tracer.enabled = False
            watch.pause(prepare)
            if tracer is not None:
                tracer.enabled = True
        if tracer is not None:
            tracer.op = i
        watch.start()
        try:
            output = call(i)
        except ReproError:
            output = None
            section.errors.append(i)
        watch.stop(work(i))
        if i < pass_ops:
            section.outputs.append(output)
        i += 1
    return section


class Workload:
    """Common surface of the seven workloads."""

    name = ""
    #: How often set-up runs.  Cheap set-ups are repeated so ``setup_s`` is
    #: steady; the 6 s index builds run once — the run-time cap leaves no
    #: room for a second one.
    setup_repeats = 1
    #: Operations and work items in one pass (see module docstring).
    pass_ops = 0
    pass_work = 0
    #: What one work item is, for the report.
    work_unit = "queries"

    def setup(self, seed: int) -> None:
        """Generate the inputs and build everything the traffic needs."""
        raise NotImplementedError

    def warm_up(self) -> None:
        """Untimed operations before the first section."""

    def section(self, seconds: float, tracer) -> Section:
        """Run one measured section (traced when ``tracer`` is given)."""
        raise NotImplementedError

    def segment_ops(self, n_ops: int) -> int:
        """Operations per throughput segment of an ``n_ops`` section: about
        a hundredth of it."""
        return max(1, round(n_ops / 100))

    def throughput(self, section: Section) -> float:
        """Median work rate over the section's segments: work items per CPU
        second at reference speed (a trailing partial segment is dropped)."""
        size = self.segment_ops(len(section.cpu))
        whole = len(section.cpu) // size * size
        work = np.asarray(section.work[:whole]).reshape(-1, size).sum(axis=1)
        costs = section.costs[:whole].reshape(-1, size).sum(axis=1)
        return median(work / costs)

    def op_seconds(self, section: Section):
        """Costs of the calls ``op_p50_ms`` summarises."""
        return section.costs

    def attempted(self, section: Section) -> int:
        """Operations the section attempted."""
        return len(section.durations)

    def check(self, section: Section, violations: checks.Violations) -> float:
        """Check the first pass's outputs; returns ``recall_at_10``."""
        raise NotImplementedError

    def layer_extras(self, untraced: Section, traced: Section,
                     search_busy_share: float) -> dict:
        """Per-layer metrics only this workload can measure;
        ``search_busy_share`` is the traced wall's share inside
        ``Index.search``."""
        return {}

    def close(self) -> None:
        """Stop servers, threads and pools the set-up started."""


# ---------------------------------------------------------------------- #
# Batch search over 20000 x 64: mono_exact, mono_int8, sharded_routed
# ---------------------------------------------------------------------- #
class SearchWorkload(Workload):
    """Search traffic over a 20000 x 64 corpus.  Unless a subclass says
    otherwise: one caller issuing 256-query batch calls, 8 distinct batches."""

    n, d, n_queries, batch = 20000, 64, 2048, 256
    spec_overrides: dict = {}

    def __init__(self) -> None:
        self.pass_ops = self.n_queries // self.batch
        self.pass_work = self.n_queries
        self.index = None

    def setup(self, seed: int) -> None:
        self.close()
        self.base, self.queries = held_out(seed, self.n, self.d,
                                           self.n_queries)
        self.spec = IndexSpec(**{**SEARCH_SPEC, "random_state": seed,
                                 **self.spec_overrides})
        self.index = self.build()

    def build(self):
        return Index.build(self.base, self.spec)

    def batch_of(self, i: int) -> np.ndarray:
        start = (i * self.batch) % self.n_queries
        return self.queries[start:start + self.batch]

    def search(self, i: int):
        return self.index.search(self.batch_of(i), K)

    def warm_up(self) -> None:
        for i in range(2):
            self.search(i)

    def section(self, seconds: float, tracer) -> Section:
        return closed_loop(self.search, self.pass_ops, seconds, tracer,
                           work=lambda i: self.batch)

    def check(self, section: Section, violations) -> float:
        ids = np.arange(self.n, dtype=np.int64)
        found = 0.0
        for i, output in enumerate(section.outputs):
            if output is not None:
                found += checks.check_search_output(
                    violations, i, self.batch_of(i), output[0], output[1],
                    self.base, ids)
        return found / (self.pass_work * K)

    def check_requests(self, section: Section, violations) -> tuple:
        """Check a pass of single-vector requests (request ``i`` asked for
        query ``i``); returns ``(recall, served, ids, dists)``."""
        served = [i for i, output in enumerate(section.outputs)
                  if output is not None]
        ids = np.stack([section.outputs[i][0] for i in served])
        dists = np.stack([section.outputs[i][1] for i in served])
        found = checks.check_search_output(
            violations, served, self.queries[served], ids, dists, self.base,
            np.arange(self.n, dtype=np.int64))
        return found / (self.pass_work * K), served, ids, dists

    def close(self) -> None:
        if self.index is not None:
            self.index.close()
            self.index = None


class MonoExact(SearchWorkload):
    name = "mono_exact"


class MonoInt8(SearchWorkload):
    name = "mono_int8"
    spec_overrides = {"quantize": "int8"}


class ShardedRouted(SearchWorkload):
    name = "sharded_routed"
    spec_overrides = {"n_shards": 4, "partitioner": "gkmeans"}
    #: ``shard_workers=1`` on purpose: with 2 workers the same calls were no
    #: faster on a 2-core box (the walks hold the GIL), so a 2-worker row
    #: would measure the scheduler.  ``executors.thread_speedup`` keeps an
    #: eye on it.
    search_options = dict(shard_probe=2, executor="thread", shard_workers=1)

    def build(self):
        # One build thread: two threads contend for the GIL and took 10 s
        # instead of 6 s here, with a far wider spread.
        return ShardedIndex.build(self.base, self.spec, build_workers=1)

    def search(self, i: int):
        return self.index.search(self.batch_of(i), K, **self.search_options)

    def layer_extras(self, untraced, traced, search_busy_share) -> dict:
        # A wall-clock diagnostic, on every core the process may use: two
        # workers cannot be faster on the one core the run is pinned to.
        pinned = os.sched_getaffinity(0)
        os.sched_setaffinity(0, ALLOWED_CORES)
        walls = {}
        for shard_workers in (1, 2):
            options = {**self.search_options, "shard_workers": shard_workers}
            self.index.search(self.batch_of(0), K, **options)   # pool start
            start = clock()
            for i in range(3):
                self.index.search(self.batch_of(i), K, **options)
            walls[shard_workers] = clock() - start
        os.sched_setaffinity(0, pinned)
        return {"executors.thread_speedup": walls[1] / walls[2]}


# ---------------------------------------------------------------------- #
# remote_single: single-vector requests through the TCP shard servers
# ---------------------------------------------------------------------- #
class RemoteSingle(SearchWorkload):
    """One caller, single-vector full fan-out over two localhost daemons."""

    name = "remote_single"
    spec_overrides = {"n_shards": 2, "partitioner": "gkmeans"}
    search_options = dict(executor="remote", shard_workers=1)
    parity_sample = 64

    def __init__(self) -> None:
        super().__init__()
        self.pass_ops = self.pass_work = 512
        self.servers: list = []

    def build(self):
        index = ShardedIndex.build(self.base, self.spec, build_workers=1)
        self.servers = [
            ShardServer(shard, shard_id=s,
                        generation=index.shard_generations[s])
            for s, shard in enumerate(index.shards)]
        for server in self.servers:
            server.start()
        index.endpoints = [server.endpoint for server in self.servers]
        return index

    def search(self, i: int):
        return self.index.search(self.queries[i % self.n_queries], K,
                                 **self.search_options)

    def warm_up(self) -> None:
        for i in range(32):
            self.search(i)

    def section(self, seconds: float, tracer) -> Section:
        return closed_loop(self.search, self.pass_ops, seconds, tracer,
                           work=lambda i: 1)

    def check(self, section: Section, violations) -> float:
        recall, served, ids, dists = self.check_requests(section, violations)
        sample = served[:self.parity_sample]
        local = [self.index.search(self.queries[i], K, executor="thread",
                                   shard_workers=1) for i in sample]
        violations.require(checks.rows_match_up_to_ties(
            ids[:len(sample)], dists[:len(sample)],
            np.stack([ids_ for ids_, _ in local]),
            np.stack([dists_ for _, dists_ in local])),
            "remote_matches_thread", "parity")
        return recall

    def layer_extras(self, untraced, traced, search_busy_share) -> dict:
        return {"net.latency_p50_ms": percentile_ms(untraced.durations, 50),
                "net.latency_p95_ms": percentile_ms(untraced.durations, 95),
                "net.latency_p99_ms": percentile_ms(untraced.durations, 99)}

    def close(self) -> None:
        super().close()
        for server in self.servers:
            server.close()
        self.servers = []


# ---------------------------------------------------------------------- #
# online_coalesced: asyncio clients in front of the coalescing server
# ---------------------------------------------------------------------- #
class OnlineCoalesced(SearchWorkload):
    """16 asyncio clients in one loop, closed loop, single-vector requests
    coalesced into <= 32-query batch walks under a 2 ms budget.

    The timed operation is a *round* of 256 requests: the clients share a
    counter and the round ends when its last request is answered.
    """

    name = "online_coalesced"
    work_unit = "requests"
    n_clients = 16
    round_requests = 256
    server_options = dict(max_batch=32, max_delay_ms=2.0)

    def __init__(self) -> None:
        super().__init__()
        self.pass_ops = self.pass_work = self.n_queries

    def segment_ops(self, n_ops: int) -> int:
        return 1

    def attempted(self, section: Section) -> int:
        return sum(section.work)

    def warm_up(self) -> None:
        asyncio.run(self._drive(Section(), self.round_requests, 0.0, None))

    def section(self, seconds: float, tracer) -> Section:
        section = Section()
        asyncio.run(self._drive(section, self.pass_ops, seconds, tracer))
        return section

    async def _drive(self, section: Section, pass_ops: int, seconds: float,
                     tracer) -> None:
        issued = 0
        stats: list = []
        latencies: list = []
        section.outputs = [None] * pass_ops

        async def client(limit: int) -> None:
            nonlocal issued
            while issued < limit:
                i = issued
                issued += 1
                start = clock()
                try:
                    ids, dists, record = await server.search(
                        self.queries[i % self.n_queries], K)
                except ReproError:
                    section.errors.append(i)
                    continue
                latencies.append(clock() - start)
                stats.append(record)
                if i < pass_ops:
                    section.outputs[i] = (ids, dists)

        async with CoalescingServer(self.index,
                                    **self.server_options) as server:
            watch = Stopwatch(section)
            while issued < pass_ops or clock() - watch.begin < seconds:
                if tracer is not None:
                    tracer.op = issued
                watch.start()
                await asyncio.gather(*(
                    client(issued + self.round_requests)
                    for _ in range(self.n_clients)))
                watch.stop(self.round_requests)
            section.extra = {
                "serving.latency_p50_ms": percentile_ms(latencies, 50),
                "serving.latency_p95_ms": percentile_ms(latencies, 95),
                "serving.latency_p99_ms": percentile_ms(latencies, 99),
                "serving.queue_wait_p50_ms": percentile_ms(
                    [record.queued_seconds for record in stats], 50),
                "serving.batch_size_mean": server.n_served / server.n_batches,
                "serving.batches_per_s": server.n_batches / section.wall,
                "serving.rejected": server.n_rejected,
            }

    def check(self, section: Section, violations) -> float:
        return self.check_requests(section, violations)[0]

    def layer_extras(self, untraced, traced, search_busy_share) -> dict:
        # Time the one search thread spent outside Index.search, as a share
        # of the traced wall: queue wait, coalescing timer, slicing and the
        # loop hand-off.
        return {**untraced.extra,
                "serving.overhead_share": 1.0 - search_busy_share}


# ---------------------------------------------------------------------- #
# mutate_mix: writes beside reads on a small float64 index
# ---------------------------------------------------------------------- #
class MutateMix(Workload):
    """Fixed script on a 4000 x 24 float64 index: 4 x {insert 32, delete 32
    seeded-random live ids, search 256}, compact, 2 x search 256."""

    name = "mutate_mix"
    setup_repeats = 3
    n, d, n_queries, batch, chunk = 4000, 24, 512, 256, 32
    rounds, after = 4, 2

    def __init__(self) -> None:
        self.script = ([("insert", r) if step == 0 else ("delete", r)
                        if step == 1 else ("search", r)
                        for r in range(self.rounds) for step in range(3)]
                       + [("compact", 0)]
                       + [("search", self.rounds + r)
                          for r in range(self.after)])
        self.pass_ops = len(self.script)
        self.pass_work = (self.rounds + self.after) * self.batch
        self.index = None

    def setup(self, seed: int) -> None:
        self.seed = seed
        n_new = self.rounds * self.chunk
        self.base, held = held_out(seed, self.n, self.d,
                                   self.n_queries + n_new)
        self.base = self.base.astype(np.float64)
        self.queries = held[:self.n_queries].astype(np.float64)
        self.new_rows = held[self.n_queries:].astype(np.float64)
        spec = IndexSpec(**{**SEARCH_SPEC, "dtype": "float64",
                            "seed_sample": 256, "n_starts": 4,
                            "random_state": seed})
        self.pristine = Index.build(self.base, spec)
        self.restore()

    def restore(self) -> None:
        """A fresh index over the pristine data and graph, so every pass
        runs the same script on the same state."""
        if self.index is not None:
            self.index.close()
        self.index = Index(self.pristine.data, self.pristine.graph,
                           self.pristine.spec)
        self.victims = np.random.default_rng(self.seed)
        self.deleted: list = []

    def batch_of(self, r: int) -> np.ndarray:
        start = (r * self.batch) % self.n_queries
        return self.queries[start:start + self.batch]

    def operation(self, i: int):
        kind, r = self.script[i % self.pass_ops]
        if kind == "insert":
            return self.index.insert(
                self.new_rows[r * self.chunk:(r + 1) * self.chunk])
        if kind == "delete":
            live = self.index.ids[self.index.live_mask]
            chosen = self.victims.choice(live, size=self.chunk,
                                         replace=False)
            self.deleted.append(chosen)
            return self.index.delete(chosen)
        if kind == "compact":
            self.index.compact()
            return self.index.n_tombstones, self.index.n_points
        return self.index.search(self.batch_of(r), K)

    def warm_up(self) -> None:
        self.index.search(self.batch_of(0), K)

    def section(self, seconds: float, tracer) -> Section:
        section = closed_loop(
            self.operation, self.pass_ops, seconds, tracer,
            work=lambda i: (self.batch if self.script[i % self.pass_ops][0]
                            == "search" else 0),
            scripted=True, prepare=self.restore)
        section.extra = {"deleted": self.deleted[:self.rounds]}
        return section

    def costs_of(self, section: Section, kind: str) -> np.ndarray:
        kinds = [self.script[i % self.pass_ops][0]
                 for i in range(len(section.cpu))]
        return section.costs[np.asarray(kinds) == kind]

    def segment_ops(self, n_ops: int) -> int:
        return self.pass_ops            # every pass is the same work

    def op_seconds(self, section: Section):
        # Mean search call of each pass, so the tombstone-laden calls count.
        calls = self.costs_of(section, "search")
        return calls.reshape(-1, self.rounds + self.after).mean(axis=1)

    def check(self, section: Section, violations) -> float:
        rows = np.concatenate([self.base, self.new_rows])
        deleted = np.concatenate(section.extra["deleted"])
        found = 0.0
        n_inserted = n_deleted = 0
        for i, ((kind, r), output) in enumerate(zip(self.script,
                                                    section.outputs)):
            if output is None:
                continue
            if kind == "insert":
                n_inserted += self.chunk
            elif kind == "delete":
                n_deleted += self.chunk
            elif kind == "compact":
                violations.require(output == (0, self.n),
                                   "compact_leaves_clean_index", i)
            else:
                # External ids are row positions here: the base keeps
                # 0..n-1 and inserts continue the sequence.
                live = np.ones(self.n + n_inserted, dtype=bool)
                live[deleted[:n_deleted]] = False
                live_ids = np.flatnonzero(live)
                found += checks.check_search_output(
                    violations, i, self.batch_of(r), output[0], output[1],
                    rows[live_ids], live_ids)
        return found / (self.pass_work * K)

    def layer_extras(self, untraced, traced, search_busy_share) -> dict:
        return {
            "facade.insert_rows_per_s": self.chunk / median(
                self.costs_of(untraced, "insert")),
            "facade.compact_s": median(self.costs_of(untraced, "compact")),
        }

    def close(self) -> None:
        if self.index is not None:
            self.index.close()
            self.index = None


# ---------------------------------------------------------------------- #
# build: the paper's own product — Alg. 3 graph, then GK-means on it
# ---------------------------------------------------------------------- #
class Build(Workload):
    """Alternates ``Index.build`` (Alg. 3) and ``GKMeans.fit`` (Alg. 2 on
    that graph) over 10000 x 64; no search runs at all."""

    name = "build"
    setup_repeats = 5
    n, d, n_clusters, max_iter = 10000, 64, 1000, 10
    pass_ops = 2
    pass_work = n
    work_unit = "rows"

    def setup(self, seed: int) -> None:
        self.seed = seed
        self.data = np.ascontiguousarray(
            make_sift_like(self.n, self.d, random_state=seed),
            dtype=np.float32)
        self.spec = IndexSpec(**{**SEARCH_SPEC, "random_state": seed})
        # The Lloyd reference the GK-means distortion is read against.
        self.reference = KMeans(
            self.n_clusters, max_iter=self.max_iter, random_state=seed,
            dtype="float32").fit(self.data).result_.distortion
        self.index = None

    def operation(self, i: int):
        if i % 2 == 0:
            self.index = Index.build(self.data, self.spec)
            return self.index.graph.indices
        model = GKMeans(
            self.n_clusters, n_neighbors=self.spec.n_neighbors,
            graph=self.index.graph, max_iter=self.max_iter,
            random_state=self.seed, dtype="float32").fit(self.data)
        return model.result_.distortion

    def section(self, seconds: float, tracer) -> Section:
        # One build + one fit turn n rows into a clustered, indexed corpus.
        return closed_loop(self.operation, self.pass_ops, seconds, tracer,
                           work=lambda i: self.n if i % 2 else 0,
                           scripted=True)

    def segment_ops(self, n_ops: int) -> int:
        return self.pass_ops

    def op_seconds(self, section: Section):
        costs = section.costs
        return costs[0::2] + costs[1::2]

    def check(self, section: Section, violations) -> float:
        indices, distortion = section.outputs
        self.distortion_ratio = distortion / self.reference
        violations.require(
            self.distortion_ratio <= checks.DISTORTION_CEILING,
            "distortion_ceiling", 1)
        return checks.graph_recall_at_k(indices, self.data)

    def layer_extras(self, untraced, traced, search_busy_share) -> dict:
        return {
            "graph.build_s": median(untraced.costs[0::2]),
            "cluster.fit_s": median(untraced.costs[1::2]),
            "cluster.distortion_ratio": self.distortion_ratio,
        }


WORKLOADS = {cls.name: cls for cls in (
    Build, MonoExact, MonoInt8, ShardedRouted, RemoteSingle,
    OnlineCoalesced, MutateMix)}
