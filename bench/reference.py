"""The machine-speed sampler every gated timing is scaled by.

The benchmark runs on a few cores of a shared host.  Other tenants take the
processor away (which wall time counts and CPU time does not) and slow the
instructions that do run (a busy sibling hyper-thread, shared caches, clock
speed — which CPU time counts too).  The second kind comes in bursts of
0.3-3 s at +30-40% that cover anything from a tenth to most of a run, and
moved wall-clock and CPU medians of the *same code* by 15-40% between 8 s
runs.

So the gated timings are **CPU seconds at reference speed**.  While a
workload runs, a background thread (:class:`Sampler`) times a fixed kernel
ten times a second, in its own CPU seconds.  The CPU time of an operation
(:func:`time.process_time` of the process, minus the sampler's own) is
multiplied by the machine's *speed* while it ran: the mean, over the samples
taken during the operation and the two on either side of it, of
:data:`REFERENCE_SECONDS` — what the kernel takes on the quiet box the
benchmark was defined on — over the sample.  A change to the program moves
the operation's CPU time and not the kernel's, so gains and regressions show
in full; a slow stretch of the host moves both and cancels.

The kernel mixes what the program mixes: row gathers from a corpus-sized
array, a small float32 gemm, a sort, and interpreter-bound bookkeeping.  Its
inputs are fixed (they probe the machine, they are not workload inputs).
"""

from __future__ import annotations

import threading
import time

import numpy as np

__all__ = ["REFERENCE_SECONDS", "SAMPLER", "Sampler"]

#: CPU seconds of one kernel run, as the sampler sees it beside a running
#: workload, on the quiet 2-core box the benchmark was defined on.  A
#: constant: changing it rescales every gated timing.
REFERENCE_SECONDS = 0.0012
#: Seconds of wall between two samples.
INTERVAL = 0.1
#: Samples before and after an operation that count towards its speed.
MARGIN = 2


class Sampler:
    """Times the fixed kernel every :data:`INTERVAL` seconds on a thread of
    its own and answers how fast the machine was between two instants."""

    warm_up, timed = 1, 3

    def __init__(self) -> None:
        rng = np.random.default_rng(20180416)
        self.corpus = rng.standard_normal((20000, 64)).astype(np.float32)
        self.rows = rng.integers(0, 20000, size=(5, 4096))
        self.weights = rng.standard_normal((64, 64)).astype(np.float32)
        # Large temporaries would make the kernel's time depend on whether
        # malloc serves them from the heap or maps fresh pages.
        self.gathered = np.empty((4096, 64), dtype=np.float32)
        self.scores = np.empty((4096, 64), dtype=np.float32)
        self.times: list = []       # perf_counter at each sample
        self.values: list = []      # CPU seconds of one kernel run
        self._halt = threading.Event()
        self._thread = None

    def kernel(self, rows: np.ndarray) -> int:
        np.take(self.corpus, rows, axis=0, out=self.gathered)
        np.matmul(self.gathered, self.weights, out=self.scores)
        order = np.argsort(self.scores[:, 0], kind="stable")
        seen: dict = {}
        for rank, row in enumerate(order.tolist()):
            if row not in seen:
                seen[row] = rank
        return len(seen)

    def sample(self) -> float:
        """Median CPU seconds of :attr:`timed` kernel runs, after
        :attr:`warm_up` untimed ones that refill the caches."""
        took = []
        for repeat in range(-self.warm_up, self.timed):
            start = time.thread_time()
            self.kernel(self.rows[repeat % len(self.rows)])
            if repeat >= 0:
                took.append(time.thread_time() - start)
        return float(np.median(took))

    def _run(self) -> None:
        while not self._halt.wait(INTERVAL):
            value = self.sample()
            self.times.append(time.perf_counter())
            self.values.append(value)

    def start(self) -> None:
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="bench-sampler")
        self._thread.start()

    def stop(self) -> None:
        """Stop the thread and wait for it (idempotent)."""
        self._halt.set()
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def process_cpu(self) -> float:
        """CPU seconds of the process so far, all its threads but the
        (running) sampler's."""
        if self._thread is None:
            return time.process_time()
        return time.process_time() - time.clock_gettime(
            time.pthread_getcpuclockid(self._thread.ident))

    def speed(self, starts, ends) -> np.ndarray:
        """Machine speed (reference seconds per CPU second; 1 = the
        reference box, below 1 = slower) over each interval ``[starts[i],
        ends[i]]`` of the perf_counter clock: the mean of
        ``REFERENCE_SECONDS / sample`` over the samples inside it and
        :data:`MARGIN` on either side — CPU seconds times speed is work, so
        speeds, not times, are what averages over a long operation."""
        starts, ends = np.atleast_1d(starts), np.atleast_1d(ends)
        if not self.values:
            return np.ones(starts.shape)
        times = np.asarray(self.times)
        speeds = REFERENCE_SECONDS / np.asarray(self.values)
        first = np.maximum(np.searchsorted(times, starts) - MARGIN, 0)
        last = np.minimum(np.searchsorted(times, ends) + MARGIN, speeds.size)
        totals = np.concatenate([[0.0], np.cumsum(speeds)])
        return (totals[last] - totals[first]) / (last - first)


#: The process's one sampler; ``run.py`` starts and stops it.
SAMPLER = Sampler()
