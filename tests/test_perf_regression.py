"""Performance regression guards for the distance engine and serving layer.

The float32 configuration exists to halve the memory traffic of
``assign_to_nearest`` — the dominant kernel of the Fig. 6/7 scalability
benchmarks — and the worker-pool mode of the frontier search exists to turn
extra cores into serving throughput.  These guards fail if a refactor ever
makes the float32 path slower than float64, or threads stop buying
throughput.  Marked ``slow`` so quick loops can skip them with
``-m "not slow"``.
"""

import os
import time

import numpy as np
import pytest

from repro.distance import DistanceEngine


def _best_seconds(*functions, repeats: int = 5) -> list:
    """Best-of-N wall-clock time of each function (the robust estimator for
    throughput).  Their repeats alternate, so a burst of load on a shared
    machine lands on every side alike, not on whichever one it overlapped."""
    best = [np.inf] * len(functions)
    for _ in range(repeats):
        for at, function in enumerate(functions):
            started = time.perf_counter()
            function()
            best[at] = min(best[at], time.perf_counter() - started)
    return best


@pytest.mark.slow
def test_assign_to_nearest_float32_not_slower_than_float64():
    rng = np.random.default_rng(0)
    data64 = rng.standard_normal((50_000, 64))
    centroids64 = rng.standard_normal((128, 64))

    timings = {}
    results = {}
    for dtype in (np.float64, np.float32):
        engine = DistanceEngine("sqeuclidean", dtype)
        data = engine.prepare(data64)
        centroids = engine.prepare(centroids64)
        norms = engine.norms(data)

        def run(engine=engine, data=data, centroids=centroids, norms=norms):
            return engine.assign_to_nearest(data, centroids,
                                            data_norms=norms)

        run()  # warm-up (BLAS thread pools, page faults)
        timings[np.dtype(dtype).name] = _best_seconds(run)[0]
        results[np.dtype(dtype).name] = run()

    # 1.25 tolerance absorbs scheduler noise; on any BLAS the float32 gemm
    # plus halved traffic should be comfortably faster, not merely equal.
    assert timings["float32"] <= timings["float64"] * 1.25, timings

    # while we are here: the cheap kernel must still be the same kernel
    labels32, _ = results["float32"]
    labels64, dist64 = results["float64"]
    assert np.mean(labels32 == labels64) > 0.999


@pytest.mark.slow
def test_cached_norms_not_slower_than_recomputing():
    """Passing precomputed norms must never lose to recomputing them."""
    rng = np.random.default_rng(1)
    engine = DistanceEngine("cosine", np.float32)
    data = engine.prepare(rng.standard_normal((20_000, 64)))
    centroids = engine.prepare(rng.standard_normal((256, 64)))
    norms = engine.norms(data)

    cached, fresh = _best_seconds(
        lambda: engine.assign_to_nearest(data, centroids, data_norms=norms),
        lambda: engine.assign_to_nearest(data, centroids))
    assert cached <= fresh * 1.25, (cached, fresh)


#: Measured in a subprocess so the BLAS thread pools can be pinned to one
#: thread *before* the library loads — with a multithreaded BLAS the
#: single-worker baseline already saturates the cores and the ratio measures
#: oversubscription, not the worker pool.
_WORKER_SCALING_SCRIPT = """
import time

import numpy as np

from repro.datasets import make_sift_like, train_query_split
from repro.graph import brute_force_knn_graph
from repro.search import frontier_batch_search

corpus = make_sift_like(4200, 192, random_state=0)
base, queries = train_query_split(corpus, 256, random_state=0)
adjacency = brute_force_knn_graph(base, 16).adjacency()


def serve(workers):
    return frontier_batch_search(
        base, adjacency, queries, 10, pool_size=64, max_group=32,
        workers=workers)


results = {}
timings = {}
for workers in (1, 2):
    results[workers] = serve(workers)  # warm-up (thread pools, caches)
    best = float("inf")
    for _ in range(5):
        started = time.perf_counter()
        serve(workers)
        best = min(best, time.perf_counter() - started)
    timings[workers] = best

assert np.array_equal(results[1][0], results[2][0]), "neighbours diverged"
assert np.array_equal(results[1][1], results[2][1]), "distances diverged"
assert np.array_equal(results[1][2], results[2][2]), "eval counts diverged"
print(f"speedup {timings[1] / timings[2]:.2f}x", timings)
"""


@pytest.mark.slow
@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="worker scaling needs at least 2 cores")
def test_two_worker_frontier_search_scales():
    """2-worker batched serving is bit-for-bit the 1-worker result.

    The group walks are gemm-dominated when the dimensionality is high (the
    per-round Python bookkeeping is dimension-independent), so the workload
    is sized d-heavy to exercise the threads, not the interpreter.  The
    measured speedup is printed, not asserted: a wall-clock ratio depends on
    machine load, and the repo benchmark (``bench/``) is where speed is
    gated.
    """
    import subprocess
    import sys

    import repro

    env = dict(os.environ)
    for variable in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                     "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                     "NUMEXPR_NUM_THREADS"):
        env[variable] = "1"
    src_dir = os.path.dirname(os.path.dirname(repro.__file__))
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")

    completed = subprocess.run(
        [sys.executable, "-c", _WORKER_SCALING_SCRIPT], env=env,
        capture_output=True, text=True, timeout=600)
    assert completed.returncode == 0, \
        completed.stdout + "\n" + completed.stderr
    print(completed.stdout.strip())
