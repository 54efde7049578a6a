"""Online serving: coalesce concurrent single queries into batch walks.

Run with::

    python examples/coalescing_server.py

Online ANN traffic arrives as single queries, but the fast serving path is
a batch — the frontier-merged walk amortises entry-point scoring and gemm
dispatch over every rider.  ``repro.serving.CoalescingServer`` bridges the
two: concurrent ``await server.search(query, k)`` calls are gathered under
a small latency budget into one batch walk, and each request gets its own
top-k slice back, bit-for-bit what a direct batch search would have
returned for its row.

The script builds a 2-shard index, fires every query as its own concurrent
request through the async front end (via the ``serve_concurrently`` client
helper), and checks the coalesced responses against a direct
``index.search`` call — the same check CI's smoke job runs.
"""

from __future__ import annotations

import importlib.util

if importlib.util.find_spec("repro") is None:
    # Allow running from a clean checkout without installing the package.
    import pathlib
    import sys
    sys.path.insert(0,
                    str(pathlib.Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from repro import datasets, serve_concurrently
from repro.index import Index, IndexSpec

N_SAMPLES = 4_000
N_FEATURES = 24
N_QUERIES = 128
K = 10
SEED = 7


def main() -> None:
    print(f"Building a 2-shard index over {N_SAMPLES} x {N_FEATURES}...")
    corpus = datasets.make_sift_like(N_SAMPLES, N_FEATURES,
                                     random_state=SEED)
    base, queries = datasets.train_query_split(corpus, N_QUERIES,
                                               random_state=SEED)
    spec = IndexSpec(backend="gkmeans", n_neighbors=16, pool_size=64,
                     n_shards=2, random_state=SEED,
                     params={"tau": 5, "cluster_size": 50})
    with Index.build(base, spec) as index:
        direct_idx, direct_dist = index.search(queries, K)

        print(f"Serving {N_QUERIES} concurrent requests...")
        # max_batch >= the request count: everything coalesces into one
        # batch, so the responses are bit-for-bit the direct search.
        idx, dist, stats = serve_concurrently(
            index, queries, n_results=K, max_batch=N_QUERIES,
            max_delay_ms=100.0)
        assert np.array_equal(idx, direct_idx), \
            "coalesced ids diverged from the direct search"
        assert np.array_equal(dist, direct_dist), \
            "coalesced distances diverged"
        batch_sizes = sorted({record.batch_size for record in stats})
        mean_wait = np.mean([record.queued_seconds for record in stats])
        print(f"  OK: {len(stats)} responses identical to index.search, "
              f"batch sizes {batch_sizes}, "
              f"mean coalescing wait {mean_wait * 1e3:.2f} ms")

    print("Done: coalescing changed throughput only, never an answer.")


if __name__ == "__main__":
    main()
