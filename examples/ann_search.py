"""Approximate nearest-neighbour search through the index facade (§4.3).

The paper observes that the graph produced by its clustering-driven
construction (Alg. 3) is good enough to serve approximate nearest-neighbour
search directly.  This example builds persistent indexes over a SIFT-like
corpus with two construction backends, serves held-out queries with the
frontier-merged batch search at several candidate-pool sizes — the classic
recall/latency trade-off curve — and demonstrates that a saved index answers
queries bit-for-bit identically after reloading.

Run with::

    python examples/ann_search.py
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from repro import Index, datasets
from repro.experiments import render_table
from repro.search import evaluate_search

N_SAMPLES = 5_000
N_FEATURES = 32
N_NEIGHBORS = 16
N_QUERIES = 100
SEED = 2


def main() -> None:
    corpus = datasets.make_sift_like(N_SAMPLES, N_FEATURES, random_state=SEED)
    base, queries = datasets.train_query_split(corpus, N_QUERIES,
                                               random_state=SEED)
    print(f"Reference set: {base.shape[0]} vectors, {N_QUERIES} queries")

    indexes = {}
    for label, backend, params in (
            ("Alg.3 index", "gkmeans", {"tau": 8, "cluster_size": 50}),
            ("NN-Descent index", "nndescent", {})):
        print(f"Building the {label} ({backend} backend) ...")
        indexes[label] = Index.build(base, backend=backend,
                                     n_neighbors=N_NEIGHBORS,
                                     random_state=SEED, params=params)
        print(f"  build time: {indexes[label].build_seconds:.1f} s")

    rows = []
    for label, index in indexes.items():
        for pool_size in (16, 32, 64, 128):
            evaluation = evaluate_search(index, queries, n_results=10,
                                         pool_size=pool_size)
            rows.append({
                "index": label,
                "pool": pool_size,
                "recall@1": evaluation.recall_at_1,
                "recall@10": evaluation.recall_at_k,
                "query_ms": evaluation.mean_query_seconds * 1000.0,
                "evals/query": evaluation.mean_distance_evaluations,
            })

    print()
    print(render_table(rows, title="Frontier-merged batch search: "
                                   "recall vs pool size"))

    # Persistence: a saved index serves identical results with zero rebuild.
    index = indexes["Alg.3 index"]
    before = index.search(queries, 10)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "corpus.idx")
        index.save(path)
        loaded = Index.load(path)
        after = loaded.search(queries, 10)
        size_mb = os.path.getsize(path) / 1e6
    assert np.array_equal(before[0], after[0])
    assert np.array_equal(before[1], after[1])
    print()
    print(f"save -> load round-trip: {size_mb:.1f} MB on disk, "
          "search results identical bit-for-bit")

    # Horizontal sharding: the same spec with n_shards>1 builds one graph
    # per partition of the rows; queries fan out and the per-shard top-k
    # are merged by true distance.  Shard fan-out is a pure throughput knob.
    print()
    print("Building a 4-shard Alg.3 index (shard-parallel build) ...")
    with Index.build(base, index.spec.replace(n_shards=4)) as sharded:
        fanned = sharded.search(queries, 10, shard_workers=4)
        sequential = sharded.search(queries, 10, shard_workers=1)
        assert np.array_equal(fanned[0], sequential[0])
        assert np.array_equal(fanned[1], sequential[1])
        sharded_eval = evaluate_search(sharded, queries, n_results=10,
                                       shard_workers=4)
        mono_eval = evaluate_search(index, queries, n_results=10)
        print(render_table([
            {"index": "1 shard", "recall@10": mono_eval.recall_at_k,
             "evals/query": mono_eval.mean_distance_evaluations},
            {"index": "4 shards", "recall@10": sharded_eval.recall_at_k,
             "evals/query": sharded_eval.mean_distance_evaluations},
        ], title="Sharded serving: recall parity across shard counts"))
        print(f"shard sizes: {sharded.shard_sizes}; fan-out at 4 threads "
              "returned bit-for-bit the sequential fan-out's answer")

    # Routed search: a gkmeans-partitioned index keeps its coarse
    # centroids, so shard_probe=P can walk only each query's P nearest
    # shards — the recall/qps frontier of sharded serving.
    print()
    print("Re-partitioning geometrically (gkmeans) for routed search ...")
    routed = Index.build(
        base, index.spec.replace(n_shards=4, partitioner="gkmeans"))
    rows = []
    for probe in (1, 2, 4):
        routed_eval = evaluate_search(routed, queries, n_results=10,
                                      shard_workers=4, shard_probe=probe)
        rows.append({"shard_probe": probe,
                     "recall@10": routed_eval.recall_at_k,
                     "evals/query": routed_eval.mean_distance_evaluations})
    print(render_table(
        rows, title="Routed search: the shard_probe recall/cost frontier"))
    full = routed.search(queries, 10)
    probed_full = routed.search(queries, 10, shard_probe=4)
    assert np.array_equal(full[0], probed_full[0])
    print("shard_probe=4 returned bit-for-bit the full fan-out's answer; "
          "smaller probes prune whole shards per query")
    print("Expected shape: recall rises with the candidate pool while the"
          " number of distance evaluations per query stays a small fraction"
          f" of the {base.shape[0]}-point brute-force cost; the Alg.3 index"
          " performs on par with the NN-Descent index despite being cheaper"
          " to build.  The batch walk scores all queries' merged frontiers"
          " in one gemm per round instead of one tiny gemm per node"
          " expansion per query.")


if __name__ == "__main__":
    main()
