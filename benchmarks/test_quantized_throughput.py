"""Quantized-serving benchmark: qps and recall@10 per quantize mode.

Serves the same routed gkmeans-sharded index (4 shards, probe 2) through
all three kernel families — exact ``none``, ``float16`` and ``int8`` —
over identical shard graphs, so the only variable between rows is the
scoring kernel.  The variants are cheap clones of the float32 build: the
graphs are shared and only the in-memory code matrices differ, which is
exactly how a production index would flip the knob without a rebuild.

Enforced contract: int8 keeps recall@10 at ≥ 0.95× the float32 baseline's
and repeats bit-for-bit.  Queries/sec per mode is recorded, not asserted —
all three modes run the same walk, so the kernel family is the only
difference, and a wall-clock ratio belongs to the repo benchmark
(``bench/``: ``mono_exact`` vs ``mono_int8``), not to a test.
"""

from __future__ import annotations

import pytest

from conftest import BENCH, recall_against

from repro.datasets import make_sift_like, train_query_split
from repro.graph.bruteforce import brute_force_neighbors
from repro.index import IndexSpec, ShardedIndex
from repro.index.facade import Index

N_SHARDS = 4
SHARD_PROBE = 2

QUANTIZE_MODES = ("none", "float16", "int8")

#: recall@10 per mode, for the closing int8-vs-none guard.
_RECORDED: dict = {}


@pytest.fixture(scope="module")
def quantized_setup():
    corpus = make_sift_like(BENCH.n_samples, BENCH.n_features,
                            random_state=BENCH.random_state)
    base, queries = train_query_split(corpus, 256,
                                      random_state=BENCH.random_state)
    exact_idx, _ = brute_force_neighbors(queries, base, 10)
    spec = IndexSpec(backend="gkmeans", n_neighbors=BENCH.n_neighbors,
                     pool_size=64, n_shards=N_SHARDS, partitioner="gkmeans",
                     shard_probe=SHARD_PROBE,
                     random_state=BENCH.random_state,
                     params={"tau": BENCH.graph_tau,
                             "cluster_size": BENCH.cluster_size})
    baseline = ShardedIndex.build(base, spec)
    return baseline, queries, exact_idx


def _clone(baseline: ShardedIndex, quantize: str) -> ShardedIndex:
    """Re-serve the baseline's shard graphs under another kernel family."""
    if quantize == "none":
        return baseline
    shards = [Index(shard.data, shard.graph,
                    shard.spec.replace(quantize=quantize))
              for shard in baseline.shards]
    return ShardedIndex(shards, baseline.shard_ids,
                        baseline.spec.replace(quantize=quantize),
                        centroids=baseline.centroids)


@pytest.mark.parametrize("quantize", QUANTIZE_MODES)
def test_quantized_throughput(benchmark, quantized_setup, quantize):
    baseline, queries, exact_idx = quantized_setup
    index = _clone(baseline, quantize)
    indices, _ = benchmark.pedantic(
        lambda: index.search(queries, 10, shard_workers=N_SHARDS),
        rounds=3, iterations=1, warmup_rounds=1)

    queries_per_second = queries.shape[0] / benchmark.stats.stats.min
    recall = recall_against(indices, exact_idx)
    benchmark.extra_info["quantize"] = quantize
    benchmark.extra_info["n_shards"] = N_SHARDS
    benchmark.extra_info["shard_probe"] = SHARD_PROBE
    benchmark.extra_info["queries_per_second"] = round(queries_per_second, 1)
    benchmark.extra_info["recall_at_10"] = round(recall, 4)
    print(f"\nquantize={quantize}: {queries_per_second:,.0f} queries/s, "
          f"recall@10={recall:.3f}")
    _RECORDED[quantize] = recall

    # Re-ranked distances keep the serving contract deterministic.
    again, _ = index.search(queries, 10, shard_workers=N_SHARDS)
    assert (again == indices).all()

    if quantize == "int8":
        base_recall = _RECORDED["none"]
        assert recall >= 0.95 * base_recall, (
            f"int8 recall@10 {recall:.3f} fell below 0.95x the float32 "
            f"baseline's {base_recall:.3f}")
