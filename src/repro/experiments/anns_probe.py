"""§4.3 ANNS probe — using the Alg. 3 graph for approximate NN search.

The paper notes the constructed graph "achieves satisfactory performance" on
ANN search (e.g. <3 ms per query at recall ≥ 0.9 on SIFT100M).  This probe
builds indexes through the :class:`~repro.index.Index` facade (Alg. 3 and
NN-Descent backends) on the SIFT-like stand-in, serves the held-out queries
with the frontier-merged batch search, and reports recall@1, recall@k, query
latency and per-query distance evaluations for each backend — every query is
charged its share of the batched entry-point gemm (the full sample it was
scored against) plus its own walk's neighbour scoring, so the counts are not
under-reported.
"""

from __future__ import annotations

from ..datasets import make_sift_like, train_query_split
from ..index import Index, IndexSpec
from ..search import evaluate_search
from .config import DEFAULT, ExperimentScale

__all__ = ["run"]


def run(scale: ExperimentScale = DEFAULT, *, n_queries: int = 100,
        n_results: int = 10, pool_size: int = 48,
        workers: int = 1, n_shards: int = 1,
        partitioner: str = "round_robin") -> dict:
    """Run the ANNS probe; returns a per-graph-builder result table.

    ``workers`` spreads the frontier-merged batch walk over that many
    threads — a pure throughput knob (results are bit-for-bit identical for
    every worker count), so the reported recalls and evaluation counts do
    not depend on it.

    ``n_shards > 1`` additionally builds an ``n_shards``-way
    :class:`~repro.index.Index` per backend (partitioned by
    ``partitioner``) and reports its row next to the one-shard one, so a
    single probe run compares 1-shard vs S-shard recall/qps.  With the
    geometric ``gkmeans`` partitioner the sharded index is evaluated at
    every routed fan-out ``shard_probe`` ∈ {1, 2, S} (deduplicated), so the
    probe reports the recall@k vs qps frontier the ``shard_probe`` knob
    trades along; ``round_robin`` shards carry no routing geometry and get
    the single full fan-out row.
    """
    corpus = make_sift_like(scale.n_samples, scale.n_features,
                            random_state=scale.random_state)
    base, queries = train_query_split(corpus, n_queries,
                                      random_state=scale.random_state)

    specs = {
        "NN-Descent (KGraph)": IndexSpec(
            backend="nndescent", n_neighbors=scale.n_neighbors,
            metric=scale.metric, dtype=scale.dtype, pool_size=pool_size,
            random_state=scale.random_state),
        "Alg.3 (GK-means graph)": IndexSpec(
            backend="gkmeans", n_neighbors=scale.n_neighbors,
            metric=scale.metric, dtype=scale.dtype, pool_size=pool_size,
            random_state=scale.random_state,
            params={"tau": scale.graph_tau,
                    "cluster_size": scale.cluster_size}),
    }

    shard_counts = [1] if n_shards <= 1 else [1, n_shards]
    # The routed frontier only exists for geometric shards: probe each
    # query's P nearest shards for P ∈ {1, 2, S}; full fan-out otherwise.
    if n_shards > 1 and partitioner == "gkmeans":
        shard_probes = sorted({min(p, n_shards) for p in (1, 2, n_shards)})
    else:
        shard_probes = [n_shards]
    rows = []
    for name, spec in sorted(specs.items()):
        for shards in shard_counts:
            index = Index.build(base, spec.replace(n_shards=shards,
                                                   partitioner=partitioner))
            probes = [1] if shards == 1 else shard_probes
            for probe in probes:
                # Sharded rows fan out on as many threads as shards so the
                # reported qps measures parallel sharded serving (the
                # fan-out level never changes results; shard_probe does).
                evaluation = evaluate_search(
                    index, queries, n_results=n_results, workers=workers,
                    shard_workers=shards, shard_probe=probe)
                stats = evaluation.serving_stats
                if shards == 1:
                    label = name
                elif probe == shards:
                    label = f"{name} × {shards} shards"
                else:
                    label = f"{name} × {shards} shards (probe {probe})"
                rows.append({
                    "graph": label,
                    "shards": shards,
                    "shard_probe": probe if shards > 1 else None,
                    "recall@1": evaluation.recall_at_1,
                    f"recall@{n_results}": evaluation.recall_at_k,
                    "query_ms": evaluation.mean_query_seconds * 1000.0,
                    "distance_evals": evaluation.mean_distance_evaluations,
                    "build_seconds": index.build_seconds,
                    "qps": stats.queries_per_second,
                })
    return {
        "table": rows,
        "metadata": {
            "n_base": base.shape[0],
            "n_queries": queries.shape[0],
            "n_neighbors": scale.n_neighbors,
            "pool_size": pool_size,
            "workers": workers,
            "n_shards": n_shards,
            "partitioner": partitioner,
            "shard_probes": shard_probes if n_shards > 1 else None,
            "search": "frontier-merged batch",
        },
    }
