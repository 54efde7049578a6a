"""Benchmark / regeneration of Table 2 (the very-large-k partition).

The paper partitions VLAD10M into 1M clusters (10 samples per cluster); the
reproduction keeps the n/k = 10 ratio at the bench scale and reports the same
columns: initialisation time, iteration time, total time, final distortion E
and the recall of the supporting graph, plus the distance evaluations that
graph cost.
"""

from conftest import run_once

from repro.experiments import render_table, table2_large_k


def test_table2_large_k_partition(benchmark, sweep_scale):
    payload = run_once(benchmark, table2_large_k.run, sweep_scale,
                       samples_per_cluster=10)
    print()
    print(render_table(
        payload["table"],
        title=f"Table 2: partition into {payload['metadata']['n_clusters']} "
              f"clusters (n/k = 10)"))

    rows = {row["method"]: row for row in payload["table"]}
    assert set(rows) == {"KGraph+GK-means", "GK-means", "closure k-means"}

    # Paper's Table 2 orderings:
    # 1. GK-means reaches the lowest distortion of the three.
    assert rows["GK-means"]["distortion"] <= \
        rows["closure k-means"]["distortion"] * 1.05
    assert rows["GK-means"]["distortion"] <= \
        rows["KGraph+GK-means"]["distortion"] * 1.05
    # 2. GK-means' own graph construction is cheaper than NN-Descent, so its
    #    total time undercuts the KGraph+GK-means run.
    assert rows["GK-means"]["total_seconds"] < \
        rows["KGraph+GK-means"]["total_seconds"]
    #    The same in distance evaluations, which no interpreter overhead
    #    moves: Alg. 3's graph costs fewer than NN-Descent's.
    assert rows["GK-means"]["graph_evaluations"] < \
        rows["KGraph+GK-means"]["graph_evaluations"]
    # 3. The NN-Descent graph has the higher recall, yet that does not buy
    #    better clustering (the paper's "prior knowledge" argument).
    assert rows["KGraph+GK-means"]["graph_recall"] >= \
        rows["GK-means"]["graph_recall"] * 0.8
