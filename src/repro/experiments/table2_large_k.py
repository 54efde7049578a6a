"""Table 2 — the very-large-k setting (VLAD10M partitioned into 1M clusters).

The paper's most extreme experiment: 10M 512-d vectors into 1M clusters, where
only closure k-means and the GK-means family remain workable.  Table 2 reports
the initialisation time, iteration time, total time, the final average
distortion E and the recall of the supporting k-NN graph for

* KGraph+GK-means (graph from NN-Descent),
* GK-means (graph from Alg. 3),
* closure k-means.

The reproduction keeps the defining property of the setting — ``n/k = 10``,
i.e. ten samples per cluster — at a laptop-friendly absolute size, and reports
the same columns plus each graph's distance evaluations.  Expected shape:
GK-means has the smallest total time, graph evaluations and distortion; the
NN-Descent graph has *higher* recall but does not translate into better
clustering (the paper's observation that Alg. 3's graph carries
clustering-structure information).
"""

from __future__ import annotations

from ..cluster import ClosureKMeans, GKMeans
from ..datasets import load_dataset
from ..graph import brute_force_knn_graph, graph_recall
from .config import DEFAULT, ExperimentScale

__all__ = ["run"]


def run(scale: ExperimentScale = DEFAULT, *, samples_per_cluster: int = 10,
        n_samples: int | None = None) -> dict:
    """Run the Table 2 experiment at the scaled-down size.

    ``samples_per_cluster`` preserves the paper's 10M/1M ratio; ``n_samples``
    defaults to the preset's dataset size.
    """
    n_samples = scale.n_samples if n_samples is None else n_samples
    data = load_dataset("vlad10m", n_samples, scale.n_features,
                        random_state=scale.random_state)
    n_clusters = max(2, data.shape[0] // samples_per_cluster)
    truth = brute_force_knn_graph(data, scale.n_neighbors)

    rows = []

    def gk_row(name: str, graph_builder: str) -> dict:
        model = GKMeans(n_clusters, n_neighbors=scale.n_neighbors,
                        graph_builder=graph_builder,
                        graph_tau=scale.graph_tau,
                        graph_cluster_size=scale.cluster_size,
                        max_iter=scale.max_iter,
                        random_state=scale.random_state).fit(data)
        recall = graph_recall(model.graph_, truth, n_neighbors=1)
        result = model.result_
        return {
            "method": name,
            "init_seconds": result.init_seconds,
            "iteration_seconds": result.iteration_seconds,
            "total_seconds": result.total_seconds,
            "distortion": result.distortion,
            "graph_recall": recall,
            "graph_evaluations": result.extra["graph_distance_evaluations"],
        }

    rows.append(gk_row("KGraph+GK-means", "nn-descent"))
    rows.append(gk_row("GK-means", "clustering"))

    closure = ClosureKMeans(n_clusters, max_iter=scale.max_iter,
                            leaf_size=scale.cluster_size,
                            random_state=scale.random_state).fit(data)
    rows.append({
        "method": "closure k-means",
        "init_seconds": closure.result_.init_seconds,
        "iteration_seconds": closure.result_.iteration_seconds,
        "total_seconds": closure.result_.total_seconds,
        "distortion": closure.result_.distortion,
        "graph_recall": None,
        "graph_evaluations": None,
    })

    return {
        "table": rows,
        "metadata": {
            "n_samples": data.shape[0],
            "n_features": data.shape[1],
            "n_clusters": n_clusters,
            "samples_per_cluster": samples_per_cluster,
        },
    }
