"""repro — reproduction of "Fast k-means based on KNN Graph" (Deng & Zhao).

The package implements the paper's GK-means algorithm, the k-NN-graph
construction that powers it, the boost-k-means / two-means-tree machinery it
is built on, every baseline it is compared against, synthetic stand-ins for
the evaluation datasets and a harness regenerating every table and figure of
the paper's evaluation section.

Quickstart
----------
Clustering (the paper's GK-means, Alg. 2):

>>> from repro import GKMeans, datasets
>>> data = datasets.make_sift_like(2000, 32, random_state=0)
>>> model = GKMeans(n_clusters=50, n_neighbors=10, random_state=0).fit(data)
>>> model.labels_.shape
(2000,)

ANN serving through the index facade (build -> search -> save -> load):

>>> from repro import Index
>>> index = Index.build(data, backend="gkmeans", n_neighbors=10,
...                     random_state=0)
>>> ids, dists = index.search(data[:8], n_results=5)   # frontier-merged batch
>>> ids.shape
(8, 5)
>>> index.save("corpus.idx")                           # doctest: +SKIP
>>> served = Index.load("corpus.idx")                  # doctest: +SKIP
"""

from ._version import __version__
from . import datasets, distance, graph, cluster, metrics, search, index, \
    serving
from .distance import DistanceEngine
from .cluster import (
    BoostKMeans,
    BisectingKMeans,
    ClosureKMeans,
    GKMeans,
    KMeans,
    MiniBatchKMeans,
    TwoMeansTree,
)
from .graph import (
    KNNGraph,
    brute_force_knn_graph,
    build_knn_graph_by_clustering,
    nn_descent_knn_graph,
)
from .search import GraphSearcher
from .index import (
    Index,
    IndexSpec,
    Rebalancer,
    ShardedIndex,
)
from .serving import CoalescingServer, serve_concurrently
from .exceptions import (
    DatasetError,
    GraphError,
    NotFittedError,
    ReproError,
    ServerClosedError,
    ServerOverloadedError,
    ServingError,
    ValidationError,
)

__all__ = [
    "__version__",
    "datasets",
    "distance",
    "graph",
    "cluster",
    "metrics",
    "search",
    "index",
    "serving",
    "DistanceEngine",
    "GKMeans",
    "KMeans",
    "BoostKMeans",
    "MiniBatchKMeans",
    "ClosureKMeans",
    "BisectingKMeans",
    "TwoMeansTree",
    "KNNGraph",
    "brute_force_knn_graph",
    "build_knn_graph_by_clustering",
    "nn_descent_knn_graph",
    "GraphSearcher",
    "Index",
    "IndexSpec",
    "ShardedIndex",
    "Rebalancer",
    "CoalescingServer",
    "serve_concurrently",
    "ReproError",
    "ValidationError",
    "NotFittedError",
    "DatasetError",
    "GraphError",
    "ServingError",
    "ServerClosedError",
    "ServerOverloadedError",
]
