"""k-nearest-neighbour graph substrate.

Contains the :class:`~repro.graph.knngraph.KNNGraph` container, the flat
:class:`~repro.graph.csr.CSRAdjacency` layout the searcher serves from,
exact and approximate construction algorithms (brute force, random
initialisation, NN-Descent, and the paper's Alg. 3 clustering-driven
construction), online-insert repair (whose row merge NN-Descent shares)
and recall metrics against an exact ground truth.
"""

from .csr import CSRAdjacency
from .knngraph import KNNGraph
from .bruteforce import brute_force_knn_graph, brute_force_neighbors
from .random_graph import random_knn_graph
from .nndescent import NNDescent, nn_descent_knn_graph
from .metrics import graph_recall, per_point_recall, estimate_recall_by_sampling
from .construction import GraphConstructionResult, build_knn_graph_by_clustering

__all__ = [
    "CSRAdjacency",
    "KNNGraph",
    "brute_force_knn_graph",
    "brute_force_neighbors",
    "random_knn_graph",
    "NNDescent",
    "nn_descent_knn_graph",
    "graph_recall",
    "per_point_recall",
    "estimate_recall_by_sampling",
    "GraphConstructionResult",
    "build_knn_graph_by_clustering",
]
