"""Approximate nearest-neighbour search on top of a k-NN graph.

Section 4.3 of the paper notes that the graph built by Alg. 3 is good enough
to serve ANN search directly; this subpackage provides the greedy
best-first graph walk used for that purpose — one batched round loop
(:mod:`repro.search._walk`) behind an exact and a compressed-domain entry —
and the recall/latency evaluation protocol.
"""

from ._walk import SearchResult
from .frontier import ServingStats, frontier_batch_search
from .greedy import GraphSearcher
from .evaluation import SearchEvaluation, evaluate_search

__all__ = [
    "GraphSearcher",
    "frontier_batch_search",
    "SearchResult",
    "ServingStats",
    "SearchEvaluation",
    "evaluate_search",
]
