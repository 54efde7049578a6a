"""Per-layer metrics from a traced section.

``*_self_share`` is a span's self time (duration minus the child spans on
the same thread) summed over the traced section, as a share of that
section's wall.  On the single-caller workloads the shares of all spans on
the calling thread — the root ``trace.op`` span included — add up to the
wall, which ``trace.attributed_sum_share`` reports.

Counts (``*_per_query``, ``*_evals``, ``cluster.iterations`` ...) are summed
over the first pass only, so they do not depend on how many operations the
time box let through, and are divided by the pass's work items.
"""

from __future__ import annotations

import numpy as np

from tracer import ROOT, Trace

__all__ = ["layer_metrics", "span_counts"]

#: ``metric -> span names`` whose self time it sums.
SELF_SHARES = {
    "distance.cross_self_share": ("distance.cross",),
    "distance.q_block_self_share": ("distance.q_block",),
    "distance.q_prepare_self_share": ("distance.q_prepare",),
    "graph.construct_self_share": ("graph.construct",),
    "graph.repair_self_share": ("graph.refine_neighborhood",
                                "graph.push_back_edges"),
    "graph.csr_pack_self_share": ("graph.csr_pack",),
    "cluster.boost_pass_self_share": ("cluster.boost_pass",),
    "cluster.two_means_self_share": ("cluster.two_means",),
    "cluster.fit_self_share": ("cluster.fit",),
    "search.seed_self_share": ("search.seed",),
    "search.frontier_walk_self_share": ("search.frontier_walk",),
    "search.beam_walk_self_share": ("search.beam_walk",),
    "search.greedy_query_self_share": ("search.greedy_query",),
    "search.insert_points_self_share": ("search.insert_points",),
    "facade.search_self_share": ("facade.search",),
    "facade.insert_self_share": ("facade.insert",),
    "facade.compact_self_share": ("facade.compact",),
    "sharded.search_self_share": ("sharded.search",),
    "executors.run_self_share": ("executors.run",),
    "net.encode_self_share": ("net.dumps", "net.encode_frame"),
    "net.decode_self_share": ("net.loads",),
    "trace.unattributed_share": (ROOT,),
}


def span_counts(trace: Trace) -> dict:
    """``span name -> number of spans`` over the whole trace."""
    counts = np.bincount(trace.name, minlength=len(trace.names))
    return {name: int(counts[i]) for i, name in enumerate(trace.names)}


def layer_metrics(trace: Trace, wall: float, pass_ops: int,
                  pass_work: int) -> tuple[dict, float]:
    """``(metrics, search_busy_share)`` of one traced section lasting
    ``wall`` seconds: every per-layer metric the trace alone determines, and
    the share of the wall spent inside ``Index.search`` (the serving
    workload derives its overhead from it).
    """
    name_id = {name: i for i, name in enumerate(trace.names)}
    timed = trace.op >= 0
    in_pass = timed & (trace.op < pass_ops)

    def named(*names) -> np.ndarray:
        return np.isin(trace.name, [name_id[name] for name in names])

    def self_share(*names) -> float:
        return float(trace.self_s[timed & named(*names)].sum()) / wall

    def busy(*names) -> float:
        spans = timed & named(*names)
        return float((trace.end[spans] - trace.start[spans]).sum())

    def count(key: str, include_setup: bool = False) -> float:
        return float(sum(
            value for (counter, op), value in trace.counters.items()
            if counter == key
            and (0 <= op < pass_ops or (include_setup and op < 0))))

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics = {metric: self_share(*names)
               for metric, names in SELF_SHARES.items()}

    # Routing gemms are the distance.cross spans sharded.search calls itself.
    parent_name = np.full(int(trace.sid.max(initial=-1)) + 2, -1)
    parent_name[trace.sid] = trace.name
    routed = (timed & named("distance.cross")
              & (parent_name[trace.parent] == name_id["sharded.search"]))
    metrics["sharded.route_self_share"] = float(
        trace.self_s[routed].sum()) / wall
    # Everything an RPC costs beyond the shard search it carries.
    rpc = busy("net.rpc")
    metrics["net.rpc_self_share"] = (
        (rpc - busy("executors.search_shard")) / wall if rpc else 0.0)
    setup_partition = (trace.op < 0) & named("sharded.partition")
    metrics["sharded.partition_s"] = float(
        (trace.end[setup_partition] - trace.start[setup_partition]).sum())
    on_caller = timed & (trace.thread == trace.main_thread)
    metrics["trace.attributed_sum_share"] = float(
        trace.self_s[on_caller].sum()) / wall

    metrics.update({
        "distance.evals_per_query": count("distance.evals") / pass_work,
        "distance.cross_calls_per_query": float(
            (in_pass & named("distance.cross")).sum()) / pass_work,
        "distance.q_block_calls_per_query": float(
            (in_pass & named("distance.q_block")).sum()) / pass_work,
        "graph.construct_evals": count("graph.construct_evals",
                                       include_setup=True),
        "cluster.iterations": ratio(count("cluster.iterations"),
                                    count("cluster.fits")),
        "cluster.evals": ratio(count("cluster.evals"),
                               count("cluster.fits")),
        "cluster.init_s": ratio(count("cluster.init_s"),
                                count("cluster.fits")),
        "search.rounds_per_query": count("search.rounds") / pass_work,
        "search.gemms_per_query": count("search.gemms") / pass_work,
        "search.walks_per_query": count("search.walk_queries") / pass_work,
        "facade.overfetch": ratio(count("facade.fetched"),
                                  count("facade.searches")),
        "sharded.probed_shards_per_query": ratio(count("sharded.probed"),
                                                 count("sharded.queries")),
        "net.bytes_per_request": ratio(
            count("net.frame_bytes"),
            float((in_pass & named("net.rpc")).sum())),
    })
    return metrics, busy("facade.search") / wall
