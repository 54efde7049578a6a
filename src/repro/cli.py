"""Command-line interface: run any of the paper's experiments from a shell.

Examples
--------
Run the Fig. 2 graph-evolution experiment at the small preset and judge the
paper's claims about it::

    python -m repro experiment fig2 --preset small

Partition a SIFT-like stand-in into 100 clusters and print a summary::

    python -m repro cluster --dataset sift1m --n-samples 5000 --k 100

Build a persistent ANN index and serve queries from it::

    python -m repro build --dataset sift1m --n-samples 5000 --out corpus.idx
    python -m repro search corpus.idx --n-queries 100 --k 10
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .datasets import list_datasets, load_dataset
from .distance import METRICS, QUANTIZE_MODES
from .experiments import render_table
from .experiments.config import DEFAULT, LARGE, SMALL, ExperimentScale
from .experiments.reproduction import EXPERIMENTS, render_experiment
from .experiments.runner import available_methods, run_method
from .exceptions import ProtocolError, ServingError, ValidationError
from .index import (
    EXECUTORS,
    PARTITIONERS,
    Index,
    IndexSpec,
    available_backends,
)
from .index.facade import atomic_savez
from .index.sharded import migrate
from .search import evaluate_search

__all__ = ["main", "build_parser"]

_PRESETS = {"small": SMALL, "default": DEFAULT, "large": LARGE}

#: Experiments whose drivers currently thread ``scale.metric``/``scale.dtype``
#: through clustering, graph construction and search.
_METRIC_AWARE_EXPERIMENTS = {"anns", "fig2", "fig5", "fig6"}


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="gkmeans",
        description="Reproduction of 'Fast k-means based on KNN Graph'")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_engine_options(target: argparse.ArgumentParser) -> None:
        target.add_argument("--metric", choices=sorted(METRICS),
                            default="sqeuclidean",
                            help="distance metric for clustering, graph "
                                 "construction and search")
        target.add_argument("--dtype", choices=["float64", "float32"],
                            default="float64",
                            help="floating dtype of the distance kernels")

    experiment = sub.add_parser(
        "experiment", help="run one of the paper's experiments")
    experiment.add_argument("name", choices=sorted(EXPERIMENTS))
    experiment.add_argument("--preset", choices=sorted(_PRESETS),
                            default="small")
    experiment.add_argument("--n-samples", type=int, default=None)
    experiment.add_argument("--n-clusters", type=int, default=None)
    add_engine_options(experiment)

    cluster = sub.add_parser("cluster", help="cluster a synthetic dataset")
    cluster.add_argument("--dataset", choices=list_datasets(),
                         default="sift1m")
    cluster.add_argument("--method", choices=available_methods(),
                         default="GK-means")
    cluster.add_argument("--n-samples", type=int, default=5000)
    cluster.add_argument("--n-features", type=int, default=32)
    cluster.add_argument("--k", type=int, default=100)
    cluster.add_argument("--max-iter", type=int, default=20)
    cluster.add_argument("--seed", type=int, default=0)
    add_engine_options(cluster)

    build = sub.add_parser(
        "build", help="build an ANN index and save it")
    build.add_argument("--out", required=True,
                       help="path the index is written to: one NPZ file "
                            "for one shard, a directory for more")
    build.add_argument("--dataset", choices=list_datasets(),
                       default="sift1m")
    build.add_argument("--n-samples", type=int, default=5000)
    build.add_argument("--n-features", type=int, default=32)
    build.add_argument("--backend", choices=available_backends(),
                       default="gkmeans")
    build.add_argument("--n-neighbors", type=int, default=16)
    build.add_argument("--pool-size", type=int, default=32)
    build.add_argument("--workers", type=int, default=1,
                       help="default worker threads for batched searches "
                            "served by the index (persisted in the spec)")
    build.add_argument("--shards", type=int, default=1,
                       help="number of horizontal shards (one graph each); "
                            ">1 saves the index as a directory")
    build.add_argument("--partitioner", choices=sorted(PARTITIONERS),
                       default="round_robin",
                       help="how rows are dealt to shards: round_robin "
                            "(balanced) or gkmeans (nearest of S coarse "
                            "centroids)")
    build.add_argument("--executor", choices=sorted(EXECUTORS),
                       default="thread",
                       help="default shard executor persisted in the "
                            "spec: thread (in-process pool) or remote (one "
                            "'gkmeans serve' daemon per shard, see "
                            "--endpoints on search); results are identical "
                            "either way")
    build.add_argument("--quantize", choices=sorted(QUANTIZE_MODES),
                       default="none",
                       help="compressed-domain serving mode persisted in "
                            "the spec: int8 stores a compressed code "
                            "matrix and walks the graph with compressed "
                            "gemms; the final candidate pool is always "
                            "re-ranked with the exact metric")
    build.add_argument("--seed", type=int, default=0)
    build.add_argument("--tau", type=int, default=None,
                       help="gkmeans backend: construction rounds")
    build.add_argument("--cluster-size", type=int, default=None,
                       help="gkmeans backend: target cluster size xi")
    build.add_argument("--max-iterations", type=int, default=None,
                       help="nndescent backend: local-join rounds")
    add_engine_options(build)

    search = sub.add_parser(
        "search", help="serve queries from a saved ANN index")
    search.add_argument("index", help="path of an index saved by 'build'")
    search.add_argument("--queries", default=None,
                        help=".npy file of query vectors; when omitted, "
                             "--n-queries rows of the indexed data are used")
    search.add_argument("--n-queries", type=int, default=100)
    search.add_argument("--k", type=int, default=10)
    search.add_argument("--pool-size", type=int, default=None)
    search.add_argument("--workers", type=int, default=None,
                        help="worker threads for the batched frontier walk "
                             "(default: the index spec's setting; results "
                             "are identical for every worker count)")
    search.add_argument("--shard-workers", type=int, default=None,
                        help="threads the shard fan-out runs on (clamped "
                             "to the shard count; results are identical at "
                             "every level)")
    search.add_argument("--shard-probe", type=int, default=None,
                        help="route each query to its P nearest shards "
                             "instead of all of them (gkmeans-partitioned "
                             "indexes only; P = shard count is "
                             "exactly the full fan-out, smaller P trades "
                             "recall for throughput)")
    search.add_argument("--executor", choices=sorted(EXECUTORS),
                        default=None,
                        help="shard executor override: thread "
                             "(in-process pool) or "
                             "remote (one 'gkmeans serve' daemon per shard; "
                             "daemons on localhost use separate cores) "
                             "(default: the index spec's setting; results "
                             "are identical either way)")
    search.add_argument("--endpoints", default=None,
                        help="comma-separated host:port list, one per shard "
                             "in shard order, required by --executor remote "
                             "when the index carries no deployment (one "
                             "'gkmeans serve' daemon per shard)")
    search.add_argument("--dump", default=None,
                        help="write the search results (indices, distances) "
                             "to this NPZ file — for comparing executors "
                             "bit-for-bit from the shell")
    search.add_argument("--preflight", action="store_true",
                        help="health-check every remote endpoint (ping, no "
                             "search frames) before serving; a dead daemon "
                             "is reported up front and the command exits 2 "
                             "without sending a single query")
    search.add_argument("--seed", type=int, default=0)

    serve = sub.add_parser(
        "serve", help="serve one shard of a saved index over framed TCP")
    serve.add_argument("index",
                       help="a sharded index directory (pick the member "
                            "with --shard) or a single-file index NPZ")
    serve.add_argument("--shard", type=int, default=0,
                       help="which shard of a sharded directory to load "
                            "and serve (default 0)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=0,
                       help="bind port; 0 picks an ephemeral port, printed "
                            "at startup")
    serve.add_argument("--max-handlers", type=int, default=8,
                       help="client connections served concurrently")

    insert = sub.add_parser(
        "insert", help="insert vectors into a saved index online "
                       "(local graph repair, no rebuild)")
    insert.add_argument("index", help="path of an index saved by 'build'")
    insert.add_argument("--vectors", default=None,
                        help=".npy file of vectors to insert; when "
                             "omitted, --n-new synthetic rows are drawn "
                             "from --seed")
    insert.add_argument("--n-new", type=int, default=10,
                        help="synthetic vectors to insert when --vectors "
                             "is omitted")
    insert.add_argument("--seed", type=int, default=0)

    delete = sub.add_parser(
        "delete", help="tombstone ids of a saved index (excluded from "
                       "results until 'compact' removes them)")
    delete.add_argument("index", help="path of an index saved by 'build'")
    delete.add_argument("--ids", required=True,
                        help="comma-separated external ids to delete")

    compact = sub.add_parser(
        "compact", help="drop a saved index's tombstoned rows (gkmeans "
                        "resumes its graph from the surviving lists)")
    compact.add_argument("index", help="path of an index saved by 'build'")

    reload_ = sub.add_parser(
        "reload", help="tell running shard daemons to re-read their index "
                       "from disk and serve the new generation")
    reload_.add_argument("--endpoints", required=True,
                         help="comma-separated host:port list of daemons "
                              "to reload")

    rebalance = sub.add_parser(
        "rebalance", help="re-partition the live rows of a saved index as "
                          "a fresh build would (copy-on-write; daemons "
                          "reload afterwards)")
    rebalance.add_argument("index",
                           help="an index saved by 'build'")
    rebalance.add_argument("--endpoints", default=None,
                           help="comma-separated host:port list of the "
                                "running daemons (one per shard, in shard "
                                "order); stale ones are reloaded after the "
                                "manifest lands — omitted, only the on-disk "
                                "index is rebalanced")

    migrate = sub.add_parser(
        "migrate", help="rewrite an index saved at an older format version "
                        "in place, at the current one")
    migrate.add_argument("index", help="a single-file index or a sharded "
                                       "index directory")

    sub.add_parser("list", help="list datasets, methods and experiments")
    return parser


def _load_vectors(path) -> np.ndarray:
    """The ``.npy`` matrix at ``path``; a missing, unreadable or pickled
    file is a :class:`~repro.exceptions.ValidationError`."""
    try:
        return np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise ValidationError(
            f"cannot read vectors {path!r}: {exc}") from exc


def _build_params(args) -> dict:
    """Collect the backend-specific knobs that were actually given.

    Every provided knob is passed through; ``IndexSpec`` rejects params the
    chosen backend does not accept, so e.g. ``--backend nndescent --tau 4``
    fails loudly instead of silently ignoring ``--tau``.
    """
    params = {}
    for key in ("tau", "cluster_size", "max_iterations"):
        value = getattr(args, key)
        if value is not None:
            params[key] = value
    return params


def _run_build(args) -> int:
    data = load_dataset(args.dataset, args.n_samples, args.n_features,
                        random_state=args.seed)
    spec = IndexSpec(backend=args.backend, n_neighbors=args.n_neighbors,
                     metric=args.metric, dtype=args.dtype,
                     pool_size=args.pool_size, workers=args.workers,
                     n_shards=args.shards, partitioner=args.partitioner,
                     executor=args.executor, quantize=args.quantize,
                     random_state=args.seed, params=_build_params(args))
    index = Index.build(data, spec)
    index.save(args.out)
    row = {
        "backend": args.backend,
        "dataset": args.dataset,
        "n": index.n_points,
        "d": index.n_features,
        "metric": index.metric,
        "dtype": index.spec.dtype,
        "build_seconds": index.build_seconds,
        "out": args.out,
    }
    if spec.quantize != "none":
        row["quantize"] = spec.quantize
    row.update(shards=index.n_shards, partitioner=spec.partitioner,
               kappa=spec.n_neighbors)
    print(render_table([row]))
    return 0


def _run_search(args) -> int:
    try:
        index = Index.load(args.index)
    except ValidationError as exc:
        print(f"error: cannot load index {args.index!r}: {exc}",
              file=sys.stderr)
        return 2
    with index:
        try:
            if args.queries is not None:
                queries = _load_vectors(args.queries)
                source = args.queries
            else:
                n_queries = min(args.n_queries, index.n_points)
                rng = np.random.default_rng(args.seed)
                rows = rng.choice(index.n_points, size=n_queries,
                                  replace=False)
                queries = index.data[rows]
                source = f"{n_queries} indexed rows (self-queries)"
            if args.endpoints is not None:
                index.endpoints = args.endpoints
            if args.preflight:
                # Ping-only: a dead daemon fails here, before any query
                # leaves this process.
                health = index.check_endpoints()
                dead = sorted(endpoint for endpoint, latency
                              in health.items() if latency is None)
                rows = [{"endpoint": endpoint,
                         "status": "ok" if latency is not None else "DEAD",
                         "ping_ms": (latency * 1000.0
                                     if latency is not None else "-")}
                        for endpoint, latency in health.items()]
                print(render_table(rows))
                if dead:
                    raise ServingError(
                        f"preflight failed: endpoint(s) {', '.join(dead)} "
                        "did not answer the health check; no queries were "
                        "sent")
            evaluation = evaluate_search(index, queries, n_results=args.k,
                                         pool_size=args.pool_size,
                                         workers=args.workers,
                                         shard_workers=args.shard_workers,
                                         shard_probe=args.shard_probe,
                                         executor=args.executor)
        except (ValidationError, ServingError) as exc:
            print(f"error: cannot search index {args.index!r}: {exc}",
                  file=sys.stderr)
            return 2
        print(f"index:   {index!r}")
        print(f"queries: {source}")
        row = {
            "k": args.k,
            "recall@1": evaluation.recall_at_1,
            f"recall@{args.k}": evaluation.recall_at_k,
            "query_ms": evaluation.mean_query_seconds * 1000.0,
            "distance_evals": evaluation.mean_distance_evaluations,
        }
        stats = evaluation.serving_stats
        row.update(workers=stats.workers, groups=stats.n_groups,
                   rounds=stats.n_rounds, gemms=stats.n_gemms,
                   qps=stats.queries_per_second, shards=stats.n_shards,
                   shard_workers=stats.shard_workers,
                   shard_probe=stats.shard_probe, executor=stats.executor)
        print(render_table([row]))
        if args.dump is not None:
            atomic_savez(args.dump, indices=evaluation.indices,
                         distances=evaluation.distances)
            print(f"results dumped to {args.dump}")
    return 0


def _run_mutate(args) -> int:
    """Shared driver of ``insert``/``delete``/``compact``: load the index,
    apply the mutation, save it back over its own path (atomic rename —
    running daemons keep serving the old generation until reloaded)."""
    try:
        index = Index.load(args.index)
    except ValidationError as exc:
        print(f"error: cannot load index {args.index!r}: {exc}",
              file=sys.stderr)
        return 2
    with index:
        try:
            if args.command == "insert":
                if args.vectors is not None:
                    vectors = _load_vectors(args.vectors)
                else:
                    rng = np.random.default_rng(args.seed)
                    vectors = rng.standard_normal(
                        (args.n_new, index.n_features))
                new_ids = index.insert(vectors)
                row = {"inserted": int(new_ids.size),
                       "ids": f"{int(new_ids.min())}..{int(new_ids.max())}"}
            elif args.command == "delete":
                wanted = [int(value) for value in args.ids.split(",")
                          if value.strip()]
                row = {"deleted": index.delete(wanted)}
            else:
                row = {"removed": index.compact()}
        except (ValidationError, ServingError) as exc:
            print(f"error: cannot {args.command} on index {args.index!r}: "
                  f"{exc}", file=sys.stderr)
            return 2
        index.save(args.index)
        row.update(n_points=index.n_points,
                   tombstones=index.n_tombstones,
                   generation=index.generation,
                   out=args.index)
        print(render_table([row]))
    return 0


def _run_rebalance(args) -> int:
    from .index import Rebalancer

    try:
        report, reloads = Rebalancer(args.index,
                                     endpoints=args.endpoints).run()
    except (ValidationError, ServingError) as exc:
        print(f"error: cannot rebalance index {args.index!r}: {exc}",
              file=sys.stderr)
        return 2
    if not report.changed:
        print(f"index {args.index} is balanced; nothing to do")
    else:
        print(render_table([{
            "shard_sizes": f"{list(report.shard_sizes_before)} -> "
                           f"{list(report.shard_sizes_after)}",
            "generation": report.generation,
            "out": args.index,
        }]))
    if reloads:
        print(render_table([
            {"endpoint": row["endpoint"], "shard": row["shard"],
             "status": row["status"]} for row in reloads]))
        failed = [row for row in reloads if row["status"] == "error"]
        if failed:
            for row in failed:
                print(f"error: {row['error']}", file=sys.stderr)
            return 2
    return 0


def _run_migrate(args) -> int:
    try:
        rewritten = migrate(args.index)
    except ValidationError as exc:
        print(f"error: cannot migrate index {args.index!r}: {exc}",
              file=sys.stderr)
        return 2
    print(f"migrated {args.index} to the current format" if rewritten
          else f"{args.index} is at the current format; nothing to do")
    return 0


def _run_reload(args) -> int:
    from .net import ShardClient

    rows = []
    for endpoint in args.endpoints.split(","):
        endpoint = endpoint.strip()
        if not endpoint:
            continue
        client = ShardClient(endpoint)
        try:
            info = client.reload()
        except (ValidationError, ServingError, ProtocolError) as exc:
            print(f"error: cannot reload {endpoint}: {exc}",
                  file=sys.stderr)
            return 2
        finally:
            client.close()
        rows.append({
            "endpoint": endpoint,
            "shard": info.get("shard_id"),
            "generation": info.get("generation"),
            "n_points": info.get("n_points"),
            "reloads": info.get("n_reloads"),
        })
    print(render_table(rows))
    return 0


def _run_serve(args) -> int:
    from .net import ShardServer, load_shard_for_serving

    try:
        index, shard_id, generation, n_shards = load_shard_for_serving(
            args.index, shard=args.shard)
    except ValidationError as exc:
        print(f"error: cannot load shard for serving: {exc}",
              file=sys.stderr)
        return 2
    with index, ShardServer(index, host=args.host, port=args.port,
                            shard_id=shard_id, generation=generation,
                            source_path=args.index,
                            max_handlers=args.max_handlers) as server:
        print(f"serving shard {shard_id}/{n_shards} of {args.index} "
              f"(generation {generation}) on {server.endpoint}",
              flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("shutting down", file=sys.stderr)
    return 0


#: The index subcommands, one ``_run_*`` driver each.
_INDEX_COMMANDS = {
    "build": _run_build, "search": _run_search, "serve": _run_serve,
    "insert": _run_mutate, "delete": _run_mutate, "compact": _run_mutate,
    "reload": _run_reload, "rebalance": _run_rebalance,
    "migrate": _run_migrate,
}


def _resolve_scale(args) -> ExperimentScale:
    scale = _PRESETS[args.preset]
    overrides = {}
    if getattr(args, "n_samples", None):
        overrides["n_samples"] = args.n_samples
    if getattr(args, "n_clusters", None):
        overrides["n_clusters"] = args.n_clusters
    if getattr(args, "metric", "sqeuclidean") != "sqeuclidean":
        overrides["metric"] = args.metric
    if getattr(args, "dtype", "float64") != "float64":
        overrides["dtype"] = args.dtype
    return scale.scaled(**overrides) if overrides else scale


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``python -m repro`` / the ``gkmeans`` script."""
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "list":
        print("datasets:   " + ", ".join(list_datasets()))
        print("methods:    " + ", ".join(available_methods()))
        print("experiments:" + " " + ", ".join(sorted(EXPERIMENTS)))
        print("backends:   " + ", ".join(available_backends()))
        return 0

    if args.command in _INDEX_COMMANDS:
        return _INDEX_COMMANDS[args.command](args)

    if args.command == "cluster":
        data = load_dataset(args.dataset, args.n_samples, args.n_features,
                            random_state=args.seed)
        run = run_method(args.method, data, args.k, max_iter=args.max_iter,
                         random_state=args.seed, metric=args.metric,
                         dtype=args.dtype)
        print(render_table([{
            "method": args.method,
            "dataset": args.dataset,
            "n": data.shape[0],
            "d": data.shape[1],
            "k": args.k,
            "metric": args.metric,
            "dtype": args.dtype,
            "distortion": run.distortion,
            "iterations": run.result.n_iterations,
            "seconds": run.total_seconds,
        }]))
        return 0

    name = args.name
    scale = _resolve_scale(args)
    if name not in _METRIC_AWARE_EXPERIMENTS and (
            scale.metric != "sqeuclidean" or scale.dtype != "float64"):
        print(f"note: experiment '{name}' does not honour --metric/--dtype "
              "yet and will run with sqeuclidean/float64 "
              f"(metric-aware: {', '.join(sorted(_METRIC_AWARE_EXPERIMENTS))})",
              file=sys.stderr)
    print(render_experiment(name, EXPERIMENTS[name](scale), scale))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
