#!/usr/bin/env python3
"""Benchmark entry point.

One workload, the way the driver calls it (last stdout line is the result)::

    python3 bench/run.py --workload mono_exact --seed 7 --seconds 8 --trace 0

All seven workloads, each run in a fresh subprocess, end-to-end pass then
traced pass, ``--runs`` seeds each, written to one JSON file that
``bench/compare.py`` reads::

    python3 bench/run.py --runs 10 --out .bench_out/a.json
    python3 bench/run.py --quick          # 1 s sections, the smoke test

``--trace 0`` measures one untraced section of ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` splits the time into an untraced and a
traced half, reports the per-layer metrics and writes the spans to
``--trace-out``.  Metric names, units and bounds live in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

# Pin BLAS to one thread before anything imports numpy: the walks are
# single-threaded Python around small gemms, and an unpinned BLAS widened the
# run-to-run throughput spread on remote_single from 4% to 17%.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _variable in BLAS_THREAD_VARS:
    os.environ[_variable] = "1"

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT_DIR, "src")
OUT_DIR = os.path.join(ROOT_DIR, ".bench_out")


def load_contract() -> dict:
    """``BENCHMARK.json``: the table of workloads, metrics and bounds."""
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json")) as stream:
        return json.load(stream)


# ---------------------------------------------------------------------- #
# One workload, in this process
# ---------------------------------------------------------------------- #
def run_workload(args, contract: dict) -> int:
    """Run one workload and print its result line; returns the exit code."""
    sys.path.insert(0, SRC)
    import checks
    import layers
    from reference import SAMPLER
    from tracer import Tracer
    from workloads import ALLOWED_CORES, WORKLOADS, median

    # One core for the whole process.  Every workload has one caller in a
    # closed loop, so its threads (pool, shard servers, event loop) take
    # turns and lose nothing; left to the scheduler, whether two of them
    # shared a core moved the CPU time of a remote request by 15%.
    os.sched_setaffinity(0, {max(ALLOWED_CORES)})
    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None
    clock, cpu_clock = time.perf_counter, SAMPLER.process_cpu
    SAMPLER.start()
    try:
        setups = []
        for repeat in range(workload.setup_repeats):
            # Only the set-up whose state is kept is traced, so set-up
            # spans and counters describe one set-up.
            traced_setup = (tracer is not None
                            and repeat == workload.setup_repeats - 1)
            if traced_setup:
                tracer.install()
            started, cpu_started = clock(), cpu_clock()
            try:
                workload.setup(args.seed)
            finally:
                if traced_setup:
                    tracer.uninstall()
            # CPU seconds at reference speed, like every gated timing.
            setups.append((cpu_clock() - cpu_started)
                          * SAMPLER.speed(started, clock())[0])
        workload.warm_up()

        seconds = args.seconds / 2 if tracer is not None else args.seconds
        untraced = workload.section(seconds, None)
        traced = None
        if tracer is not None:
            tracer.install()
            try:
                traced = workload.section(seconds, tracer)
            finally:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0

        violations = checks.Violations()
        for op in untraced.errors:
            violations.add("raised", op)
        recall = workload.check(untraced, violations)
        violations.require(recall >= checks.RECALL_FLOOR, "recall_floor",
                           "recall")

        measured = {
            "setup_s": median(setups),
            "throughput": workload.throughput(untraced),
            "op_p50_ms": median(workload.op_seconds(untraced)) * 1e3,
            "recall_at_10": recall,
            "peak_rss_mb": peak_rss_mb,
        }
        if tracer is not None:
            trace = tracer.snapshot()
            per_layer, search_busy_share = layers.layer_metrics(
                trace, traced.wall, workload.pass_ops, workload.pass_work)
            per_layer["trace.overhead_share"] = (
                measured["throughput"] / workload.throughput(traced) - 1.0)
            per_layer.update(workload.layer_extras(untraced, traced,
                                                   search_busy_share))
            trace_out = args.trace_out or os.path.join(
                OUT_DIR, f"trace-{workload.name}-{args.seed}.npz")
            os.makedirs(os.path.dirname(trace_out) or ".", exist_ok=True)
            trace.save(trace_out)
            print(f"trace: {len(trace.sid)} spans -> {trace_out}")
            print("span counts: " + json.dumps(layers.span_counts(trace)))
    finally:
        workload.close()
        SAMPLER.stop()

    if tracer is None:
        listed = contract["end_to_end"]
    else:
        listed = contract["per_layer"]
        names = [entry["name"] for entry in listed]
        unlisted = set(per_layer) - set(names)
        if unlisted:
            raise SystemExit(f"BENCHMARK.json does not list {unlisted}")
        # A metric whose layer the workload never enters reads 0.
        measured = {**dict.fromkeys(names, 0.0), **per_layer}
    metrics = {entry["name"]: {"value": float(measured[entry["name"]]),
                               "unit": entry["unit"]} for entry in listed}
    attempted = workload.attempted(untraced)
    failed = len(violations.failed_ops)
    print(f"workload {workload.name}  seed {args.seed}  "
          f"{attempted} operations, {sum(untraced.work)} "
          f"{workload.work_unit} in {untraced.wall:.2f} s of wall, "
          f"{sum(untraced.cpu):.2f} s of CPU; machine speed "
          f"{median(untraced.speeds):.3f} of the reference's")
    for name, entry in metrics.items():
        print(f"  {name:36s} {entry['value']:14.6g} {entry['unit']}")
    for name, count in sorted(violations.by_name.items()):
        print(f"  CHECK FAILED {name}: {count}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


# ---------------------------------------------------------------------- #
# All workloads, each in a fresh subprocess
# ---------------------------------------------------------------------- #
def provenance(args) -> dict:
    """Where and how the numbers were taken."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT_DIR, check=True,
            capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT_DIR, check=True,
            capture_output=True, text=True).stdout.strip()
        sha += "-dirty" if dirty else ""
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    import numpy as np
    blas = np.show_config(mode="dicts").get(
        "Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} "
                f"{blas.get('version', '')}".strip(),
        "blas_threads": {variable: "1" for variable in BLAS_THREAD_VARS},
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": args.runs,
    }


def run_child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One workload run in a fresh interpreter; returns its result line."""
    command = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace)]
    done = subprocess.run(command, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"{' '.join(command)} exited {done.returncode} "
                         f"without a result:\n{done.stdout}{done.stderr}")
    result = json.loads(lines[-1])
    result["span_counts"] = next(
        (json.loads(line.split(": ", 1)[1]) for line in lines
         if line.startswith("span counts: ")), {})
    return result


def run_all(args, contract: dict) -> int:
    """Every workload x ``--runs`` seeds x {end-to-end, traced}."""
    names = [entry["name"] for entry in contract["workloads"]]
    passes = [0, 1] if args.trace is None else [args.trace]
    report = {"provenance": provenance(args), "workloads": {}}
    seen: dict = {}
    all_correct = True
    for name in names:
        values: dict = {}
        attempted = failed = 0
        for run in range(args.runs):
            for trace in passes:
                result = run_child(name, args.seed + run, args.seconds, trace)
                attempted += result["attempted"]
                failed += result["failed"]
                for metric, entry in result["metrics"].items():
                    values.setdefault(metric, {"unit": entry["unit"],
                                               "values": []})
                    values[metric]["values"].append(entry["value"])
                for span, count in result["span_counts"].items():
                    seen[span] = seen.get(span, 0) + count
        all_correct &= failed == 0
        report["workloads"][name] = {
            "attempted": attempted, "failed": failed,
            "failed_share": failed / attempted, "metrics": values}
        print(f"{name}: {attempted} operations, {failed} failed")
        for metric, entry in values.items():
            print(f"  {metric:36s} "
                  f"{statistics.median(entry['values']):14.6g} "
                  f"{entry['unit']}")
    never = sorted(span for span, count in seen.items() if not count)
    if seen:
        print("wrapped callables with no span on any workload: "
              + (", ".join(never) or "none"))
    # This harness measures; it never claims a gain.
    report["claim"] = None
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as stream:
        json.dump(report, stream, indent=1)
    print(f"wrote {args.out}")
    return 0 if all_correct and not never else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload in-process "
                        "(default: all of them, one subprocess each)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of one run's measured time "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--trace-out", help="where --trace 1 writes its "
                        "spans (default: .bench_out/trace-NAME-SEED.npz)")
    parser.add_argument("--runs", type=int, default=1,
                        help="seeds per workload when running all")
    parser.add_argument("--quick", action="store_true",
                        help="all workloads with 1 s sections: the "
                        "harness's own smoke test")
    parser.add_argument("--out", default=os.path.join(OUT_DIR, "bench.json"))
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: the program under test is missing ({SRC}/repro)",
              file=sys.stderr)
        return 2
    contract = load_contract()
    if args.seconds is None:
        args.seconds = 1.0 if args.quick else float(contract["run_seconds"])
    if args.workload is None:
        return run_all(args, contract)
    if args.workload not in {w["name"] for w in contract["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    args.trace = args.trace or 0
    return run_workload(args, contract)


if __name__ == "__main__":
    sys.exit(main())
