#!/usr/bin/env python3
"""Compare two result files written by ``bench/run.py --out``.

    python3 bench/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians, the ratio B/A (A is
the base), the metric's bound from ``BENCHMARK.json`` and a verdict:

* ``worse``       B's median is worse than A's by more than the bound;
* ``unresolved``  the run-to-run spread of A or B (distance between the
                  quartiles of its runs, as a share of its median) is wider
                  than the bound, so the two medians cannot be told apart;
* ``ok``          otherwise.

Inputs whose seed, seconds or run count differ are refused.  Exits 1 when
any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spread(values: list) -> float:
    """Inter-quartile distance as a share of the median (0 for < 2 runs)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(base: dict, other: dict, contract: dict) -> list:
    """Rows ``(workload, metric, median A, median B, ratio, bound, spread,
    verdict)`` for every end-to-end metric of every workload."""
    rows = []
    for workload in (entry["name"] for entry in contract["workloads"]):
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = base["workloads"][workload]["metrics"][name]["values"]
            b = other["workloads"][workload]["metrics"][name]["values"]
            median_a, median_b = statistics.median(a), statistics.median(b)
            ratio = median_b / median_a
            worsening = (ratio - 1.0 if metric["better"] == "lower"
                         else 1.0 - ratio)
            widest = max(spread(a), spread(b))
            verdict = ("unresolved" if widest > bound
                       else "worse" if worsening > bound else "ok")
            rows.append((workload, name, median_a, median_b, ratio, bound,
                         widest, verdict))
    return rows


def main(argv: list) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as stream:
        base = json.load(stream)
    with open(argv[2]) as stream:
        other = json.load(stream)
    with open(os.path.join(ROOT_DIR, "BENCHMARK.json")) as stream:
        contract = json.load(stream)
    for key in ("seed", "seconds", "runs"):
        if base["provenance"][key] != other["provenance"][key]:
            print(f"error: {key} differs ({base['provenance'][key]} vs "
                  f"{other['provenance'][key]}); the files are not "
                  "comparable", file=sys.stderr)
            return 2
    print(f"A = {argv[1]} ({base['provenance']['git_sha']})  "
          f"B = {argv[2]} ({other['provenance']['git_sha']})")
    print(f"{'workload':17s} {'metric':13s} {'median A':>12s} "
          f"{'median B':>12s} {'B/A':>7s} {'bound':>6s} {'spread':>7s}  "
          "verdict")
    rows = compare(base, other, contract)
    for workload, name, a, b, ratio, bound, widest, verdict in rows:
        print(f"{workload:17s} {name:13s} {a:12.5g} {b:12.5g} {ratio:7.3f} "
              f"{bound:6.3f} {widest:7.3f}  {verdict}")
    return 1 if any(row[-1] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
