"""Quickstart: cluster a SIFT-like dataset with GK-means.

Run with::

    python examples/quickstart.py

The script generates a synthetic SIFT-like dataset (the stand-in for the
paper's SIFT1M), clusters it with GK-means (Alg. 2 of the paper, supported by
the Alg. 3 graph built internally), and compares the result against plain
Lloyd k-means and boost k-means on both quality (average distortion, Eqn. 4)
and the amount of work performed.
"""

from __future__ import annotations

import importlib.util

if importlib.util.find_spec("repro") is None:
    # Allow running from a clean checkout without installing the package.
    import pathlib
    import sys
    sys.path.insert(0,
                    str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro import BoostKMeans, GKMeans, KMeans, datasets
from repro.experiments import render_table

N_SAMPLES = 5_000
N_FEATURES = 32
N_CLUSTERS = 100
SEED = 0


def main() -> None:
    print(f"Generating a SIFT-like dataset: {N_SAMPLES} x {N_FEATURES}")
    data = datasets.make_sift_like(N_SAMPLES, N_FEATURES, random_state=SEED)

    rows = []

    print("Running GK-means (graph built with the paper's Alg. 3)...")
    gk = GKMeans(N_CLUSTERS, n_neighbors=16, graph_tau=6,
                 graph_cluster_size=50, max_iter=15, random_state=SEED)
    gk.fit(data)
    rows.append({
        "method": "GK-means",
        "distortion": gk.distortion_,
        "iterations": gk.n_iter_,
        "init_s": gk.result_.init_seconds,
        "iter_s": gk.result_.iteration_seconds,
        "evaluations": gk.result_.extra["n_distance_evaluations"]
        + gk.result_.extra["graph_distance_evaluations"],
    })

    print("Running boost k-means (BKM) ...")
    bkm = BoostKMeans(N_CLUSTERS, max_iter=15, random_state=SEED).fit(data)
    rows.append({
        "method": "BKM",
        "distortion": bkm.distortion_,
        "iterations": bkm.n_iter_,
        "init_s": bkm.result_.init_seconds,
        "iter_s": bkm.result_.iteration_seconds,
        "evaluations": bkm.result_.extra["n_distance_evaluations"],
    })

    print("Running traditional k-means (Lloyd) ...")
    lloyd = KMeans(N_CLUSTERS, max_iter=15, random_state=SEED).fit(data)
    rows.append({
        "method": "k-means",
        "distortion": lloyd.distortion_,
        "iterations": lloyd.n_iter_,
        "init_s": lloyd.result_.init_seconds,
        "iter_s": lloyd.result_.iteration_seconds,
        "evaluations": lloyd.result_.extra["n_distance_evaluations"],
    })

    print()
    print(render_table(rows, title="GK-means vs baselines "
                                   f"(n={N_SAMPLES}, k={N_CLUSTERS})"))
    print()
    print("Expected shape (the paper's result): GK-means reaches a distortion"
          " close to BKM — usually better than Lloyd — while performing far"
          " fewer sample-to-cluster evaluations.")


if __name__ == "__main__":
    main()
