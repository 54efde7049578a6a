"""The paper's claims as predicates over the experiment drivers' payloads.

Each experiment NAME (``gkmeans experiment NAME``) has one driver in
:data:`EXPERIMENTS` and a row of claims in :data:`CLAIMS`.  A claim is one
sentence of the paper judged as ``lhs op rhs``: two numbers read from the
driver's payload and the scale it ran at.  The same row judges a single CLI
run (:func:`render_experiment`), the tier-1 run at each artefact's test scale,
and the committed record: :func:`build_record` runs every driver over
:data:`SEEDS` at ``DEFAULT`` and counts, per claim, the seeds at which it
holds; :func:`render_record` turns that record into ``docs/REPRODUCTION.md``
(``python scripts/reproduce.py`` writes both files).
"""

from __future__ import annotations

import operator
import os
import platform
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from . import (
    ablations,
    anns_probe,
    fig1_cooccurrence,
    fig2_graph_evolution,
    fig4_configuration,
    fig5_quality,
    fig67_scalability,
    table1_datasets,
    table2_large_k,
)
from .config import DEFAULT
from .report import format_number, render_series, render_table

__all__ = ["EXPERIMENTS", "CLAIMS", "SEEDS", "Claim", "verdict",
           "render_experiment", "build_record", "render_record"]

#: Experiment NAME → driver taking an :class:`ExperimentScale`.
EXPERIMENTS = {
    "ablations": ablations.run,
    "anns": anns_probe.run,
    "fig1": fig1_cooccurrence.run,
    "fig2": fig2_graph_evolution.run,
    "fig4": fig4_configuration.run,
    "fig5": fig5_quality.run,
    "fig6": fig67_scalability.run,
    "table1": table1_datasets.run,
    "table2": table2_large_k.run,
}

#: Seeds the record runs every driver at.
SEEDS = (0, 1, 2, 3, 4)

NOT_TESTABLE = "not testable on synthetic stand-ins"

_OPERATORS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge, "==": operator.eq}


@dataclass(frozen=True)
class Claim:
    """One claim of the paper: ``lhs op rhs``, where each side is a number
    or a reader ``(payload, scale) -> value``.

    A claim without ``lhs`` is not testable on synthetic stand-ins.
    """

    id: str
    claim: str
    lhs: object = None
    op: str = ""
    rhs: object = None

    def evaluate(self, payload: dict, scale) -> dict | None:
        """``{"lhs", "rhs", "holds"}`` on one payload; ``None`` if untestable."""
        if self.lhs is None:
            return None
        lhs, rhs = (side(payload, scale) if callable(side) else side
                    for side in (self.lhs, self.rhs))
        return {"lhs": _plain(lhs), "rhs": _plain(rhs),
                "holds": bool(_OPERATORS[self.op](lhs, rhs))}


def _plain(value):
    """A JSON value for a compared quantity (sets as sorted lists)."""
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    return value.item() if isinstance(value, np.generic) else value


def _at(*path):
    """Reader of one payload value: a step is a dict key, a position (a
    series is an ``(xs, ys)`` pair), or, on a table, the label in the first
    column of the row to take."""
    def read(payload, scale):
        value = payload
        for step in path:
            if isinstance(value, list) and type(step) is not int:
                value = next(row for row in value
                             if next(iter(row.values())) == step)
            else:
                value = value[step]
        return value
    return read


def _times(factor, read):
    return lambda p, s: factor * read(p, s)


def _growth(method):
    """Evaluation growth of ``method`` over the cluster sweep (k × 8)."""
    def growth(p, s):
        counts = p["cluster_sweep"]["evaluation_series"][method][1]
        return counts[-1] / max(counts[0], 1)
    return growth


def _fig1_claims(method, short):
    return (
        Claim(f"fig1.{short}.above_chance",
              f"Under {method} a sample and its nearest neighbour share a "
              "cluster over 5 times as often as chance.",
              _at("series", method, 1, 0), ">",
              lambda p, s: 5 * p["random_collision"][method]),
        Claim(f"fig1.{short}.falls_with_rank",
              f"Under {method} that co-occurrence falls with the rank.",
              _at("series", method, 1, 0), ">=",
              _at("series", method, 1, -1)))


def _fig5_claims(name):
    def final(method, column="final_distortion"):
        return _at("datasets", name, "table", method, column)
    return (
        Claim(f"fig5.{name}.gk_near_bkm",
              f"On {name} GK-means ends within 25% of BKM's distortion (the "
              "gap is widest on the imbalanced GloVe-like corpus, Fig. 5(c)).",
              final("GK-means"), "<=", _times(1.25, final("BKM"))),
        Claim(f"fig5.{name}.gk_beats_minibatch",
              f"On {name} GK-means ends below Mini-Batch, which is worst.",
              final("GK-means"), "<=", final("Mini-Batch")),
        Claim(f"fig5.{name}.kgraph_beats_minibatch",
              f"On {name} KGraph+GK-means ends below Mini-Batch.",
              final("KGraph+GK-means"), "<=", final("Mini-Batch")),
        Claim(f"fig5.{name}.gk_converges",
              f"On {name} GK-means converges within the iteration budget.",
              final("GK-means", "iterations"), "<=",
              lambda p, s: s.max_iter))


def _sweep(sweep, series, method, index=-1):
    return _at(sweep, series, method, 1, index)


def _fig6a_cost_grows(method, short):
    return Claim(f"fig6.a.{short}_cost_grows",
                 f"The distance evaluations of {method} grow with n (6(a)).",
                 _sweep("size_sweep", "evaluation_series", method), ">",
                 _sweep("size_sweep", "evaluation_series", method, 0))


def _fig7_claims(sweep, panel, largest):
    """Fig. 7's two orderings at the largest point of one sweep."""
    def final(method):
        return _sweep(sweep, "distortion_series", method)
    return (
        Claim(f"fig6.{panel}.gk_near_bkm",
              f"At the largest {largest} GK-means ends within 15% of BKM.",
              final("GK-means"), "<=", _times(1.15, final("BKM"))),
        Claim(f"fig6.{panel}.gk_beats_minibatch",
              f"At the largest {largest} GK-means ends below Mini-Batch.",
              final("GK-means"), "<=", final("Mini-Batch")))


#: Experiment NAME → the paper's claims about that artefact.
CLAIMS = {
    "ablations": (
        Claim("ablations.kappa.distortion_stable",
              "Quality is stable in κ (§4.4): the largest κ ends within 5% "
              "of the smallest.",
              _at("kappa", "table", -1, "distortion"), "<=",
              _times(1.05, _at("kappa", "table", 0, "distortion"))),
        Claim("ablations.kappa.time_grows",
              "A larger κ costs more iteration time (checked as at least "
              "half the smallest κ's, to absorb timer noise).",
              _at("kappa", "table", -1, "iteration_seconds"), ">=",
              _times(0.5, _at("kappa", "table", 0, "iteration_seconds"))),
        Claim("ablations.xi.recall_grows",
              "A larger cluster size ξ gives a better graph.",
              _at("xi", "table", -1, "recall"), ">=",
              _at("xi", "table", 0, "recall")),
        Claim("ablations.tau.recall_grows",
              "More rounds τ give a more precise graph.",
              _at("tau", "table", -1, "recall"), ">",
              _at("tau", "table", 0, "recall")),
        Claim("ablations.tau.time_grows",
              "More rounds τ cost more construction time.",
              _at("tau", "table", -1, "construction_seconds"), ">",
              _at("tau", "table", 0, "construction_seconds")),
        Claim("ablations.assignment.boost_beats_lloyd",
              "On one graph boost assignment ends within 2% of lloyd's.",
              _at("assignment", "table", "boost", "distortion"), "<=",
              _times(1.02, _at("assignment", "table", "lloyd",
                               "distortion"))),
        Claim("ablations.equal_size.leaf_bound",
              "The equal-size adjustment keeps the largest leaf near n/k, "
              "which keeps Alg. 3's comparisons O(ξ²).",
              _at("equal_size", "table", True, "max_cluster"), "<=",
              lambda p, s: 2 * (s.n_samples / s.n_clusters) + 2),
        Claim("ablations.equal_size.leaf_not_larger",
              "The equal-size tree's largest leaf is no larger than the "
              "plain tree's.",
              _at("equal_size", "table", True, "max_cluster"), "<=",
              _at("equal_size", "table", False, "max_cluster")),
    ),
    "anns": (
        Claim("anns.recall_at_1",
              "Greedy search on either graph reaches recall@1 of 0.5 (§4.3).",
              lambda p, s: min(row["recall@1"] for row in p["table"]), ">=",
              0.5),
        Claim("anns.evals_below_half_n",
              "Either graph's search scores under n/2 points per query.",
              lambda p, s: max(row["distance_evals"] for row in p["table"]),
              "<", lambda p, s: s.n_samples / 2),
        Claim("anns.sift100m_latency",
              "On SIFT100M a query takes under 3 ms at recall 0.9 (§4.3)."),
    ),
    "fig1": _fig1_claims("k-means", "kmeans")
    + _fig1_claims("2M tree", "2m_tree"),
    "fig2": (
        Claim("fig2.recall_rises", "The graph's top-1 recall climbs over τ.",
              _at("series", "recall", 1, -1), ">",
              _at("series", "recall", 1, 0)),
        Claim("fig2.recall_above_0_6", "The graph's top-1 recall passes 0.6.",
              _at("series", "recall", 1, -1), ">", 0.6),
        Claim("fig2.distortion_falls", "The clustering's distortion drops over τ.",
              _at("series", "distortion", 1, -1), "<",
              _at("series", "distortion", 1, 0)),
        Claim("fig2.distortion_lowest_at_last_round",
              "Graph and clustering improve together: the last round's "
              "distortion is the lowest.",
              _at("series", "distortion", 1, -1), "<=",
              lambda p, s: min(p["series"]["distortion"][1])),
    ),
    "fig4": (
        Claim("fig4.three_points_per_configuration",
              "Each configuration runs on at least three graphs.",
              lambda p, s: min(min(len(recalls), len(distortions))
                               for recalls, distortions
                               in p["series"].values()), ">=", 3),
        Claim("fig4.recall_helps_gkmeans",
              "A better graph gives GK-means a lower distortion (within 2%).",
              _at("series", "GK-means", 1, -1), "<=",
              _times(1.02, _at("series", "GK-means", 1, 0))),
        Claim("fig4.boost_beats_lloyd",
              "On the best graphs boost assignment (GK-means) ends within "
              "5% of lloyd assignment (GK-means⁻) or below it.",
              _at("series", "GK-means", 1, -1), "<=",
              _times(1.05, _at("series", "GK-means-", 1, -1))),
    ),
    "fig5": (_fig5_claims("sift1m") + _fig5_claims("glove1m")
             + _fig5_claims("gist1m")),
    "fig6": (
        *(_fig6a_cost_grows(method, short) for method, short in
          (("k-means", "kmeans"), ("BKM", "bkm"), ("GK-means", "gk"),
           ("closure k-means", "closure"))),
        Claim("fig6.a.gk_cheaper_than_bkm",
              "At the largest n GK-means computes fewer evaluations than BKM.",
              _sweep("size_sweep", "evaluation_series", "GK-means"), "<",
              _sweep("size_sweep", "evaluation_series", "BKM")),
        *_fig7_claims("size_sweep", "7a", "n"),
        Claim("fig6.b.bkm_grows",
              "BKM's evaluations grow about linearly in k (over 4 times for "
              "k × 8).", _growth("BKM"), ">", 4.0),
        Claim("fig6.b.kmeans_grows",
              "k-means' evaluations grow about linearly in k (over 4 times "
              "for k × 8).", _growth("k-means"), ">", 4.0),
        Claim("fig6.b.gk_flat",
              "GK-means' evaluations stay nearly flat in k: under half BKM's "
              "growth.", _growth("GK-means"), "<", _times(0.5, _growth("BKM"))),
        Claim("fig6.b.closure_flat",
              "Closure k-means' evaluations stay nearly flat in k: under half "
              "BKM's growth.",
              _growth("closure k-means"), "<", _times(0.5, _growth("BKM"))),
        Claim("fig6.b.gk_faster_than_kmeans",
              "At the largest k GK-means takes less time than k-means.",
              _sweep("cluster_sweep", "series", "GK-means"), "<",
              _sweep("cluster_sweep", "series", "k-means")),
        *_fig7_claims("cluster_sweep", "7b", "k"),
        Claim("fig6.7b.gk_falls_with_k",
              "GK-means' distortion falls as k grows (7(b)).",
              _sweep("cluster_sweep", "distortion_series", "GK-means"), "<=",
              _sweep("cluster_sweep", "distortion_series", "GK-means", 0)),
    ),
    "table1": (
        Claim("table1.four_datasets",
              "The evaluation covers SIFT1M, VLAD10M, GloVe1M and GIST1M.",
              {"sift1m", "vlad10m", "glove1m", "gist1m"}, "<=",
              lambda p, s: {row["dataset"] for row in p["table"]}),
    ),
    "table2": (
        Claim("table2.three_methods",
              "Table 2 runs KGraph+GK-means, GK-means and closure k-means.",
              lambda p, s: {row["method"] for row in p["table"]}, "==",
              {"KGraph+GK-means", "GK-means", "closure k-means"}),
        Claim("table2.gk_vs_closure_distortion",
              "GK-means ends within 5% of closure k-means or below it.",
              _at("table", "GK-means", "distortion"), "<=",
              _times(1.05, _at("table", "closure k-means", "distortion"))),
        Claim("table2.gk_vs_kgraph_distortion",
              "GK-means ends within 5% of KGraph+GK-means or below it.",
              _at("table", "GK-means", "distortion"), "<=",
              _times(1.05, _at("table", "KGraph+GK-means", "distortion"))),
        Claim("table2.gk_faster_than_kgraph",
              "Alg. 3's cheaper graph makes GK-means faster than "
              "KGraph+GK-means.",
              _at("table", "GK-means", "total_seconds"), "<",
              _at("table", "KGraph+GK-means", "total_seconds")),
        Claim("table2.graph_cheaper",
              "Alg. 3's graph costs fewer evaluations than NN-Descent's.",
              _at("table", "GK-means", "graph_evaluations"), "<",
              _at("table", "KGraph+GK-means", "graph_evaluations")),
        Claim("table2.kgraph_recall",
              "NN-Descent's graph has the higher recall (at least 0.8 of "
              "Alg. 3's), yet it does not buy better clustering.",
              _at("table", "KGraph+GK-means", "graph_recall"), ">=",
              _times(0.8, _at("table", "GK-means", "graph_recall"))),
        Claim("table2.gk_fastest",
              "GK-means is the fastest of the three in total time.",
              _at("table", "GK-means", "total_seconds"), "<",
              lambda p, s: min(row["total_seconds"] for row in p["table"]
                               if row["method"] != "GK-means")),
    ),
}


def verdict(outcomes) -> str:
    """The verdict on a claim from its outcome at each seed."""
    if any(outcome is None for outcome in outcomes):
        return NOT_TESTABLE
    held = sum(outcome["holds"] for outcome in outcomes)
    if held == len(outcomes):
        return "holds"
    if held == 0:
        return "does not hold at this scale"
    return f"seed-dependent ({held}/{len(outcomes)})"


def _format(value) -> str:
    if isinstance(value, list):
        return "{" + ", ".join(map(str, value)) + "}"
    return format_number(value)


def _measured(op: str, outcome: dict) -> str:
    return f"{_format(outcome['lhs'])} {op} {_format(outcome['rhs'])}"


def _render_payload(payload: dict, parts: list, title: str | None) -> None:
    for key, value in payload.items():
        label = f"{title} {key}" if title else key
        if key == "table":
            parts.append(render_table(value, title=title))
        elif key.endswith("series"):
            parts.append(render_series(value, title=label))
        elif isinstance(value, dict) and key != "metadata":
            _render_payload(value, parts, label)


def render_experiment(name: str, payload: dict, scale) -> str:
    """One driver run as text: its tables and series, then each claim's
    verdict on this run."""
    parts = [f"== {name} =="]
    _render_payload(payload, parts, None)
    if "metadata" in payload:
        parts.append(f"metadata: {payload['metadata']}")
    parts.append("claims:")
    for claim in CLAIMS[name]:
        outcome = claim.evaluate(payload, scale)
        measured = f" [{_measured(claim.op, outcome)}]" if outcome else ""
        parts.append(f"  {verdict([outcome])}: {claim.id}{measured} "
                     f"- {claim.claim}")
    return "\n".join(parts)


def build_record(commit: str) -> dict:
    """Run every driver at ``DEFAULT`` over :data:`SEEDS` and judge every
    claim at each seed; progress goes to stderr."""
    seconds = {}
    claims = []
    for name, run in EXPERIMENTS.items():
        seconds[name] = []
        outcomes = {claim.id: [] for claim in CLAIMS[name]}
        for seed in SEEDS:
            scale = DEFAULT.scaled(random_state=seed)
            start = time.perf_counter()
            payload = run(scale)
            seconds[name].append(round(time.perf_counter() - start, 1))
            print(f"{name} seed {seed}: {seconds[name][-1]} s",
                  file=sys.stderr, flush=True)
            for claim in CLAIMS[name]:
                outcomes[claim.id].append(claim.evaluate(payload, scale))
        claims.extend({"id": claim.id, "artefact": name,
                       "claim": claim.claim, "op": claim.op,
                       "verdict": verdict(outcomes[claim.id]),
                       "outcomes": outcomes[claim.id]}
                      for claim in CLAIMS[name])
    scale = asdict(DEFAULT)
    del scale["random_state"]
    return {"provenance": {
        "commit": commit, "preset": "default", "scale": scale,
        "seeds": list(SEEDS), "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {variable: os.environ.get(variable) for variable in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(), "seconds": seconds},
        "claims": claims}


def _seeds_held(claim: dict) -> int:
    """Seeds at which a recorded claim holds; -1 when it is untestable."""
    if None in claim["outcomes"]:
        return -1
    return sum(outcome["holds"] for outcome in claim["outcomes"])


def render_record(record: dict) -> str:
    """``docs/REPRODUCTION.md`` from the record :func:`build_record` made."""
    provenance = record["provenance"]
    seeds = provenance["seeds"]
    lines = [
        "# Does the paper reproduce?",
        "",
        "Generated by `python scripts/reproduce.py` from "
        "[reproduction.json](reproduction.json); do not edit by hand.",
        "",
        "Every dataset is a synthetic generator stand-in for the paper's "
        "corpus (see Table 1), at the "
        f"`{provenance['preset']}` preset: "
        + ", ".join(f"{key} = {value}"
                    for key, value in provenance["scale"].items()) + ".",
        "Each claim is one comparison over its experiment's output, "
        f"judged at seeds {seeds[0]}–{seeds[-1]}. Verdicts: *holds* "
        f"(at all {len(seeds)} seeds), *does not hold at this scale* "
        "(at none), *seed-dependent (k/n)*, and *not testable on "
        "synthetic stand-ins*.",
        "",
        "## Provenance",
        "",
        f"- commit: {provenance['commit']}",
        f"- python {provenance['python']}, numpy {provenance['numpy']}, "
        f"{provenance['cpu_count']} CPUs, BLAS threads: "
        + ", ".join(f"{key}={value}" for key, value
                    in provenance["blas_threads"].items()),
        "- seconds per seed: "
        + "; ".join(f"{name} " + " / ".join(map(str, times))
                    for name, times in provenance["seconds"].items()),
        "",
        "## Summary",
        "",
        "| verdict | claims |",
        "|---|---|",
    ]
    counts: dict[str, int] = {}
    for claim in sorted(record["claims"], key=_seeds_held, reverse=True):
        counts[claim["verdict"]] = counts.get(claim["verdict"], 0) + 1
    lines.extend(f"| {name} | {count} |" for name, count in counts.items())
    artefact = None
    for claim in record["claims"]:
        if claim["artefact"] != artefact:
            artefact = claim["artefact"]
            lines += ["", f"## {artefact}", "",
                      "| claim | verdict | measured per seed |",
                      "|---|---|---|"]
        measured = "; ".join(
            f"{seed}: {_measured(claim['op'], outcome)}"
            for seed, outcome in zip(seeds, claim["outcomes"]) if outcome)
        lines.append(f"| `{claim['id']}` {claim['claim']} | "
                     f"{claim['verdict']} | {measured or '-'} |")
    return "\n".join(lines) + "\n"
