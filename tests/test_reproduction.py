"""The paper's claims hold at tier-1 scale, and the committed record
re-renders byte for byte.

Every testable claim of ``repro.experiments.reproduction.CLAIMS`` is
evaluated on one run of its experiment at the scale, seed and arguments in
``RUNS`` and must hold.  ``RECORD_ONLY`` names the claims judged only in
``docs/REPRODUCTION.md``: negatives measured at ``DEFAULT`` that tier-1 does
not require.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.reproduction import (
    CLAIMS,
    EXPERIMENTS,
    render_record,
    verdict,
)

#: Scale of the claims on one figure or table: large enough that the paper's
#: qualitative shapes emerge, small enough for tier-1.
BENCH = ExperimentScale(n_samples=4000, n_features=24, n_clusters=80,
                        n_neighbors=20, cluster_size=50, graph_tau=6,
                        max_iter=15, random_state=7)

#: Reduced scale for the most expensive sweeps (Fig. 4/6/7, Table 2).
BENCH_SWEEP = ExperimentScale(n_samples=3000, n_features=24, n_clusters=64,
                              n_neighbors=16, cluster_size=50, graph_tau=5,
                              max_iter=12, random_state=7)

#: Experiment NAME → the scale and the arguments besides the driver's
#: defaults that its claims are judged at.
RUNS = {
    "ablations": (BENCH_SWEEP, {}),
    "anns": (BENCH, {"n_queries": 100, "n_results": 10, "pool_size": 64}),
    "fig1": (BENCH, {}),
    "fig2": (BENCH, {}),
    "fig4": (BENCH_SWEEP, {"nn_descent_budgets": (1, 2, 4)}),
    "fig5": (BENCH, {}),
    "fig6": (BENCH_SWEEP, {}),
    "table1": (BENCH, {}),
    "table2": (BENCH_SWEEP, {}),
}

#: Claims judged only in the record (see the module docstring).
RECORD_ONLY = {"fig2.distortion_lowest_at_last_round",
               "fig6.b.gk_faster_than_kmeans", "table2.gk_fastest"}

_REQUIRED = [(name, claim) for name, claims in CLAIMS.items()
             for claim in claims
             if claim.lhs is not None and claim.id not in RECORD_ONLY]

_DOCS = Path(__file__).resolve().parent.parent / "docs"


@functools.cache
def _payload(name):
    scale, arguments = RUNS[name]
    return EXPERIMENTS[name](scale, **arguments)


@pytest.mark.parametrize("name, claim", _REQUIRED,
                         ids=[claim.id for _, claim in _REQUIRED])
def test_claim_holds_at_tier1_scale(name, claim):
    outcome = claim.evaluate(_payload(name), RUNS[name][0])
    assert outcome["holds"], (claim.claim, outcome)


def test_verdict_counts_seeds():
    held, failed = {"holds": True}, {"holds": False}
    assert verdict([held] * 5) == "holds"
    assert verdict([failed] * 5) == "does not hold at this scale"
    assert verdict([held, failed, held, failed, failed]) == \
        "seed-dependent (2/5)"
    assert verdict([None] * 5) == "not testable on synthetic stand-ins"


def test_committed_record_renders_byte_for_byte():
    record = json.loads((_DOCS / "reproduction.json").read_text("utf-8"))
    assert render_record(record).encode("utf-8") == \
        (_DOCS / "REPRODUCTION.md").read_bytes()
