"""Experiment harness regenerating every table and figure of the paper.

Each ``figN_*`` / ``tableN_*`` module exposes a ``run(...)`` function that
executes the (scaled-down) experiment and returns plain dict/list structures,
plus helpers in :mod:`repro.experiments.report` to render them as text tables
— the same rows/series the paper reports, at laptop scale.
:mod:`repro.experiments.reproduction` judges the paper's claims on them.
"""

from .config import ExperimentScale, SMALL, DEFAULT
from .runner import METHOD_BUILDERS, MethodRun, available_methods, run_method
from .report import render_table, render_series, format_seconds

from . import (
    fig1_cooccurrence,
    fig2_graph_evolution,
    fig4_configuration,
    fig5_quality,
    fig67_scalability,
    table1_datasets,
    table2_large_k,
    anns_probe,
    ablations,
)

__all__ = [
    "ExperimentScale",
    "SMALL",
    "DEFAULT",
    "METHOD_BUILDERS",
    "MethodRun",
    "available_methods",
    "run_method",
    "render_table",
    "render_series",
    "format_seconds",
    "fig1_cooccurrence",
    "fig2_graph_evolution",
    "fig4_configuration",
    "fig5_quality",
    "fig67_scalability",
    "table1_datasets",
    "table2_large_k",
    "anns_probe",
    "ablations",
]
