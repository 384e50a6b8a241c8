"""Evaluation harness: regenerates every table and figure in the paper.

* :mod:`repro.eval.harness` — runs the design x layer grid.
* :mod:`repro.eval.figures` — data series for Fig. 4, Fig. 7, Fig. 8, Fig. 9.
* :mod:`repro.eval.tables` — Table I / Table II renderers.
* :mod:`repro.eval.paper_targets` — the published numbers and the bands we
  assert against.
* :mod:`repro.eval.report` — formatted text/CSV emission.
* :mod:`repro.eval.parallel` — the one batch pipeline (probe, dedupe,
  evaluate, publish, fan-out) every sweep routes through, and its
  cache keys.
* :mod:`repro.eval.vectorized` — struct-of-arrays analytic evaluation
  plane (per-(design, tech) batches, no per-job design objects).
* :mod:`repro.eval.sweeps` — prose-claim parameter sweeps.
"""

from repro.eval.figures import (
    fig4_redundancy_curves,
    fig7_latency,
    fig8_energy,
    fig9_area,
)
from repro.eval.harness import DESIGN_ORDER, EvaluationGrid, run_grid
from repro.eval.paper_targets import PAPER_TARGETS, PaperBand
from repro.eval.parallel import (
    CycleStats,
    DesignJob,
    evaluate_design_job,
    job_key,
    run_cycle_jobs,
    run_design_jobs,
)
from repro.eval.report import (
    format_fig4,
    format_fig7,
    format_fig8,
    format_fig9,
    full_report,
)
from repro.eval.tables import render_table1, render_table2
from repro.eval.vectorized import design_supports_batch, evaluate_design_jobs_batch

__all__ = [
    "EvaluationGrid",
    "run_grid",
    "DESIGN_ORDER",
    "CycleStats",
    "DesignJob",
    "evaluate_design_job",
    "job_key",
    "run_cycle_jobs",
    "run_design_jobs",
    "design_supports_batch",
    "evaluate_design_jobs_batch",
    "fig4_redundancy_curves",
    "fig7_latency",
    "fig8_energy",
    "fig9_area",
    "render_table1",
    "render_table2",
    "PAPER_TARGETS",
    "PaperBand",
    "format_fig4",
    "format_fig7",
    "format_fig8",
    "format_fig9",
    "full_report",
]
