"""Job-level front end of the vectorized analytic evaluation plane.

:func:`evaluate_design_jobs_batch` takes a flat list of
:class:`~repro.eval.parallel.DesignJob` entries, groups them by
(canonical design, technology instance), asks each design family's
registered ``perf_batch`` hook (:mod:`repro.api.registry`) for a
:class:`~repro.arch.metrics_batch.PerfInputBatch` covering its group,
and evaluates every group through
:func:`~repro.arch.metrics_batch.evaluate_perf_batch` — no per-job
design objects, one set of NumPy array ops per group.

This is the default execution path for analytic cache misses inside
:func:`repro.eval.parallel.run_design_jobs`; the scalar per-job walk
(:func:`~repro.eval.parallel.evaluate_design_job`) survives as the
bit-identity oracle (``tests/eval/test_vectorized.py``) and as the
fallback for designs that do not implement the batch hook.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.api.registry import get_design, resolve_design
from repro.arch.breakdown import DesignMetrics
from repro.arch.metrics_batch import evaluate_perf_batch
from repro.errors import ParameterError
from repro.eval.parallel import TechTokens

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.eval.parallel import DesignJob


def design_supports_batch(name: str) -> bool:
    """True when ``name`` registered a vectorized perf-input hook."""
    return get_design(name).perf_batch is not None


def evaluate_design_jobs_batch(
    jobs: Sequence["DesignJob"],
) -> list[DesignMetrics]:
    """Evaluate jobs through the vectorized plane, in job order.

    Every job's design must provide a ``perf_batch`` hook
    (:func:`design_supports_batch`); mixed-capability work lists are the
    caller's concern (``run_design_jobs`` partitions before calling).
    Jobs are grouped by (canonical design, tech): value-equal
    technology instances share a group even when they are distinct
    objects, and ``fold=None`` canonicalizes to ``'auto'`` exactly as
    the scalar build path does.

    Returns:
        Per-job :class:`DesignMetrics`, bit-identical to
        :func:`~repro.eval.parallel.evaluate_design_job` on each job.
    """
    results: list[DesignMetrics | None] = [None] * len(jobs)
    # Registry resolution is memoized per design string; TechTokens
    # keeps the hash-expensive tech instances out of the group keys.
    tech_tokens = TechTokens()
    canonical: dict[str, str] = {}
    groups: dict[tuple[str, int], list[int]] = {}
    for index, job in enumerate(jobs):
        design = canonical.get(job.design)
        if design is None:
            design = canonical[job.design] = resolve_design(job.design)
        groups.setdefault((design, tech_tokens.token(job.tech)), []).append(index)

    for (design, _), indices in groups.items():
        hook = get_design(design).perf_batch
        if hook is None:
            raise ParameterError(
                f"design {design!r} has no perf_batch hook; "
                "route it through the scalar path instead"
            )
        tech = jobs[indices[0]].tech
        batch = hook(
            [jobs[i].spec for i in indices],
            ["auto" if jobs[i].fold is None else jobs[i].fold for i in indices],
            tech,
            [jobs[i].layer_name for i in indices],
        )
        for index, metrics in zip(indices, evaluate_perf_batch(batch, tech)):
            results[index] = metrics
    return results  # type: ignore[return-value]
