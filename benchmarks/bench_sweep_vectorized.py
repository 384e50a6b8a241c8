"""ISSUE-4 acceptance benchmark: the vectorized analytic sweep plane.

One grid, two execution routes — the path every figure, ablation grid,
stride sweep and network mapping hammers:

1. **Scalar sequential**: the oracle,
   :func:`~repro.eval.parallel.evaluate_design_job` per job — one
   design object + scalar Eq. 3/4 walk each.
2. **Vectorized plane**: :func:`repro.eval.parallel.run_design_jobs`,
   one struct-of-arrays batch per (design, tech) group
   (:mod:`repro.eval.vectorized`), evaluated in-process.

The grid mirrors the paper's stride sweep (FCN rule ``K = 2s``,
``p = s/2``) across all registered designs, input sizes, channel/filter
widths and two technology points — ~10k unique jobs in full mode.
Gate: the vectorized route must be **>= 20x** the scalar sequential
route, with every job's
``DesignMetrics`` *bit-identical* (pickle-byte equal) to the scalar
oracle.  Measurements land in ``BENCH_sweep.json`` (path override:
``RED_BENCH_SWEEP_JSON``), which CI uploads as an artifact.  Set
``RED_BENCH_QUICK=1`` for the CI smoke configuration (smaller grid,
lower floors).
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import time

from benchmarks.conftest import emit
from repro.api.registry import available_designs
from repro.arch.tech import default_tech
from repro.deconv.shapes import DeconvSpec
from repro.eval.parallel import DesignJob, evaluate_design_job, run_design_jobs
from repro.utils.formatting import render_ascii_table

QUICK = os.environ.get("RED_BENCH_QUICK") == "1"

STRIDES = (2, 4, 8) if QUICK else (2, 4, 8, 16)
INPUT_SIZES = tuple(range(3, 11)) if QUICK else tuple(range(3, 23))
CHANNELS = (8, 16) if QUICK else (8, 16, 32, 48, 64)
FILTERS = (8, 16) if QUICK else (8, 16, 32, 64)
NUM_TECHS = 1 if QUICK else 2
# FCN-32s-style upsampling (stride 32, K = 64) is the paper's heaviest
# mapping; a bounded slice keeps it represented without letting its
# scalar cost dominate the whole grid's wall-clock.
FCN32_SIZES = () if QUICK else (3, 4, 5, 6, 7, 8, 9, 10)
FCN32_CHANNELS = (8, 16, 32)
FCN32_FILTERS = (8, 16)

SCALAR_FLOOR = 5.0 if QUICK else 20.0
REPEATS = 2 if QUICK else 3

JSON_PATH = os.environ.get("RED_BENCH_SWEEP_JSON", "BENCH_sweep.json")


def build_grid() -> list[DesignJob]:
    """The sweep grid: every registered design over the stride-sweep axes."""
    base = default_tech()
    techs = [base, base.with_overrides(mux_share=4)][:NUM_TECHS]
    designs = available_designs()
    jobs = []
    for tech_index, tech in enumerate(techs):
        axes = [(stride, INPUT_SIZES, CHANNELS, FILTERS) for stride in STRIDES]
        axes.append((32, FCN32_SIZES, FCN32_CHANNELS, FCN32_FILTERS))
        for stride, sizes, channel_axis, filter_axis in axes:
            kernel = 2 * stride
            for size in sizes:
                for channels in channel_axis:
                    for filters in filter_axis:
                        spec = DeconvSpec(
                            input_height=size, input_width=size,
                            in_channels=channels,
                            kernel_height=kernel, kernel_width=kernel,
                            out_channels=filters,
                            stride=stride, padding=stride // 2,
                        )
                        jobs.extend(
                            DesignJob(
                                design, spec, tech,
                                layer_name=(
                                    f"{design}/t{tech_index}/s{stride}"
                                    f"/i{size}/c{channels}/m{filters}"
                                ),
                            )
                            for design in designs
                        )
    return jobs


def scalar_sweep(jobs: list[DesignJob]) -> list:
    """The oracle route: one scalar evaluation per job."""
    return [evaluate_design_job(job) for job in jobs]


def _median_time(fn, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_vectorized_sweep_speedup():
    jobs = build_grid()

    # Correctness gate first: the vectorized plane must be bit-identical
    # to the scalar oracle, job for job (pickle bytes compare every
    # float64 component exactly).
    scalar_results = scalar_sweep(jobs)
    vectorized_results = run_design_jobs(jobs)
    for job, scalar, vectorized in zip(jobs, scalar_results, vectorized_results):
        assert pickle.dumps(scalar, 5) == pickle.dumps(vectorized, 5), (
            f"vectorized plane diverged from the scalar oracle on {job.layer_name}"
        )

    t_scalar = _median_time(lambda: scalar_sweep(jobs))
    t_vectorized = _median_time(lambda: run_design_jobs(jobs))
    speedup_scalar = t_scalar / t_vectorized

    emit(
        render_ascii_table(
            ("execution route", "wall-clock (ms)", "jobs/s", "speedup"),
            [
                (
                    "scalar sequential (oracle)",
                    f"{t_scalar * 1e3:.1f}",
                    f"{len(jobs) / t_scalar:.0f}",
                    "1.00x",
                ),
                (
                    "vectorized plane (bit-identical)",
                    f"{t_vectorized * 1e3:.1f}",
                    f"{len(jobs) / t_vectorized:.0f}",
                    f"{speedup_scalar:.1f}x",
                ),
            ],
            title=(
                f"ISSUE-4 analytic sweep: {len(jobs)} jobs, "
                f"strides {STRIDES}, K=2s (quick={QUICK})"
            ),
        )
    )
    document = {
        "schema": 1,
        "quick": QUICK,
        "grid": {
            "jobs": len(jobs),
            "designs": list(available_designs()),
            "strides": list(STRIDES),
            "input_sizes": [INPUT_SIZES[0], INPUT_SIZES[-1]],
            "channels": list(CHANNELS),
            "filters": list(FILTERS),
            "fcn32_slice": {
                "stride": 32,
                "input_sizes": list(FCN32_SIZES),
                "channels": list(FCN32_CHANNELS),
                "filters": list(FCN32_FILTERS),
            },
            "techs": NUM_TECHS,
        },
        "scalar_sequential_s": t_scalar,
        "vectorized_s": t_vectorized,
        "speedup_vs_scalar": speedup_scalar,
        "jobs_per_s_vectorized": len(jobs) / t_vectorized,
        "bit_identical": True,
        "floors": {"scalar": SCALAR_FLOOR},
    }
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert speedup_scalar >= SCALAR_FLOOR, (
        f"vectorized plane only {speedup_scalar:.1f}x faster than the scalar "
        f"sequential path (floor {SCALAR_FLOOR}x); "
        f"scalar={t_scalar:.3f}s vectorized={t_vectorized:.3f}s"
    )
