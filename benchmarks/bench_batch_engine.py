"""ISSUE-1 acceptance benchmark: batched vs sequential stride sweep.

The *sequential path* is what the seed repo did for every sweep point:
replay the zero-skipping schedule through the scalar per-event Python
loop (:meth:`REDDesign.run_cycle_accurate`, unchanged) and evaluate the
analytical model inline, one point at a time, nothing cached.

The *batched path* is this PR's substrate: the vectorized
:class:`~repro.sim.batch.BatchEngine` for the cycle-level execution plus
:func:`~repro.eval.parallel.run_design_jobs` over a warm
:class:`~repro.eval.store.PackedSweepStore` for the metrics.

``test_batched_sweep_speedup`` asserts the two paths agree and that the
batched one is >= 5x faster wall-clock.  Set ``RED_BENCH_QUICK=1`` for
the CI smoke configuration (smaller layers, >= 2x floor).
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from benchmarks.conftest import emit
from repro.arch.tech import default_tech
from repro.core.red_design import REDDesign
from repro.deconv.shapes import DeconvSpec
from repro.designs.zero_padding_design import ZeroPaddingDesign
from repro.eval.parallel import DesignJob, run_design_jobs
from repro.eval.store import PackedSweepStore
from repro.eval.sweeps import stride_speedup_sweep
from repro.sim.batch import BatchEngine, BatchJob
from repro.utils.formatting import render_ascii_table

QUICK = os.environ.get("RED_BENCH_QUICK") == "1"
STRIDES = (1, 2, 3) if QUICK else (1, 2, 3, 4)
INPUT_SIZE = 6 if QUICK else 8
CHANNELS = 8 if QUICK else 16
FILTERS = 4 if QUICK else 8
REPEATS = 1 if QUICK else 3
SPEEDUP_FLOOR = 2.0 if QUICK else 5.0


def sweep_specs() -> list[DeconvSpec]:
    """The FCN-convention (K = 2s) stride sweep layers."""
    return [
        DeconvSpec(
            input_height=INPUT_SIZE, input_width=INPUT_SIZE,
            in_channels=CHANNELS,
            kernel_height=max(2 * s, 2), kernel_width=max(2 * s, 2),
            out_channels=FILTERS,
            stride=s, padding=s // 2,
        )
        for s in STRIDES
    ]


def _sequential_sweep(specs, operands):
    """The seed repo's path: scalar engine + inline, uncached evaluation."""
    points = []
    for spec, (x, w) in zip(specs, operands):
        red = REDDesign(spec, fold=1)
        run = red.run_cycle_accurate(x, w)
        red_metrics = red.evaluate(f"stride{spec.stride}")
        zp_metrics = ZeroPaddingDesign(spec).evaluate(f"stride{spec.stride}")
        points.append((run.output, run.cycles, red_metrics, zp_metrics))
    return points


def _batched_sweep(specs, operands, cache):
    """The batched path: BatchEngine + cached metric evaluation."""
    batch = BatchEngine().run(
        [BatchJob(spec, fold=1) for spec in specs], operands=operands
    )
    tech = default_tech()
    design_jobs = []
    for spec in specs:
        design_jobs.append(DesignJob("RED", spec, tech, fold=1))
        design_jobs.append(DesignJob("zero-padding", spec, tech))
    metrics = run_design_jobs(design_jobs, cache=cache)
    return [
        (result.output, result.cycles, metrics[2 * i], metrics[2 * i + 1])
        for i, result in enumerate(batch.results)
    ]


def _median_time(fn, repeats=REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def test_batched_sweep_speedup(tmp_path):
    specs = sweep_specs()
    engine = BatchEngine()
    operands = [engine.operands_for(BatchJob(spec, seed=i)) for i, spec in enumerate(specs)]
    cache = PackedSweepStore(tmp_path)

    # Warm-up: populate the metrics cache and the compiled-schedule LRU,
    # and check the two paths agree before timing anything.
    sequential = _sequential_sweep(specs, operands)
    batched = _batched_sweep(specs, operands, cache)
    for (seq_out, seq_cycles, seq_red, seq_zp), (bat_out, bat_cycles, bat_red, bat_zp) in zip(
        sequential, batched
    ):
        assert seq_cycles == bat_cycles
        np.testing.assert_allclose(seq_out, bat_out, atol=1e-9)
        assert seq_red.speedup_over(seq_zp) == bat_red.speedup_over(bat_zp)

    t_sequential = _median_time(lambda: _sequential_sweep(specs, operands))
    t_batched = _median_time(lambda: _batched_sweep(specs, operands, cache))
    speedup = t_sequential / t_batched
    emit(
        render_ascii_table(
            ("path", "wall-clock (s)", "speedup"),
            [
                ("sequential (scalar engine, no cache)", f"{t_sequential:.4f}", "1.00x"),
                (
                    "batched (BatchEngine + warm store)",
                    f"{t_batched:.4f}",
                    f"{speedup:.2f}x",
                ),
            ],
            title=f"ISSUE-1 stride sweep benchmark (quick={QUICK})",
        )
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"batched path only {speedup:.2f}x faster (floor {SPEEDUP_FLOOR}x); "
        f"sequential={t_sequential:.4f}s batched={t_batched:.4f}s"
    )


def test_warm_cache_makes_analytic_sweep_cheap(tmp_path):
    """The closed-form sweep itself: warm cache never slower than 2x cold."""
    strides = STRIDES
    cold = _median_time(lambda: stride_speedup_sweep(strides=strides))
    cache = PackedSweepStore(tmp_path)
    stride_speedup_sweep(strides=strides, cache=cache)  # populate
    warm = _median_time(lambda: stride_speedup_sweep(strides=strides, cache=cache))
    emit(
        f"analytic stride sweep: cold {cold * 1e3:.2f} ms, "
        f"warm-cache {warm * 1e3:.2f} ms (hits={cache.hits})"
    )
    assert cache.hits >= 2 * len(strides)
    # The analytic model is already cheap; the cache must at least not
    # regress it pathologically.
    assert warm <= cold * 2 + 0.05
