"""ISSUE-5 acceptance benchmark: the batched cache plane.

The cold vectorized analytic plane (``BENCH_sweep.json``) is fast
enough that the warm path — serving already-computed results — has to
earn its place.  This module gates the store tier on the same ~10k-job
stride-sweep grid (``bench_sweep_vectorized.build_grid``):

1. **Cold vectorized** (`run_design_jobs`, no cache): the baseline the
   warm path must beat.
2. **Packed warm** (`run_design_jobs` over a warm
   :class:`~repro.eval.store.PackedSweepStore`): batched
   :func:`~repro.eval.parallel.job_keys` + one ``get_many`` against
   the in-memory LRU hit tier.  Also measured with the tier disabled
   (``memory_entries=0``) to report the disk tier on its own: the
   store's in-memory index over its segment files, one open per
   touched segment per probe.
3. **Cold + publish** (`run_design_jobs` against a fresh
   :class:`~repro.eval.store.PackedSweepStore` each time): the probe
   misses, the cold plane evaluates, and one ``put_many`` encodes and
   writes the batch — the store's write cost on top of route 1.
   Report-only: it has no floor.  One published store is read back
   from disk alone for the identity gate.

Gate: packed warm must be **>= 3x** the cold vectorized jobs/s, with
cold/warm/disk/publish results *byte-identical* (per-element pickle bytes).  Measurements
land in ``BENCH_cache.json`` (path override: ``RED_BENCH_CACHE_JSON``),
uploaded as a CI artifact.  ``RED_BENCH_QUICK=1`` selects the smoke
configuration (smaller grid, lower floors).
"""

from __future__ import annotations

import json
import os
import pickle
import statistics
import time

from benchmarks.bench_sweep_vectorized import build_grid
from benchmarks.conftest import emit
from repro.eval.parallel import run_design_jobs
from repro.eval.store import PackedSweepStore
from repro.utils.formatting import render_ascii_table

QUICK = os.environ.get("RED_BENCH_QUICK") == "1"

COLD_FLOOR = 1.2 if QUICK else 3.0
REPEATS = 3

JSON_PATH = os.environ.get("RED_BENCH_CACHE_JSON", "BENCH_cache.json")


def _median_time(fn, repeats: int = REPEATS) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def _digest(results) -> list[bytes]:
    """Per-element pickles (list-level pickling memoizes shared objects)."""
    return [pickle.dumps(m, protocol=pickle.HIGHEST_PROTOCOL) for m in results]


def test_cache_plane_speedup(tmp_path):
    jobs = build_grid()

    # --- route 1: cold vectorized (no cache) ---------------------------
    cold_results = run_design_jobs(jobs)
    t_cold = _median_time(lambda: run_design_jobs(jobs))

    # --- route 2: packed warm (memory tier + disk tier) ---------------
    store = PackedSweepStore(tmp_path / "packed")
    run_design_jobs(jobs, cache=store)  # populate segments + LRU tier
    warm_results = run_design_jobs(jobs, cache=store)
    assert store.misses == len(jobs)  # only the populate run missed
    t_warm = _median_time(lambda: run_design_jobs(jobs, cache=store))

    disk_store = PackedSweepStore(tmp_path / "packed", memory_entries=0)
    disk_results = run_design_jobs(jobs, cache=disk_store)
    assert disk_store.misses == 0
    t_disk = _median_time(lambda: run_design_jobs(jobs, cache=disk_store))

    # --- route 3: cold evaluation + one put_many into a fresh store ----
    fresh_dirs = (tmp_path / f"publish-{index}" for index in range(REPEATS + 1))
    publish = lambda: run_design_jobs(  # noqa: E731
        jobs, cache=PackedSweepStore(next(fresh_dirs))
    )
    publish()
    t_publish = _median_time(publish)
    # Read the first published store back from disk alone, so the
    # identity gate below checks decoded records, not the cold values.
    readback_store = PackedSweepStore(tmp_path / "publish-0", memory_entries=0)
    publish_results = run_design_jobs(jobs, cache=readback_store)
    assert readback_store.misses == 0

    # Correctness gate: every route serves byte-identical metrics.
    digest_cold = _digest(cold_results)
    assert digest_cold == _digest(warm_results), (
        "packed warm path diverged from the cold vectorized results"
    )
    assert digest_cold == _digest(disk_results), (
        "packed disk tier diverged from the cold vectorized results"
    )
    assert digest_cold == _digest(publish_results), (
        "records published by the cold route read back differently"
    )

    speedup_cold = t_cold / t_warm
    rows = [
        (
            "cold vectorized (no cache)",
            f"{t_cold * 1e3:.1f}",
            f"{len(jobs) / t_cold:.0f}",
            "1.00x",
        ),
        (
            "cold + publish (fresh store, report-only)",
            f"{t_publish * 1e3:.1f}",
            f"{len(jobs) / t_publish:.0f}",
            f"{t_cold / t_publish:.2f}x",
        ),
        (
            "packed warm, disk tier (segments)",
            f"{t_disk * 1e3:.1f}",
            f"{len(jobs) / t_disk:.0f}",
            f"{t_cold / t_disk:.2f}x",
        ),
        (
            "packed warm, memory tier (LRU)",
            f"{t_warm * 1e3:.1f}",
            f"{len(jobs) / t_warm:.0f}",
            f"{speedup_cold:.2f}x",
        ),
    ]
    emit(
        render_ascii_table(
            ("cache route", "wall-clock (ms)", "jobs/s", "vs cold"),
            rows,
            title=(
                f"Cache plane: {len(jobs)} jobs, "
                f"{len(store)} unique entries (quick={QUICK})"
            ),
        )
    )

    document = {
        "schema": 1,
        "quick": QUICK,
        "jobs": len(jobs),
        "unique_entries": len(store),
        "cold_vectorized_s": t_cold,
        "packed_warm_memory_s": t_warm,
        "packed_warm_disk_s": t_disk,
        "cold_publish_s": t_publish,
        "jobs_per_s": {
            "cold_vectorized": len(jobs) / t_cold,
            "packed_warm_memory": len(jobs) / t_warm,
            "packed_warm_disk": len(jobs) / t_disk,
            "cold_publish": len(jobs) / t_publish,
        },
        "speedup_vs_cold": speedup_cold,
        "byte_identical": True,
        "store": disk_store.stats() | {"warm_stats": store.stats()},
        "floors": {"cold": COLD_FLOOR},
    }
    with open(JSON_PATH, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert speedup_cold >= COLD_FLOOR, (
        f"packed warm path only {speedup_cold:.2f}x the cold vectorized "
        f"route (floor {COLD_FLOOR}x); cold={t_cold:.3f}s warm={t_warm:.3f}s"
    )
