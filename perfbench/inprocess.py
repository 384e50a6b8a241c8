"""The closed-loop in-process workloads: ``grid-cold``, ``grid-rerun``
and ``deep-eval``.

One caller drives a ``RedService`` and waits for each answer before
sending the next request.  Only the calls themselves are timed; input
generation, digests and the answer checks run between or after them.

A phase is made of whole passes of 16 grid calls (``grid-*``) or
network rotations of 20 requests (``deep-eval``), so every run carries
the same mix, and runs until its timed calls add up to the requested
seconds.  It reports the requests, jobs and busy time of each unit with
an identical mix, a grid call or a rotation, so rates can be taken per
unit.

Run one phase in a fresh process with::

    python3 -m perfbench.inprocess --workload grid-cold --seed 1 \\
        --seconds 10 --work DIR [--traced]

which prints the phase's JSON summary on its last line.  ``run.py``
does this for the two halves of a traced run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from perfbench import inputs
from perfbench.common import digest_update, self_peak_rss_mb
from perfbench.spans import Tracer, count_jobs, library_targets, patched

#: Outputs of the first calls of every run feed the digest, so runs of
#: different speed on one seed (and two commits) compare exactly.
DIGEST_CALLS = {"grid-cold": 8, "grid-rerun": 8, "deep-eval": inputs.DEEP_ROTATION}

_SAMPLE_DOMAIN = 99


class Phase:
    """Timing, digest and answer-check bookkeeping of one phase."""

    def __init__(self, workload: str, seed: int, tracer: Tracer | None) -> None:
        self.workload = workload
        self.tracer = tracer
        self.latencies: list[float] = []
        self.cpu_s = 0.0
        self.jobs = 0
        self.units: list[tuple[int, int, float, float]] = []
        self._unit_start = (0, 0, 0.0, 0.0)
        self.failed = 0
        self.errors: list[str] = []
        self.hasher = hashlib.sha256()
        self.sample_rng = np.random.default_rng(
            np.random.SeedSequence(seed, spawn_key=(_SAMPLE_DOMAIN,))
        )

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    @property
    def digesting(self) -> bool:
        """Whether the latest request is one of the digested first ones."""
        return len(self.latencies) <= DIGEST_CALLS[self.workload]

    def more(self, seconds: float) -> bool:
        """Whether to start another unit (there is always at least one)."""
        return not self.units or self.busy_s < seconds

    def end_unit(self) -> None:
        """Close a unit: its requests, jobs, busy and CPU seconds."""
        now = (len(self.latencies), self.jobs, self.busy_s, self.cpu_s)
        self.units.append(tuple(b - a for a, b in zip(self._unit_start, now)))
        self._unit_start = now

    def tracing(self):
        """Wrappers around every layer boundary, for the timed loop only
        (set-up and the answer checks stay untraced)."""
        if self.tracer is None:
            return nullcontext()
        return patched(self.tracer, library_targets())

    def timed(self, call, *args):
        """Run one request, timing it; ``None`` if it raised."""
        if self.tracer is not None:
            self.tracer.begin_request()
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            result = call(*args)
        except Exception as exc:  # a failed request is counted, not fatal
            result = None
            self.failed += 1
            self.errors.append(f"{type(exc).__name__}: {exc}")
        self.latencies.append(time.perf_counter() - start)
        self.cpu_s += time.process_time() - cpu
        return result

    def summary(self, extra: dict) -> dict:
        return {
            "workload": self.workload,
            "latencies_s": self.latencies,
            "units": self.units,
            "busy_s": self.busy_s,
            "requests": len(self.latencies),
            "jobs": self.jobs,
            "attempted": len(self.latencies),
            "failed": self.failed,
            "errors": self.errors[:5],
            "digest": self.hasher.hexdigest(),
            "digest_requests": DIGEST_CALLS[self.workload],
            "peak_rss_mb": self_peak_rss_mb(),
            "tracer": None if self.tracer is None else self.tracer.summary(),
            **extra,
        }


def _open_store(path: Path, tracer: Tracer | None):
    from repro.eval.store import PackedSweepStore

    store = PackedSweepStore(path)
    if tracer is not None:
        store.get_many = tracer.wrap("eval.store_get", store.get_many)
        store.put_many = tracer.wrap("eval.store_put", store.put_many)
    return store


def _runner(tracer: Tracer | None):
    from repro.eval.parallel import run_design_jobs

    if tracer is None:
        return run_design_jobs
    return tracer.wrap("eval.runner_self", run_design_jobs, count_jobs)


def _add_stats(total: dict, stats: dict) -> None:
    for key in ("memory_hits", "disk_hits", "misses", "stores"):
        total[key] = total.get(key, 0) + stats[key]


def _grid_pass(phase: Phase, store_path: Path, calls, samples: list, totals: dict) -> None:
    """One pass of grid calls through a new service over ``store_path``."""
    from repro.api import RedService
    from repro.api.schema import metrics_to_dict

    techs = [inputs.tech_for(i) for i in range(len(inputs.TECH_OVERRIDES))]
    store = _open_store(store_path, phase.tracer)
    service = RedService(cache=store, design_runner=_runner(phase.tracer))
    with phase.tracing():
        for call in calls:
            grid = phase.timed(service.grid, call.layers, techs[call.tech_index])
            if grid is None:
                continue
            phase.jobs += sum(len(row) for row in grid.metrics.values())
            if phase.digesting:
                for layer in call.layers:
                    for design, metrics in grid.metrics[layer.name].items():
                        digest_update(phase.hasher, [design, metrics_to_dict(metrics)])
            layer = call.layers[int(phase.sample_rng.integers(len(call.layers)))]
            design = sorted(grid.metrics[layer.name])[int(phase.sample_rng.integers(3))]
            samples.append(
                (len(phase.latencies) - 1, call.tech_index, layer, design,
                 grid.metrics[layer.name][design])
            )
            phase.end_unit()
    _add_stats(totals, store.stats())
    service.close()
    store.close()


def _check_grid_samples(phase: Phase, samples: list) -> None:
    """Compare one seeded job per call with the scalar oracle."""
    from repro.api.schema import metrics_to_dict
    from repro.eval.parallel import DesignJob, evaluate_design_job

    techs = [inputs.tech_for(i) for i in range(len(inputs.TECH_OVERRIDES))]
    bad = [
        call_index
        for call_index, tech_index, layer, design, answered in samples
        if metrics_to_dict(answered) != metrics_to_dict(evaluate_design_job(
            DesignJob(design, layer.spec, techs[tech_index], layer_name=layer.name)
        ))
    ]
    phase.failed += len(bad)
    phase.errors.extend(f"oracle mismatch in call {i}" for i in bad)


def grid_cold(seed: int, seconds: float, work: Path, tracer: Tracer | None) -> dict:
    """Never-seen shapes: every job misses, is evaluated and published.

    Each pass publishes into a fresh store directory, so every pass
    does the same work whatever the run's length.
    """
    phase = Phase("grid-cold", seed, tracer)
    calls = inputs.grid_calls(seed)
    samples: list = []
    totals: dict = {}
    while phase.more(seconds):
        store_path = work / f"store-{len(phase.units)}"
        _grid_pass(phase, store_path, [next(calls) for _ in range(inputs.CALLS_PER_PASS)], samples, totals)
        shutil.rmtree(store_path)
    _check_grid_samples(phase, samples)
    return phase.summary({"store": totals})


def populate_rerun_store(seed: int, path: Path) -> None:
    """Set-up of ``grid-rerun``: publish the seeded grids it replays."""
    from repro.api import RedService
    from repro.eval.store import PackedSweepStore

    populate, _ = inputs.rerun_plan(seed)
    with PackedSweepStore(path) as store, RedService(cache=store) as service:
        for call in populate:
            service.grid(call.layers, inputs.tech_for(call.tech_index))


def grid_rerun(seed: int, seconds: float, work: Path, tracer: Tracer | None) -> dict:
    """Replays of stored grids: every job hits, half from each tier.

    Each pass opens a new service over the populated store, so its
    memory tier starts empty: a chunk's first replay reads the disk
    tier and its second the memory tier.
    """
    phase = Phase("grid-rerun", seed, tracer)
    store_path = work / "store"
    if not store_path.exists():
        populate_rerun_store(seed, store_path)
    _, one_pass = inputs.rerun_plan(seed)
    samples: list = []
    totals: dict = {}
    while phase.more(seconds):
        _grid_pass(phase, store_path, one_pass, samples, totals)
    _check_grid_samples(phase, samples)
    return phase.summary({"store": totals})


_HANDLERS = {
    "evaluation_request": "evaluate",
    "fidelity_request": "fidelity_sweep",
    "network_request": "evaluate_network",
    "sweep_request": "sweep",
}


def answer(service, wire: dict) -> dict:
    """One request as a JSON client sees it: decode, handle, encode.

    Names are looked up at call time so a traced run's wrappers apply.
    """
    import repro.api.schema as schema

    request = schema.payload_from_dict(wire)
    result = getattr(service, _HANDLERS[wire["kind"]])(request)
    return result.to_dict()


def _design_jobs(wire: dict, payload: dict) -> int:
    """``DesignJob``s a deep-eval answer covers."""
    if wire["kind"] == "network_request":
        return sum(len(layer["metrics"]) for layer in payload["layer_results"])
    return len(payload["designs"])


def _deep_sample(wire: dict, payload: dict, pick: int) -> dict:
    """The part of an answer the check compares: one fidelity point or
    one design's metrics.  Only this is kept until the check, so the
    run does not hold every answer alive while it is timed."""
    if wire["kind"] == "fidelity_request":
        return {"layer": payload["layer"], "point": payload["points"][pick % len(payload["points"])]}
    position = pick % len(payload["designs"])
    return {
        "layer": payload["layer"],
        "design": payload["designs"][position],
        "metrics": payload["metrics"][position],
    }


def _check_deep_samples(phase: Phase, samples: list) -> None:
    """Fidelity points against ``fidelity_point``, analytic metrics
    against ``evaluate_design``."""
    from repro.api.schema import FidelityPoint, metrics_to_dict, payload_from_dict
    from repro.eval.parallel import DesignJob, evaluate_design_job
    from repro.reram.batch import fidelity_point, profile_for_design
    from repro.workloads.specs import get_layer

    bad = []
    for index, wire, answered in samples:
        request = payload_from_dict(wire)
        spec = request.spec if request.spec is not None else get_layer(request.layer).spec
        tech = request.resolved_tech()
        label = answered["layer"]
        if wire["kind"] == "fidelity_request":
            point = FidelityPoint.from_dict(answered["point"])
            profile = profile_for_design(
                point.design, spec, tech, adc_bits=request.adc_bits,
                max_rows=request.max_rows, max_cols=request.max_cols,
            )
            expected = fidelity_point(
                profile, point.seed, point.time_s, nu=request.nu,
                programming_sigma=request.programming_sigma,
                read_noise_sigma=request.read_noise_sigma,
                stuck_at_rate=request.stuck_at_rate, layer=label,
            )
            same = all(
                getattr(expected, name) == getattr(point, name)
                for name in ("rms_error", "mean_abs_error", "max_abs_error", "stuck_fraction")
            )
        else:
            expected = evaluate_design_job(
                DesignJob(answered["design"], spec, tech, fold=request.fold, layer_name=label)
            )
            same = metrics_to_dict(expected) == answered["metrics"]
        if not same:
            bad.append(index)
    phase.failed += len(bad)
    phase.errors.extend(f"oracle mismatch in request {i}" for i in bad)


def deep_eval(seed: int, seconds: float, work: Path, tracer: Tracer | None) -> dict:
    """Unique cycle traces, fidelity sweeps and Table I networks."""
    from repro.api import RedService
    from repro.sim.compiler import schedule_cache_info

    phase = Phase("deep-eval", seed, tracer)
    requests = inputs.deep_requests(seed)
    samples: list = []
    store = _open_store(work / "store", tracer)
    service = RedService(cache=store, design_runner=_runner(tracer))
    with phase.tracing():
        while phase.more(seconds):
            for _ in range(inputs.DEEP_ROTATION):
                wire = next(requests)
                payload = phase.timed(answer, service, wire)
                if payload is None:
                    continue
                phase.jobs += _design_jobs(wire, payload)
                if phase.digesting:
                    digest_update(phase.hasher, payload)
                if wire["kind"] != "network_request":
                    pick = int(phase.sample_rng.integers(1 << 16))
                    samples.append((len(phase.latencies) - 1, wire, _deep_sample(wire, payload, pick)))
            phase.end_unit()
    schedule = schedule_cache_info()
    store_stats = store.stats()
    service.close()
    store.close()
    _check_deep_samples(phase, samples)
    return phase.summary({
        "store": store_stats,
        "schedule": {"hits": schedule.hits, "misses": schedule.misses},
    })


PHASES = {"grid-cold": grid_cold, "grid-rerun": grid_rerun, "deep-eval": deep_eval}


def run_phase(workload: str, seed: int, seconds: float, work: Path, traced: bool) -> dict:
    """One phase, traced or not; a traced phase also writes its spans."""
    tracer = Tracer() if traced else None
    summary = PHASES[workload](seed, seconds, work, tracer)
    if tracer is not None:
        tracer.dump(work / "spans.json")
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(PHASES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    args.work.mkdir(parents=True, exist_ok=True)
    summary = run_phase(args.workload, args.seed, args.seconds, args.work, args.traced)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
