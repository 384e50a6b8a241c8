"""The repository benchmark: four seeded workloads through the public
entry points, every answer checked, metrics printed by name and unit.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload grid-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload twice in fresh processes, half the seconds each, once plain
and once with spans around every layer boundary, and reports the
per-layer metrics (self time and calls per boundary, layer counters)
together with the tracing overhead.  The last line of standard output
is the result object; the line before it is the run record
(provenance, output digest, modelled-result claims, details).
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import common  # noqa: E402  (the package lives beside this script)

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "requests_per_s": "1/s",
    "success_share": "ratio",
    "peak_rss_mb": "MB",
}

#: Timed boundaries; each reports ``<name>.ms``, its self time per
#: request of the workload, and ``<name>.calls``, its calls per request.
#: Per request, so runs that got through different amounts of work in
#: their fixed time compare directly.
SPAN_LAYERS = (
    "serving.shard_call",
    "serving.frontdoor",
    "api.decode",
    "api.handler",
    "api.encode",
    "eval.runner_self",
    "eval.job_keys",
    "eval.store_get",
    "eval.batch_eval",
    "eval.store_put",
    "arch.perf_batch",
    "sim.batch_engine",
    "sim.compile",
    "reram.sample_grid",
    "reram.profile",
    "workloads.build_network",
    "system.network_evaluation",
    "system.pipeline",
)

#: Layer counters.  Store lookups are per request; the ``serving`` and
#: ``loadgen`` counts cover the traced phase's fixed schedule.
LAYER_COUNTERS = {
    "eval.unique_share": "ratio",
    "eval.store.memory_hits": "jobs/req",
    "eval.store.disk_hits": "jobs/req",
    "eval.store.misses": "jobs/req",
    "eval.store.hit_ratio": "ratio",
    "serving.respcache.hit_ratio": "ratio",
    "serving.admitted": "count",
    "serving.shed": "count",
    "serving.degraded_calls": "count",
    "sim.schedule.hit_ratio": "ratio",
    "loadgen.lag_p99_ms": "ms",
    "loadgen.sent": "count",
    "loadgen.succeeded": "count",
    "loadgen.failed": "count",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in SPAN_LAYERS:
        units[f"{name}.ms"] = "ms/req"
        units[f"{name}.calls"] = "calls/req"
    units.update(LAYER_COUNTERS)
    return units


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# ----------------------------------------------------------------------
# Set-up: fresh processes timed from spawn
# ----------------------------------------------------------------------
def probe_setups(request: dict, stores: list[Path], work: Path) -> list[float]:
    """Spawn-to-answer seconds of one fresh process per store path."""
    request_path = work / "probe-request.json"
    request_path.write_text(json.dumps(request))
    times = []
    for store in stores:
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-m", "perfbench.probe", str(request_path), str(store)],
            env=common.child_env(), cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        times.append(float(done.stdout.split()[-1]) - start)
    return times


def inprocess_setup(workload: str, seed: int, work: Path) -> list[float]:
    from perfbench import inprocess, inputs

    if workload == "grid-cold":
        request = {"kind": "grid", "call": next(inputs.grid_calls(seed)).to_dict()}
    elif workload == "grid-rerun":
        inprocess.populate_rerun_store(seed, work / "store")
        request = {"kind": "grid", "call": inputs.rerun_plan(seed)[1][0].to_dict()}
    else:
        request = next(inputs.deep_requests(seed))
    if workload == "grid-rerun":
        stores = [work / "store"] * common.SETUP_REPEATS
    else:
        stores = [work / f"probe-store-{i}" for i in range(common.SETUP_REPEATS)]
    return probe_setups(request, stores, work)


# ----------------------------------------------------------------------
# In-process workloads
# ----------------------------------------------------------------------
def inprocess_end_to_end(workload: str, seed: int, seconds: int, work: Path):
    from perfbench.inprocess import run_phase

    setups = inprocess_setup(workload, seed, work)
    phase = run_phase(workload, seed, seconds, work, traced=False)
    latencies_ms = [s * 1000.0 for s in phase["latencies_s"]]
    # Rates are medians over the phase's units (grid calls or network
    # rotations), each with the same mix, so a burst of outside load on
    # the host moves a few units, not the result.
    units = phase["units"]
    metrics = {
        "setup_s": common.median(setups),
        "jobs_per_s": common.median([jobs / busy for _, jobs, busy, _ in units]),
        "requests_per_s": common.median([r / busy for r, _, busy, _ in units]),
        "success_share": _ratio(phase["attempted"] - phase["failed"], phase["attempted"]),
        "peak_rss_mb": phase["peak_rss_mb"],
    }
    details = _phase_details(phase)
    details["setup_samples_s"] = setups
    details["cpu_ms_per_request"] = common.median([cpu * 1000.0 / r for r, _, _, cpu in units])
    details.update(_latency(workload, latencies_ms))
    return metrics, phase["attempted"], phase["failed"], phase["digest"], details


def _latency(workload: str, latencies_ms: list[float]) -> dict:
    """Latency median and tail: recorded, not end-to-end metrics (see README)."""
    pct = common.TAIL_PERCENTILE[workload]
    return {
        "latency_p50_ms": common.median(latencies_ms),
        "latency_tail_ms": common.percentile(latencies_ms, pct),
        "latency_tail_percentile": pct,
        "latency_samples": len(latencies_ms),
    }


def _phase_details(phase: dict) -> dict:
    keep = ("requests", "jobs", "busy_s", "failed", "errors", "digest_requests", "store", "schedule")
    return {key: phase[key] for key in keep if key in phase}


def _run_phase_child(workload: str, seed: int, seconds: float, work: Path, traced: bool) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, "-m", "perfbench.inprocess", "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--work", str(work),
    ]
    if traced:
        command.append("--traced")
    done = subprocess.run(
        command, env=common.child_env(), cwd=ROOT, capture_output=True, text=True, timeout=170
    )
    if done.returncode != 0:
        raise RuntimeError(f"phase process failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def span_metrics(summary: dict, requests: int) -> dict[str, float]:
    metrics = {}
    for name in SPAN_LAYERS:
        metrics[f"{name}.ms"] = summary["self_s"].get(name, 0.0) * 1000.0 / requests
        metrics[f"{name}.calls"] = summary["calls"].get(name, 0) / requests
    return metrics


def inprocess_per_layer(workload: str, seed: int, seconds: int, work: Path):
    half = seconds / 2.0
    plain = _run_phase_child(workload, seed, half, work / "plain", traced=False)
    traced = _run_phase_child(workload, seed, half, work / "traced", traced=True)
    tracer = traced["tracer"]
    metrics = {name: 0.0 for name in per_layer_units()}
    requests = traced["requests"]
    metrics.update(span_metrics(tracer, requests))
    store = traced.get("store", {})
    hits = store.get("memory_hits", 0) + store.get("disk_hits", 0)
    schedule = traced.get("schedule", {"hits": 0, "misses": 0})
    attributed = sum(tracer["self_s"].values())
    metrics.update({
        "eval.unique_share": _ratio(
            tracer["items"].get("eval.batch_eval", 0), tracer["items"].get("eval.runner_self", 0)
        ),
        "eval.store.memory_hits": store.get("memory_hits", 0) / requests,
        "eval.store.disk_hits": store.get("disk_hits", 0) / requests,
        "eval.store.misses": store.get("misses", 0) / requests,
        "eval.store.hit_ratio": _ratio(hits, hits + store.get("misses", 0)),
        "sim.schedule.hit_ratio": _ratio(schedule["hits"], schedule["hits"] + schedule["misses"]),
        "trace.overhead_share": (
            (traced["busy_s"] / traced["requests"]) / (plain["busy_s"] / plain["requests"]) - 1.0
        ),
        "trace.unattributed_share": 1.0 - attributed / traced["busy_s"],
    })
    _keep_spans(work / "traced" / "spans.json", workload, seed)
    attempted = plain["attempted"] + traced["attempted"]
    failed = plain["failed"] + traced["failed"]
    details = {"plain": _phase_details(plain), "traced": _phase_details(traced)}
    return metrics, attempted, failed, traced["digest"], details


def _keep_spans(path: Path, workload: str, seed: int) -> None:
    if path.exists():
        traces = common.WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        shutil.move(str(path), traces / f"{workload}-seed{seed}.json")


# ----------------------------------------------------------------------
# serve-open
# ----------------------------------------------------------------------
def _serve_inputs(seed: int, main_s: float, prefix_s: float = 0.0, ladder_s: float = 0.0):
    """Hot set, untimed prefix, main schedule and one body pool per
    ladder probe, each at most as long as its phase can send."""
    from perfbench import inputs

    bodies = inputs.ServeBodies(seed)
    main = bodies.schedule(int(common.SERVE_RATE * main_s), 0)
    probe_s = ladder_s / common.SERVE_LADDER_PROBES
    pools = []
    if ladder_s:
        pools = [
            bodies.schedule(int(max(common.SERVE_LADDER) * probe_s), stream)
            for stream in range(1, common.SERVE_LADDER_PROBES + 1)
        ]
    prefix = []
    if prefix_s:
        prefix = bodies.schedule(int(common.SERVE_RATE * prefix_s), common.SERVE_LADDER_PROBES + 1)
    return bodies.hot, prefix, main, pools, probe_s


def serve_end_to_end(seed: int, seconds: int, work: Path):
    from perfbench import serve

    prefix_s = seconds * common.SERVE_PREFIX_SHARE
    main_s = seconds * common.SERVE_MAIN_SHARE
    warmup, prefix_bodies, main_bodies, pools, probe_s = _serve_inputs(
        seed, main_s, prefix_s, seconds - prefix_s - main_s
    )
    setups = []
    for repeat in range(common.SETUP_REPEATS):
        server = serve.ServerProcess(work)
        try:
            setups.append(server.wait_ready())
        except BaseException:
            server.stop()
            raise
        if repeat < common.SETUP_REPEATS - 1:
            server.stop()
    try:
        serve.closed_warmup(server.port, warmup)
        prefix = serve.open_loop(server.port, prefix_bodies, common.SERVE_RATE)
        cpu_before = server.cpu_s()
        main = serve.open_loop(server.port, main_bodies, common.SERVE_RATE)
        main_cpu_s = server.cpu_s() - cpu_before
        sustained, steps = serve.bisect_ladder(
            server.port, pools, common.SERVE_LADDER, common.SERVE_LADDER_PROBES,
            probe_s, common.SERVE_LIMIT_MS, common.SERVE_LADDER_SHARE,
        )
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    loads = [prefix, main] + [load for _, _, load in steps]
    failed = serve.mismatches(loads)
    phase = serve.main_phase_metrics(main)
    attempted = sum(len(load.bodies) for load in loads)
    metrics = {
        "setup_s": common.median(setups),
        "jobs_per_s": phase["jobs"] / phase["wall_s"],
        "requests_per_s": phase["requests"] / phase["wall_s"],
        "success_share": _ratio(attempted - failed, attempted),
        "peak_rss_mb": peak_rss,
    }
    details = {
        "sustained_rps": sustained,
        "setup_samples_s": setups,
        "main_requests": len(main.bodies),
        "prefix_requests": len(prefix.bodies),
        "cpu_ms_per_request": main_cpu_s * 1000.0 / len(main.bodies),
        "lag_p99_ms": phase["lag_p99_ms"],
        "ladder": [[rate, held] for rate, held, _ in steps],
        **_latency("serve-open", phase["latencies_ms"]),
    }
    return metrics, attempted, failed, _answers_digest(main), details


def _answers_digest(load) -> str:
    hasher = hashlib.sha256()
    for answer in load.answers:
        hasher.update(answer)
        hasher.update(b"\n")
    return hasher.hexdigest()


def _serve_phase(work: Path, warmup, bodies, spans: Path | None):
    """One server, warmed up, driven at the main rate; returns the load,
    the client-side seconds spent (warm-up included) and the
    ``/healthz`` counters from before the warm-up and after the load."""
    from perfbench import serve

    server = serve.ServerProcess(work, spans=spans)
    try:
        server.wait_ready()
        before = server.healthz()
        started = time.perf_counter()
        serve.closed_warmup(server.port, warmup)
        warmup_s = time.perf_counter() - started
        load = serve.open_loop(server.port, bodies, common.SERVE_RATE)
        after = server.healthz()
    finally:
        server.stop()
    return load, warmup_s, before, after


def serve_per_layer(seed: int, seconds: int, work: Path):
    from perfbench import serve

    warmup, _, main_bodies, _, _ = _serve_inputs(seed, seconds / 2.0)
    plain, _, _, _ = _serve_phase(work, warmup, main_bodies, None)
    spans_path = work / "spans.json"
    traced, warmup_s, before, after = _serve_phase(work, warmup, main_bodies, spans_path)
    summary = json.loads(spans_path.read_text())["summary"]
    _keep_spans(spans_path, "serve-open", seed)
    failed = serve.mismatches([plain, traced])
    client_s = warmup_s + sum(traced.service_ms) / 1000.0
    server_s = sum(summary["self_s"].values())
    frontdoor_s = client_s - server_s
    summary["self_s"]["serving.frontdoor"] = frontdoor_s
    requests = len(warmup) + len(traced.bodies)
    summary["calls"]["serving.frontdoor"] = requests

    def delta(*path):
        old, new = before, after
        for key in path:
            old, new = old[key], new[key]
        return new - old

    cache_hits = delta("response_cache", "hits")
    cache_lookups = cache_hits + delta("response_cache", "misses")
    metrics = {name: 0.0 for name in per_layer_units()}
    metrics.update(span_metrics(summary, requests))
    succeeded = sum(traced.ok)
    metrics.update({
        "serving.respcache.hit_ratio": _ratio(cache_hits, cache_lookups),
        "serving.admitted": delta("gate", "admitted_total"),
        "serving.shed": delta("gate", "shed_total"),
        "serving.degraded_calls": delta("degraded_calls"),
        "loadgen.lag_p99_ms": common.percentile(traced.lag_ms, 99),
        "loadgen.sent": len(traced.bodies),
        "loadgen.succeeded": succeeded,
        "loadgen.failed": len(traced.bodies) - succeeded,
        "trace.overhead_share": (
            sum(traced.service_ms) / len(traced.bodies)
        ) / (sum(plain.service_ms) / len(plain.bodies)) - 1.0,
        # The front door is not instrumented: its share is the part of
        # the client's wait no server-side span covers.
        "trace.unattributed_share": _ratio(frontdoor_s, client_s),
    })
    attempted = len(plain.bodies) + len(traced.bodies)
    details = {"plain_requests": len(plain.bodies), "traced_requests": len(traced.bodies)}
    return metrics, attempted, failed, _answers_digest(traced), details


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=common.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if not (common.SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program source under {common.SRC}; "
            "run from the root of a full checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(common.SRC))
    common.WORK.mkdir(parents=True, exist_ok=True)
    work = common.WORK / f"{args.workload}-seed{args.seed}-{time.monotonic_ns()}"
    work.mkdir(parents=True)
    try:
        if args.workload == "serve-open":
            measure = serve_per_layer if args.trace else serve_end_to_end
            metrics, attempted, failed, digest, details = measure(args.seed, args.seconds, work)
        else:
            measure = inprocess_per_layer if args.trace else inprocess_end_to_end
            metrics, attempted, failed, digest, details = measure(
                args.workload, args.seed, args.seconds, work
            )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = per_layer_units() if args.trace else END_TO_END
    record = {
        "provenance": common.provenance(args.workload, args.seed, args.seconds, bool(args.trace)),
        "digest": digest,
        "modelled_claims": common.modelled_claims(),
        "details": details,
    }
    common.emit(
        record,
        correct=failed == 0,
        attempted=attempted,
        failed=failed,
        metrics={name: (metrics[name], unit) for name, unit in units.items()},
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
