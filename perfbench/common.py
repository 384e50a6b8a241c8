"""Shared pieces: paths, statistics, memory, provenance, the result line."""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Scratch space for stores, span files and server logs.  Inside the
#: checkout so the benchmark reads and writes nothing outside it.
WORK = ROOT / ".perfbench"

WORKLOADS = ("grid-cold", "grid-rerun", "serve-open", "deep-eval")

#: The tail percentile each workload records as ``latency_tail_ms``: the
#: highest one that keeps at least ten samples beyond it at the request
#: counts a 20-second run produces.
TAIL_PERCENTILE = {"grid-cold": 95, "grid-rerun": 99, "serve-open": 99, "deep-eval": 95}

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 5

#: ``serve-open``: fixed arrival rate of the main phase, the latency
#: limit on the tail, and the rate ladder ``sustained_rps`` is read off.
SERVE_RATE = 100
SERVE_LIMIT_MS = 50.0
SERVE_LADDER = tuple(range(100, 900, 25))
SERVE_LADDER_PROBES = 4
#: Shares of an untraced ``serve-open`` run: an untimed prefix at the
#: main rate that brings the response cache to its steady mix, the main
#: phase, and the ladder (the rest).
SERVE_PREFIX_SHARE = 0.1
SERVE_MAIN_SHARE = 0.7
#: Share of a ladder step's requests that must answer within the limit.
SERVE_LADDER_SHARE = 0.95


def child_env() -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(ROOT)])
    env["TMPDIR"] = str(WORK)
    return env


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values) -> float:
    return statistics.median(values)


def self_peak_rss_mb() -> float:
    """Peak resident memory of this process."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _process_tree(pid: int) -> list[int]:
    """A live process and its descendants."""
    found, pending = [], [pid]
    while pending:
        current = pending.pop()
        found.append(current)
        for task in Path(f"/proc/{current}/task").glob("*/children"):
            try:
                pending.extend(int(child) for child in task.read_text().split())
            except OSError:
                continue
    return found


def tree_peak_rss_mb(pid: int) -> float:
    """Summed peak resident memory of a live process and its children."""
    total_kb = 0
    for member in _process_tree(pid):
        try:
            status = Path(f"/proc/{member}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kb += int(line.split()[1])
    return total_kb / 1024.0


def tree_cpu_s(pid: int) -> float:
    """Summed user and system CPU seconds of a live process and its
    children.  CPU time the host takes from the guest (steal) is not in
    it, unlike wall time."""
    ticks = 0
    for member in _process_tree(pid):
        try:
            stat = Path(f"/proc/{member}/stat").read_text()
        except OSError:
            continue
        fields = stat.rsplit(")", 1)[1].split()
        ticks += int(fields[11]) + int(fields[12])
    return ticks / os.sysconf("SC_CLK_TCK")


def digest_update(hasher, payload) -> None:
    """Feed one output into a run digest (canonical JSON)."""
    hasher.update(json.dumps(payload, sort_keys=True).encode("utf-8"))
    hasher.update(b"\n")


def source_digest() -> str:
    """SHA-256 over the program's source tree (the checkout has no git)."""
    hasher = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        hasher.update(str(path.relative_to(SRC)).encode())
        hasher.update(path.read_bytes())
    return hasher.hexdigest()


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def provenance(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    import numpy

    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "workload": workload,
        "seed": seed,
        "run_seconds": seconds,
        "traced": trace,
        "latency_tail_percentile": TAIL_PERCENTILE[workload],
    }
    if workload == "serve-open":
        record.update(
            serve_rate_rps=SERVE_RATE,
            sustained_limit_ms=SERVE_LIMIT_MS,
            sustained_within_share=SERVE_LADDER_SHARE,
            sustained_ladder_rps=list(SERVE_LADDER),
            sustained_probes=SERVE_LADDER_PROBES,
            prefix_share=SERVE_PREFIX_SHARE,
            main_share=SERVE_MAIN_SHARE,
        )
    return record


def modelled_claims() -> dict:
    """The paper-vs-model record: each claim's measured number beside
    the published one, untimed, once per invocation."""
    from repro.eval.comparison import measure_claims

    rows = measure_claims()
    strict = [row for row in rows if row.strict]
    return {
        "in_band": sum(row.in_band for row in rows),
        "total": len(rows),
        "strict_passed": sum(row.in_band for row in strict),
        "strict_total": len(strict),
        "claims": [
            {
                "key": row.key,
                "published": row.published,
                "measured": row.measured,
                "in_band": row.in_band,
                "strict": row.strict,
            }
            for row in rows
        ],
    }


def emit(record: dict, correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    """Print the run record, then the result object as the last line."""
    print(json.dumps(record, sort_keys=True))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
