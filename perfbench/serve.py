"""The open-loop ``serve-open`` workload against ``python -m repro serve``.

The server runs in its own process with its default settings.  One
generator process sends pre-encoded request bodies on a fixed-rate
schedule over at most ``nproc`` (and at most two) keep-alive
connections.  A request is timed from the moment it was due, so a stall
also charges the requests queued behind it; how late the generator sent
each request is reported as its lag.  Every answer is compared byte for
byte with the answer an in-process ``RedService`` gives to the same
body.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from perfbench.common import child_env, percentile, tree_cpu_s, tree_peak_rss_mb

CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
_READY_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 60.0


class ServerProcess:
    """A ``repro serve --port 0`` child: start, wait ready, stop."""

    def __init__(self, work: Path, spans: Path | None = None) -> None:
        self.log = work / f"server-{time.monotonic_ns()}.log"
        if spans is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0"]
        else:
            command = [sys.executable, "-m", "perfbench.launcher", str(spans)]
        self.started = time.perf_counter()
        with open(self.log, "wb") as log:
            self.process = subprocess.Popen(
                command, env=child_env(), stdout=subprocess.DEVNULL, stderr=log
            )
        self.port = 0

    def wait_ready(self) -> float:
        """Seconds from spawn until ``/readyz`` answered 200."""
        from repro.errors import ShardUnavailableError
        from repro.serving.client import ServingClient

        deadline = self.started + _READY_TIMEOUT_S
        while not self.port:
            if self.process.poll() is not None or time.perf_counter() > deadline:
                raise RuntimeError(f"server did not start: {self.log.read_text()}")
            text = self.log.read_text()
            if "listening on" in text:
                self.port = int(text.split("listening on ", 1)[1].split()[0].rsplit(":", 1)[1])
            else:
                time.sleep(0.002)
        with ServingClient("127.0.0.1", self.port, timeout=10.0) as client:
            while True:
                try:
                    status, _ = client.readyz()
                except ShardUnavailableError:
                    status = 0
                if status == 200:
                    return time.perf_counter() - self.started
                if time.perf_counter() > deadline:
                    raise RuntimeError("server never became ready")
                time.sleep(0.002)

    def healthz(self) -> dict:
        from repro.serving.client import ServingClient

        with ServingClient("127.0.0.1", self.port, timeout=10.0) as client:
            return client.healthz()[1]

    def peak_rss_mb(self) -> float:
        return tree_peak_rss_mb(self.process.pid)

    def cpu_s(self) -> float:
        """CPU seconds used so far by the server and its shards."""
        return tree_cpu_s(self.process.pid)

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; kill only if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.unlink(missing_ok=True)
        return self.process.returncode


@dataclass
class LoadResult:
    """Per-request timings of one open-loop phase (seconds)."""

    bodies: list[bytes]
    due: list[float]
    sent: list[float] = field(default_factory=list)
    done: list[float] = field(default_factory=list)
    status: list[int] = field(default_factory=list)
    answers: list[bytes] = field(default_factory=list)

    @property
    def latencies_ms(self) -> list[float]:
        """From due time to answer."""
        return [(d - u) * 1000.0 for d, u in zip(self.done, self.due)]

    @property
    def service_ms(self) -> list[float]:
        """From send time to answer (what the client itself waited)."""
        return [(d - s) * 1000.0 for d, s in zip(self.done, self.sent)]

    @property
    def lag_ms(self) -> list[float]:
        return [(s - u) * 1000.0 for s, u in zip(self.sent, self.due)]

    @property
    def ok(self) -> list[bool]:
        return [status == 200 for status in self.status]

    @property
    def wall_s(self) -> float:
        return max(self.done) - self.due[0]


def open_loop(port: int, bodies: list[bytes], rate: float) -> LoadResult:
    """Send ``bodies`` at ``rate`` per second, due times fixed upfront."""
    n = len(bodies)
    start = time.perf_counter() + 0.05
    result = LoadResult(bodies=bodies, due=[start + i / rate for i in range(n)])
    result.sent = [0.0] * n
    result.done = [0.0] * n
    result.status = [0] * n
    result.answers = [b""] * n
    cursor = iter(range(n))
    lock = threading.Lock()
    headers = {"Content-Type": "application/json"}

    def worker() -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                wait = result.due[i] - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                result.sent[i] = time.perf_counter()
                try:
                    conn.request("POST", "/v1/payload", body=bodies[i], headers=headers)
                    response = conn.getresponse()
                    result.answers[i] = response.read()
                    result.status[i] = response.status
                except (OSError, http.client.HTTPException):
                    conn.close()
                    result.status[i] = -1
                result.done[i] = time.perf_counter()
        finally:
            conn.close()

    threads = [threading.Thread(target=worker) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return result


def closed_warmup(port: int, bodies: list[bytes]) -> None:
    """Sequential untimed requests: lazy imports finish and the response
    cache holds the hot set before timing starts."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        for body in bodies:
            conn.request("POST", "/v1/payload", body=body, headers={"Content-Type": "application/json"})
            conn.getresponse().read()
    finally:
        conn.close()


def step_passes(load: LoadResult, limit_ms: float, share: float) -> bool:
    """A ladder step holds when the required share of its requests
    answered 200 within the limit (from due time) and the last tenth of
    its requests went out with a median lag within the limit (the
    backlog did not grow)."""
    within = sum(
        ok and latency <= limit_ms for ok, latency in zip(load.ok, load.latencies_ms)
    )
    last_tenth = load.lag_ms[-max(1, len(load.bodies) // 10):]
    return within >= share * len(load.bodies) and percentile(last_tenth, 50) <= limit_ms


def bisect_ladder(port, pools, ladder, probes, probe_s, limit_ms, share) -> tuple[float, list]:
    """Highest ladder rate that holds, found with ``probes`` steps of
    bisection (probe ``k`` always draws its bodies from pool ``k``)."""
    low, high = -1, len(ladder)
    steps = []
    for k in range(probes):
        if high - low <= 1:
            break
        mid = (low + high) // 2
        rate = ladder[mid]
        load = open_loop(port, pools[k][: max(1, int(rate * probe_s))], rate)
        held = step_passes(load, limit_ms, share)
        steps.append((rate, held, load))
        if held:
            low = mid
        else:
            high = mid
        time.sleep(0.2)
    return (ladder[low] if low >= 0 else 0.0), steps


def design_jobs(body: bytes) -> int:
    """``DesignJob``s one request covers (every design is requested)."""
    from repro.api.registry import available_designs

    wire = json.loads(body)
    if wire["kind"] == "sweep_request":
        return 2 * len(set(wire["strides"]))
    return len(wire["designs"]) or len(available_designs())


def reference_answers(bodies) -> dict[bytes, bytes]:
    """The in-process ``RedService`` answer to each distinct body,
    encoded exactly as the server encodes it."""
    from repro.api import RedService
    from perfbench.inprocess import answer

    references = {}
    with RedService() as service:
        for body in bodies:
            if body not in references:
                references[body] = json.dumps(answer(service, json.loads(body))).encode("utf-8")
    return references


def mismatches(loads: list[LoadResult]) -> int:
    """Answers that failed or differ from the in-process reference."""
    references = reference_answers(body for load in loads for body in load.bodies)
    return sum(
        not ok or answer != references[body]
        for load in loads
        for ok, body, answer in zip(load.ok, load.bodies, load.answers)
    )


def main_phase_metrics(load: LoadResult) -> dict:
    ok_answers = [body for ok, body in zip(load.ok, load.bodies) if ok]
    return {
        "latencies_ms": load.latencies_ms,
        "requests": len(ok_answers),
        "jobs": sum(design_jobs(body) for body in ok_answers),
        "wall_s": load.wall_s,
        "lag_p99_ms": percentile(load.lag_ms, 99),
    }
