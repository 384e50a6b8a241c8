"""In-memory spans around the calls into each layer of the program.

The benchmark never edits the program: a traced run wraps public
functions and methods of the program's modules from here (and passes
wrapped collaborators through public arguments such as
``RedService(cache=..., design_runner=...)``).  Each wrapped call
records a span (request id, name, start, end, parent span) in memory;
:meth:`Tracer.summary` reduces them to per-layer self time and call
counts.  A span's self time is its duration minus the time its direct
child spans on the same thread cover.

A call into a layer from inside a span of the same name (for example a
result's ``to_dict`` encoding its nested results) is folded into the
outer span rather than counted as another call.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from contextlib import contextmanager
from itertools import count


class Tracer:
    """Collects spans from any number of threads."""

    def __init__(self, roots: tuple[str, ...] = ()) -> None:
        #: Span names that start a new request when opened outside any
        #: other span (the server's decode step); in-process drivers
        #: call :meth:`begin_request` themselves.
        self.roots = roots
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.items: dict[str, int] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_request = 0
        self._span_ids = count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin_request(self) -> int:
        """Start a new request on this thread; later spans share its id."""
        with self._lock:
            self._next_request += 1
            self._local.request = self._next_request
        return self._local.request

    def wrap(self, name: str, fn, items=None):
        """``fn`` recording a ``name`` span per call.

        ``items(args, kwargs)`` optionally counts the work items a call
        carries (jobs in a batch, say), summed under ``name``.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            if not stack and name in self.roots:
                self.begin_request()
            frame = [name, 0.0, next(self._span_ids)]
            parent = stack[-1][2] if stack else 0
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                request = getattr(self._local, "request", 0)
                with self._lock:
                    self.spans.append((frame[2], request, name, start, end, parent))
                    self.self_s[name] = self.self_s.get(name, 0.0) + duration - frame[1]
                    self.calls[name] = self.calls.get(name, 0) + 1
                    if items is not None:
                        self.items[name] = self.items.get(name, 0) + items(args, kwargs)

        return traced

    def summary(self) -> dict:
        with self._lock:
            return {
                "self_s": dict(self.self_s),
                "calls": dict(self.calls),
                "items": dict(self.items),
            }

    def dump(self, path) -> None:
        """Write every span as JSON (written once, when the run ends)."""
        with self._lock:
            spans = [
                {"id": i, "request": r, "name": n, "start": s, "end": e, "parent": p}
                for i, r, n, s, e, p in self.spans
            ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "summary": self.summary()}, handle)


def count_jobs(args, kwargs) -> int:
    return len(args[0]) if args else len(kwargs["jobs"])


@contextmanager
def patched(tracer: Tracer, targets):
    """Wrap each ``(owner, attribute, span_name[, items])`` target for
    the duration of the block, restoring the originals afterwards."""
    saved = []
    try:
        for owner, attribute, name, *items in targets:
            original = owner.__dict__[attribute] if isinstance(owner, type) else getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, tracer.wrap(name, original, *items))
        yield tracer
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def library_targets() -> list[tuple]:
    """Layer boundaries reached by in-process ``RedService`` calls.

    Module-level functions are wrapped where the caller looks them up
    at call time (the runners import their collaborators lazily or by
    module global).  ``run_design_jobs`` and the store are wrapped by
    the workload itself and passed in through ``RedService`` arguments.
    """
    import repro.api.schema as schema
    import repro.eval.parallel as parallel
    import repro.eval.vectorized as vectorized
    import repro.reram.batch as reram_batch
    import repro.sim.batch as sim_batch
    import repro.sim.engine as sim_engine
    import repro.system.chip as chip
    import repro.system.pipeline as pipeline
    import repro.workloads.networks as networks
    from repro.api.service import RedService

    return [
        *_api_targets(schema, RedService),
        (parallel, "job_keys", "eval.job_keys"),
        (vectorized, "evaluate_design_jobs_batch", "eval.batch_eval", count_jobs),
        (vectorized, "evaluate_perf_batch", "arch.perf_batch"),
        (sim_batch.BatchEngine, "run", "sim.batch_engine"),
        (sim_batch, "compile_schedule", "sim.compile"),
        (sim_engine, "compile_schedule", "sim.compile"),
        (reram_batch, "sample_fidelity_grid", "reram.sample_grid"),
        (reram_batch, "profile_for_design", "reram.profile"),
        (networks, "build_network", "workloads.build_network"),
        (RedService, "network_evaluation", "system.network_evaluation"),
        (pipeline, "pipeline_network", "system.pipeline"),
        (chip, "provision_chip", "system.pipeline"),
    ]


def _api_targets(schema, service_cls) -> list[tuple]:
    targets = [(schema, "payload_from_dict", "api.decode")]
    for method in ("grid", "evaluate", "sweep", "fidelity_sweep", "evaluate_network"):
        targets.append((service_cls, method, "api.handler"))
    for result in ("EvaluationResult", "SweepResult", "FidelityResult", "NetworkResult"):
        targets.append((getattr(schema, result), "to_dict", "api.encode"))
    return targets


def server_targets() -> list[tuple]:
    """Layer boundaries inside the ``repro serve`` process.

    The front door decodes through its own module-level reference to
    ``payload_from_dict``; shard work is seen from the parent as
    ``ShardedRunner`` calls.
    """
    import repro.api.schema as schema
    import repro.serving.server as server
    from repro.api.service import RedService
    from repro.serving.runner import ShardedRunner

    targets = [
        target for target in _api_targets(schema, RedService)
        if target[2] != "api.decode"
    ]
    return [
        (server, "payload_from_dict", "api.decode"),
        *targets,
        (ShardedRunner, "__call__", "serving.shard_call"),
    ]
