"""Shard worker process: one supervised evaluator per key range.

Each shard is a forked child running :func:`shard_worker_main`: a
blocking request/response loop over a :mod:`multiprocessing` pipe.  The
shard owns a private :class:`~repro.eval.store.PackedSweepStore` under
``<cache_dir>/shard-<index>`` — shared-nothing by construction, so the
store's in-memory index and LRU hit tier stay hot for exactly the
key range the consistent-hash ring routes here, and no cross-process
lock ever serializes the planes.

Wire protocol (pickled tuples, sequence-numbered)::

    ("ping",        seq)                          -> ("pong", seq, stats)
    ("design_jobs", seq, jobs, timeout_s, attempt) -> ("ok", seq, metrics)
                                                  |  ("error", seq, info_dict)
    ("shutdown",)                                 -> (loop exits, store closed)

Failure contract: expected failures — anything in the
:class:`~repro.errors.ReproError` taxonomy plus ``OSError`` — travel
back as :class:`~repro.api.schema.ErrorInfo` dicts and the worker keeps
serving.  Anything else is a bug: the worker re-raises, the process
dies, and the supervisor's respawn policy takes over (crash-mode
failpoints at ``serving.shard_call`` exercise exactly that path with a
real ``os._exit``).
"""

from __future__ import annotations

import os

from repro.errors import ReproError
from repro.eval.parallel import run_design_jobs
from repro.eval.store import PackedSweepStore
from repro.reliability import failpoints
from repro.reliability.failpoints import mark_worker_process

#: Failpoint site armed around every shard-side batch evaluation.
SHARD_CALL_SITE = "serving.shard_call"


def shard_store_path(cache_dir, shard_index: int) -> str | None:
    """The private store directory of one shard (``None`` -> no store)."""
    if cache_dir is None:
        return None
    return os.path.join(os.fspath(cache_dir), f"shard-{shard_index}")


def shard_worker_main(
    conn,
    shard_index: int,
    cache_dir=None,
) -> None:
    """Blocking request loop of one shard process (fork target)."""
    # ErrorInfo pulls the schema layer in; import here so the parent's
    # import graph decides nothing about the child.
    from repro.api.schema import ErrorInfo

    mark_worker_process()  # crash-mode failpoints hard-exit this process
    store = None
    store_path = shard_store_path(cache_dir, shard_index)
    if store_path is not None:
        store = PackedSweepStore(store_path)
    jobs_done = 0
    try:
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "shutdown":
                return
            seq = message[1]
            if kind == "ping":
                conn.send(("pong", seq, {"shard": shard_index, "jobs_done": jobs_done}))
                continue
            if kind != "design_jobs":
                conn.send(
                    (
                        "error",
                        seq,
                        ErrorInfo(
                            error_type="SchemaError",
                            message=f"unknown shard message kind {kind!r}",
                            source=f"shard-{shard_index}",
                        ).to_dict(),
                    )
                )
                continue
            _, seq, jobs, timeout_s, attempt = message
            try:
                # The deterministic chaos hook: io_error mode raises and
                # travels back as a retryable envelope; crash mode kills
                # this process for real and the supervisor respawns it.
                failpoints.inject(SHARD_CALL_SITE, shard_index, seq, attempt)
                metrics = run_design_jobs(
                    list(jobs), cache=store, timeout=timeout_s
                )
            except (ReproError, OSError) as exc:
                conn.send(
                    (
                        "error",
                        seq,
                        ErrorInfo.from_exception(
                            exc, source=f"shard-{shard_index}"
                        ).to_dict(),
                    )
                )
                continue
            jobs_done += len(metrics)
            conn.send(("ok", seq, metrics))
    except (EOFError, OSError, KeyboardInterrupt):
        # Parent went away (or is tearing us down): exit quietly.
        return
    finally:
        if store is not None:
            store.close()
