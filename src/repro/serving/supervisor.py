"""Shard supervision: spawn, heartbeat, respawn-with-budget, degrade.

The supervisor owns the shard processes and is the only code that talks
to their pipes.  Its lifecycle mirrors the store's
respawn-once-then-degrade contract, scaled out:

* a dead shard (crashed process, broken pipe, poisoned protocol) is
  respawned with the frozen exponential backoff of a
  :class:`~repro.reliability.policy.RetryPolicy` — deterministic
  delays, injectable sleeper;
* each shard has a finite ``respawn_budget``; once it is spent the
  shard is marked :data:`DEGRADED` permanently and every further call
  fails fast with :class:`~repro.errors.ShardUnavailableError`
  (transient by taxonomy — the runner reroutes to its in-process
  fallback and counts the degraded traffic);
* heartbeats (:meth:`ShardSupervisor.heartbeat_all`) back the server's
  ``/healthz`` and ``/readyz`` endpoints.

Shard lifecycle::

    STARTING -> RUNNING -> (crash) -> RESTARTING -> RUNNING
                       \\-> (budget spent) -> DEGRADED
    stop() from any state -> STOPPED
"""

from __future__ import annotations

import multiprocessing
import threading

import repro.errors as errors_module
from repro.errors import (
    EvaluationTimeoutError,
    ParameterError,
    ReproError,
    ShardUnavailableError,
)
from repro.reliability.policy import RetryPolicy, no_sleep
from repro.serving.shard import shard_worker_main

STARTING = "starting"
RUNNING = "running"
RESTARTING = "restarting"
DEGRADED = "degraded"
STOPPED = "stopped"

#: Respawn backoff: deterministic, short, and never wall-clock in tests
#: (the supervisor takes a ``sleeper`` override).
DEFAULT_RESPAWN_POLICY = RetryPolicy(
    max_attempts=4, base_delay_s=0.05, multiplier=2.0, max_delay_s=1.0
)


def _rebuild_error(info: dict, shard_id: int):
    """A raisable exception equivalent to a shard's error envelope.

    Looks the ``error_type`` up in :mod:`repro.errors` (then builtins)
    so the taxonomy classification survives the pipe; unknown types
    degrade to :class:`ShardUnavailableError` when retryable and plain
    :class:`ReproError` when not.
    """
    name = info.get("error_type", "")
    message = f"shard-{shard_id}: {info.get('message', '')}"
    cls = getattr(errors_module, name, None)
    if cls is None:
        cls = {"OSError": OSError, "TimeoutError": TimeoutError}.get(name)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        try:
            return cls(message)
        except TypeError:
            pass
    if info.get("retryable", False):
        return ShardUnavailableError(message)
    return ReproError(message)


class _Shard:
    """One supervised process: pipe, lock, seq counter, lifecycle state."""

    def __init__(self, shard_id: int) -> None:
        self.shard_id = shard_id
        self.process = None
        self.conn = None
        self.state = STARTING
        self.restarts = 0
        self.seq = 0
        self.lock = threading.Lock()


class ShardSupervisor:
    """Spawn and babysit ``num_shards`` evaluator processes.

    Args:
        num_shards: shard processes to run (>= 1).
        cache_dir: parent directory for the per-shard packed stores
            (``None`` -> shards run uncached).
        respawn_budget: process restarts allowed per shard before it is
            permanently degraded.
        respawn_policy: backoff schedule between restarts.
        sleeper: injectable sleep (tests pass
            :func:`~repro.reliability.policy.no_sleep`); ``None`` uses
            the policy's own sleeper.
        call_timeout_s: hard per-call budget when the caller provides
            none — a shard that stops answering is killed and
            respawned, never waited on forever.
    """

    def __init__(
        self,
        num_shards: int = 2,
        cache_dir=None,
        respawn_budget: int = 2,
        respawn_policy: RetryPolicy = DEFAULT_RESPAWN_POLICY,
        sleeper=None,
        call_timeout_s: float = 60.0,
    ) -> None:
        if num_shards < 1:
            raise ParameterError(f"num_shards must be >= 1, got {num_shards}")
        if respawn_budget < 0:
            raise ParameterError(
                f"respawn_budget must be >= 0, got {respawn_budget}"
            )
        if not call_timeout_s > 0:
            raise ParameterError(
                f"call_timeout_s must be > 0, got {call_timeout_s!r}"
            )
        self.num_shards = num_shards
        self.cache_dir = cache_dir
        self.respawn_budget = respawn_budget
        self.respawn_policy = respawn_policy
        self._sleeper = sleeper if sleeper is not None else respawn_policy.sleeper
        self.call_timeout_s = call_timeout_s
        self._ctx = multiprocessing.get_context("fork")
        self._shards = {i: _Shard(i) for i in range(num_shards)}
        self._started = False
        self._stopped = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def shard_ids(self) -> tuple[int, ...]:
        return tuple(self._shards)

    def start(self) -> "ShardSupervisor":
        """Spawn every shard process (idempotent)."""
        if self._started:
            return self
        for shard in self._shards.values():
            self._spawn(shard)
        self._started = True
        return self

    def _spawn(self, shard: _Shard) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=shard_worker_main,
            args=(child_conn, shard.shard_id, self.cache_dir),
            name=f"red-shard-{shard.shard_id}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        shard.process = process
        shard.conn = parent_conn
        shard.state = RUNNING

    def _kill(self, shard: _Shard) -> None:
        if shard.conn is not None:
            shard.conn.close()
            shard.conn = None
        if shard.process is not None:
            if shard.process.is_alive():
                shard.process.kill()
            shard.process.join(timeout=5.0)
            shard.process = None

    def _respawn_or_degrade(self, shard: _Shard) -> None:
        """Shard is dead: restart within budget, else degrade for good.

        Called with the shard's lock held.
        """
        self._kill(shard)
        if shard.restarts >= self.respawn_budget:
            shard.state = DEGRADED
            return
        shard.restarts += 1
        shard.state = RESTARTING
        self._sleeper(self.respawn_policy.delay_for(shard.restarts))
        self._spawn(shard)

    def stop(self) -> None:
        """Shut every shard down and reap the processes (idempotent)."""
        self._stopped = True
        for shard in self._shards.values():
            with shard.lock:
                if shard.conn is not None:
                    try:
                        shard.conn.send(("shutdown",))
                    except (BrokenPipeError, OSError):
                        pass
                if shard.process is not None:
                    shard.process.join(timeout=5.0)
                self._kill(shard)
                if shard.state != DEGRADED:
                    shard.state = STOPPED

    def __enter__(self) -> "ShardSupervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------
    def call(self, shard_id: int, jobs, timeout=None, attempt: int = 0):
        """Run a job batch on one shard; returns its metrics in order.

        Raises:
            ShardUnavailableError: the shard is degraded, mid-restart,
                or died during the call (after the respawn bookkeeping
                ran) — transient, retry or reroute.
            EvaluationTimeoutError: the call outlived its budget; the
                unresponsive shard is killed and respawned, but the
                caller's deadline is final.
            ReproError subclasses: permanent evaluation failures,
                rebuilt from the shard's error envelope.
        """
        shard = self._shard(shard_id)
        with shard.lock:
            if shard.state == DEGRADED:
                raise ShardUnavailableError(
                    f"shard-{shard_id} is degraded (respawn budget spent)"
                )
            if shard.state != RUNNING or shard.conn is None:
                raise ShardUnavailableError(
                    f"shard-{shard_id} is {shard.state}; retry shortly"
                )
            shard.seq += 1
            seq = shard.seq
            budget = self.call_timeout_s if timeout is None else timeout
            try:
                shard.conn.send(("design_jobs", seq, tuple(jobs), timeout, attempt))
                reply = self._recv(shard, seq, budget)
            except EvaluationTimeoutError:
                # Checked before the pipe-error clause: a timeout IS an
                # OSError (TimeoutError subclasses it), but the caller's
                # deadline must surface as the deadline, not as a
                # retryable shard failure.  Reclaim the unresponsive
                # process either way.
                self._respawn_or_degrade(shard)
                raise
            except (EOFError, BrokenPipeError, ConnectionError, OSError) as exc:
                self._respawn_or_degrade(shard)
                raise ShardUnavailableError(
                    f"shard-{shard_id} died mid-call ({type(exc).__name__}); "
                    f"state is now {shard.state}"
                ) from exc
            kind, _, body = reply
            if kind == "error":
                raise _rebuild_error(body, shard_id)
            return list(body)

    def _recv(self, shard: _Shard, seq: int, budget: float):
        """Next reply for ``seq``; stale lower-seq replies are drained."""
        while True:
            if not shard.conn.poll(budget):
                raise EvaluationTimeoutError(
                    f"shard-{shard.shard_id} did not answer call {seq} "
                    f"within {budget!r}s"
                )
            reply = shard.conn.recv()
            if reply[1] == seq:
                return reply
            # A reply for an older call (its waiter gave up): drop it.

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def heartbeat(self, shard_id: int, timeout: float = 1.0) -> dict:
        """Ping one shard; returns its stats or a dead-shard status."""
        shard = self._shard(shard_id)
        with shard.lock:
            status = {
                "shard": shard_id,
                "state": shard.state,
                "restarts": shard.restarts,
                "alive": False,
            }
            if shard.state != RUNNING or shard.conn is None:
                return status
            shard.seq += 1
            seq = shard.seq
            try:
                shard.conn.send(("ping", seq))
                reply = self._recv(shard, seq, timeout)
            except (
                EOFError,
                BrokenPipeError,
                ConnectionError,
                OSError,
                EvaluationTimeoutError,
            ):
                self._respawn_or_degrade(shard)
                status["state"] = shard.state
                status["restarts"] = shard.restarts
                return status
            status["alive"] = True
            status["stats"] = reply[2]
            return status

    def heartbeat_all(self, timeout: float = 1.0) -> dict:
        """``{shard_id: heartbeat status}`` for every shard."""
        return {
            shard_id: self.heartbeat(shard_id, timeout)
            for shard_id in self._shards
        }

    def states(self) -> dict:
        """``{shard_id: lifecycle state}`` without touching the pipes."""
        return {shard_id: shard.state for shard_id, shard in self._shards.items()}

    def any_running(self) -> bool:
        return any(shard.state == RUNNING for shard in self._shards.values())

    def _shard(self, shard_id: int) -> _Shard:
        try:
            return self._shards[shard_id]
        except KeyError:
            raise ParameterError(
                f"unknown shard id {shard_id!r}; have {sorted(self._shards)}"
            ) from None


__all__ = [
    "DEGRADED",
    "DEFAULT_RESPAWN_POLICY",
    "RESTARTING",
    "RUNNING",
    "STARTING",
    "STOPPED",
    "ShardSupervisor",
    "no_sleep",
]
