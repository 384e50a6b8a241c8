"""Process-wide deterministic failpoint registry.

A *failpoint* is a named site in the substrate where a fault can be
injected: ``store.put_many`` (a batch's segment write),
``store.get_many`` (a payload read) and the serving plane's
``serving.accept`` / ``serving.shard_call`` / ``serving.merge``.  Sites
are armed with a spec string, either programmatically::

    configure_failpoints(
        "store.put_many:io_error@0.3;serving.shard_call:crash@0.1", seed=7
    )

or through the environment (``RED_FAILPOINTS`` / ``RED_FAILPOINT_SEED``,
read at import so child processes arm themselves).

Determinism contract (PR 6, :mod:`repro.reram`)
-----------------------------------------------
Whether an armed site fires is a **pure function of values**: the draw
comes from ``default_rng(SeedSequence(seed, spawn_key=(site_id,
*tokens)))`` where ``tokens`` are caller-supplied values identifying
the attempt (a job key, a retry attempt number) — never a call counter,
never wall clock, never process identity.  Two runs with the same
configuration and the same work produce the same fault schedule, in any
process topology; a retried attempt passes a fresh attempt token and so
draws fresh.  This is what makes the chaos suite's byte-identical
recovery gate (``tests/reliability/``) meaningful.

Modes
-----
``io_error``
    :func:`inject` raises :class:`~repro.errors.InjectedFaultError`
    (an ``OSError`` — the retry plane treats it as the transient it
    stands in for).
``crash``
    In a marked worker process (:func:`mark_worker_process`, set by
    each serving shard) the process hard-exits, a real death its
    supervisor must detect and respawn.  Anywhere else it raises
    :class:`~repro.errors.WorkerCrashError` so tests never kill pytest.
``corrupt``
    :func:`corrupted` returns a deterministically bit-flipped copy of
    the payload (first and last byte inverted).  At ``store.get_many``
    the payload is a record's CRC and encoded value, so the record's
    CRC-32 no longer matches and the store's quarantine path runs:
    the flip is a counted miss, never a silently wrong number.
    :func:`inject` ignores corrupt-mode sites.

Hot-path cost
-------------
Call sites go through the module attributes (``failpoints.inject``),
and the unarmed fast path is one global check.  The bench gate
(``benchmarks/bench_resilience.py``) holds the disabled hooks to <= 2%
on the ~10k-job grid, measured against :func:`hooks_bypassed`, which
rebinds the hooks to literal no-ops.
"""

from __future__ import annotations

import os
import threading
import zlib
from collections.abc import Iterable
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from repro.errors import InjectedFaultError, ParameterError, WorkerCrashError

ENV_VAR = "RED_FAILPOINTS"
ENV_SEED_VAR = "RED_FAILPOINT_SEED"

IO_ERROR = "io_error"
CRASH = "crash"
CORRUPT = "corrupt"
MODES = (IO_ERROR, CRASH, CORRUPT)

#: Exit status a ``crash``-mode failpoint kills a marked worker with.
#: Distinctive on purpose: a worker that died with this status died by
#: injection, not by a real fault.
CRASH_EXIT_STATUS = 86


@dataclass(frozen=True)
class Failpoint:
    """One armed failure site.

    Attributes:
        site: the site name (see the catalogue in ``README.md``).
        mode: one of :data:`MODES`.
        rate: trigger probability in ``[0, 1]``; ``1.0`` always fires.
    """

    site: str
    mode: str
    rate: float = 1.0

    def __post_init__(self) -> None:
        if not self.site or any(c in self.site for c in ":;@ \t\n"):
            raise ParameterError(f"invalid failpoint site {self.site!r}")
        if self.mode not in MODES:
            raise ParameterError(
                f"failpoint mode must be one of {MODES}, got {self.mode!r}"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise ParameterError(
                f"failpoint rate must be in [0, 1], got {self.rate!r}"
            )


def parse_failpoints(spec: str) -> tuple[Failpoint, ...]:
    """``"site:mode@rate;..."`` as :class:`Failpoint` instances.

    The ``@rate`` suffix is optional (defaults to ``1.0``); empty
    clauses are skipped so trailing ``;`` is harmless.  Malformed specs
    raise :class:`~repro.errors.ParameterError`.
    """
    points: list[Failpoint] = []
    for clause in spec.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        site, sep, mode = clause.partition(":")
        if not sep or not mode:
            raise ParameterError(
                f"failpoint clause must be 'site:mode[@rate]', got {clause!r}"
            )
        mode, _, rate_text = mode.partition("@")
        try:
            rate = float(rate_text) if rate_text else 1.0
        except ValueError as exc:
            raise ParameterError(
                f"failpoint rate must be a float, got {rate_text!r}"
            ) from exc
        points.append(Failpoint(site=site.strip(), mode=mode.strip(), rate=rate))
    return tuple(points)


def format_failpoints(points: Iterable[Failpoint]) -> str:
    """The spec string round-tripping :func:`parse_failpoints`."""
    return ";".join(f"{p.site}:{p.mode}@{p.rate!r}" for p in points)


_lock = threading.Lock()
_points: dict[str, Failpoint] = {}
_seed: int = 0
_armed: bool = False
_in_worker: bool = False


def configure_failpoints(
    spec: str | Iterable[Failpoint] | None, *, seed: int = 0
) -> tuple[Failpoint, ...]:
    """Arm the process-wide registry (replacing any prior config).

    ``spec`` is a spec string, an iterable of :class:`Failpoint`, or
    ``None``/empty to disarm.  Returns the armed points.
    """
    if isinstance(spec, str):
        points = parse_failpoints(spec)
    elif spec is None:
        points = ()
    else:
        points = tuple(spec)
        for point in points:
            if not isinstance(point, Failpoint):
                raise ParameterError(
                    f"expected Failpoint instances, got {type(point).__name__}"
                )
    if not isinstance(seed, int) or seed < 0:
        raise ParameterError(f"failpoint seed must be an int >= 0, got {seed!r}")
    global _points, _seed, _armed
    with _lock:
        _points = {point.site: point for point in points}
        _seed = seed
        _armed = bool(_points)
    return points


def clear_failpoints() -> None:
    """Disarm every failpoint (the unarmed fast path is restored)."""
    configure_failpoints(None)


def active_failpoints() -> tuple[Failpoint, ...]:
    """Snapshot of the armed points (empty when disarmed)."""
    with _lock:
        return tuple(_points.values())


def active_seed() -> int:
    """The seed the armed registry draws from."""
    with _lock:
        return _seed


def is_armed() -> bool:
    """True when at least one failpoint is armed."""
    return _armed


@contextmanager
def configured_failpoints(
    spec: str | Iterable[Failpoint] | None, *, seed: int = 0
):
    """Arm ``spec`` for the duration of a ``with`` block, then restore.

    The test-suite idiom: chaos tests arm their scenario without
    leaking configuration into the next test.
    """
    with _lock:
        saved_points = tuple(_points.values())
        saved_seed = _seed
    configure_failpoints(spec, seed=seed)
    try:
        yield
    finally:
        configure_failpoints(saved_points, seed=saved_seed)


def configure_from_env(environ=os.environ) -> bool:
    """Arm from ``RED_FAILPOINTS`` / ``RED_FAILPOINT_SEED`` if present.

    Returns True when a spec was found and armed.  Called at import so
    spawned child processes (which re-import this module) inherit the
    environment-armed configuration; forked ones inherit the module
    state directly.
    """
    spec = environ.get(ENV_VAR)
    if not spec:
        return False
    seed_text = environ.get(ENV_SEED_VAR, "0")
    try:
        seed = int(seed_text)
    except ValueError as exc:
        raise ParameterError(
            f"{ENV_SEED_VAR} must be an int, got {seed_text!r}"
        ) from exc
    configure_failpoints(spec, seed=seed)
    return True


def mark_worker_process() -> None:
    """Mark this process as a disposable worker (a serving shard).

    Only marked processes hard-exit on ``crash``-mode failpoints;
    everywhere else ``crash`` raises
    :class:`~repro.errors.WorkerCrashError`.
    """
    global _in_worker
    _in_worker = True


def in_worker_process() -> bool:
    """True in a process marked by :func:`mark_worker_process`."""
    return _in_worker


def _normalize_token(token) -> int:
    """A token value as a non-negative int spawn-key component."""
    if isinstance(token, bool):
        return int(token)
    if isinstance(token, int):
        if token < 0:
            raise ParameterError(f"failpoint tokens must be >= 0, got {token}")
        return token
    if isinstance(token, str):
        return zlib.crc32(token.encode("utf-8"))
    if isinstance(token, bytes):
        return int.from_bytes(token, "big")
    raise ParameterError(
        f"failpoint tokens must be int/str/bytes, got {type(token).__name__}"
    )


def _should_trigger(point: Failpoint, tokens: tuple) -> bool:
    """The deterministic draw: pure function of (seed, site, tokens)."""
    if point.rate >= 1.0:
        return True
    if point.rate <= 0.0:
        return False
    site_id = zlib.crc32(point.site.encode("utf-8"))
    spawn_key = (site_id, *(_normalize_token(token) for token in tokens))
    draw = np.random.default_rng(
        np.random.SeedSequence(_seed, spawn_key=spawn_key)
    ).random()
    return bool(draw < point.rate)


def _check_impl(site: str, *tokens) -> Failpoint | None:
    """The armed point firing at ``site`` for these tokens, if any."""
    if not _armed:
        return None
    point = _points.get(site)
    if point is None or not _should_trigger(point, tokens):
        return None
    return point


def _inject_impl(site: str, *tokens) -> None:
    """Raise (or kill the worker) if ``site`` fires for these tokens.

    ``corrupt``-mode points are read-path-only and ignored here.
    """
    point = _check_impl(site, *tokens)
    if point is None or point.mode == CORRUPT:
        return
    if point.mode == CRASH:
        if _in_worker:
            os._exit(CRASH_EXIT_STATUS)
        raise WorkerCrashError(
            f"injected worker crash at failpoint {site!r}"
        )
    raise InjectedFaultError(f"injected I/O fault at failpoint {site!r}")


def _corrupted_impl(site: str, payload: bytes, *tokens) -> bytes:
    """``payload``, bit-flipped when a ``corrupt`` point fires here."""
    if not _armed:
        return payload
    point = _points.get(site)
    if point is None or point.mode != CORRUPT:
        return payload
    if not _should_trigger(point, tokens):
        return payload
    if not payload:
        return b"\xff"
    body = bytearray(payload)
    body[0] ^= 0xFF
    body[-1] ^= 0xFF
    return bytes(body)


def _noop_inject(site: str, *tokens) -> None:
    return None


def _noop_corrupted(site: str, payload: bytes, *tokens) -> bytes:
    return payload


def _noop_check(site: str, *tokens) -> None:
    return None


#: The live hooks.  Call sites resolve these through the module
#: (``failpoints.inject(...)``) so :func:`hooks_bypassed` can swap in
#: the no-ops for benchmark baselines.
check = _check_impl
inject = _inject_impl
corrupted = _corrupted_impl


@contextmanager
def hooks_bypassed():
    """Rebind the hooks to literal no-ops for the duration of the block.

    The benchmark baseline: the difference between a run under
    ``hooks_bypassed()`` and a normal (unarmed) run is the full cost of
    having failpoint hooks compiled into the hot path at all —
    ``bench_resilience.py`` gates it at <= 2%.
    """
    global check, inject, corrupted
    saved = (check, inject, corrupted)
    check, inject, corrupted = _noop_check, _noop_inject, _noop_corrupted
    try:
        yield
    finally:
        check, inject, corrupted = saved


configure_from_env()
