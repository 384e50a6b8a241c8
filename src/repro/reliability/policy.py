"""Retry policies, the transient/permanent split, and deadlines.

This module owns every wall-clock primitive the substrate needs —
sleeping between retries, ``time.monotonic`` deadlines — so the
deterministic packages (``repro.eval``, ``repro.api``, ...; RED006)
never touch the clock themselves: they receive a
:class:`RetryPolicy`/:class:`Deadline` and call through it.  Tests
inject :func:`no_sleep` (and a fake clock) so no test ever wall-clock
sleeps.

The failure taxonomy — which errors retry and which surface — is
documented in :mod:`repro.errors` and implemented by
:func:`is_retryable`.
"""

from __future__ import annotations

import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import (
    DrainingError,
    EvaluationTimeoutError,
    OverloadedError,
    ParameterError,
    ShardUnavailableError,
    WorkerCrashError,
)


def no_sleep(_delay: float) -> None:
    """The injectable sleeper tests use: returns immediately."""
    return None


def is_retryable(exc: BaseException, *, follow_cause: bool = False) -> bool:
    """True for transient failures a retry can plausibly cure.

    Transient: ``OSError`` (real or injected I/O faults), worker
    crashes (:class:`~repro.errors.WorkerCrashError`,
    :class:`BrokenProcessPool`), unavailable serving shards
    (:class:`~repro.errors.ShardUnavailableError`) and deterministic
    load shedding (:class:`~repro.errors.OverloadedError`).  Permanent:
    :class:`~repro.errors.EvaluationTimeoutError` (the budget is
    final), :class:`~repro.errors.DrainingError` (this server is going
    away) and everything else — invalid input fails identically on
    every attempt and must surface (see the taxonomy table in
    :mod:`repro.errors`).

    ``follow_cause=True`` additionally classifies a permanent-looking
    wrapper by its direct ``__cause__``: the service tier re-raises
    transient worker/store failures wrapped in richer types
    (``raise X from BrokenProcessPool``), and the wire envelope and the
    serving circuit breaker must not lose the transient bit in that
    wrapping.  Exactly one level is followed, and the
    explicitly-permanent classifications above (timeout, draining)
    never flip — their budgets are final regardless of what caused
    them.
    """
    if isinstance(exc, (EvaluationTimeoutError, DrainingError)):
        return False
    if isinstance(
        exc,
        (
            OSError,
            WorkerCrashError,
            BrokenProcessPool,
            ShardUnavailableError,
            OverloadedError,
        ),
    ):
        return True
    if follow_cause and exc.__cause__ is not None:
        return is_retryable(exc.__cause__)
    return False


@dataclass(frozen=True)
class RetryPolicy:
    """Deterministic bounded retry with exponential backoff.

    ``delay_for(attempt)`` is a pure function of the policy — no
    jitter — so retry schedules are as reproducible as everything else
    in the repo.  The ``sleeper`` field is the only side effect and is
    injectable (:func:`no_sleep` in tests).

    Attributes:
        max_attempts: total tries, including the first (``>= 1``).
        base_delay_s: backoff before the second attempt, seconds.
        multiplier: backoff growth per subsequent attempt (``>= 1``).
        max_delay_s: backoff cap, seconds.
        sleeper: ``callable(delay_seconds)`` invoked between attempts.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.01
    multiplier: float = 2.0
    max_delay_s: float = 1.0
    sleeper: Callable[[float], None] = field(default=time.sleep, compare=False)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ParameterError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_s < 0:
            raise ParameterError(
                f"base_delay_s must be >= 0, got {self.base_delay_s}"
            )
        if self.multiplier < 1:
            raise ParameterError(
                f"multiplier must be >= 1, got {self.multiplier}"
            )
        if self.max_delay_s < 0:
            raise ParameterError(
                f"max_delay_s must be >= 0, got {self.max_delay_s}"
            )

    def delay_for(self, attempt: int) -> float:
        """Backoff after failed attempt number ``attempt`` (1-based)."""
        if attempt < 1:
            raise ParameterError(f"attempt must be >= 1, got {attempt}")
        return min(
            self.base_delay_s * self.multiplier ** (attempt - 1),
            self.max_delay_s,
        )

    def delays(self) -> tuple[float, ...]:
        """Every backoff the policy can sleep, in order."""
        return tuple(
            self.delay_for(attempt)
            for attempt in range(1, self.max_attempts)
        )

    def call(
        self,
        fn: Callable[[], object],
        *,
        retry_on: Callable[[BaseException], bool] = is_retryable,
        on_retry: Callable[[int, BaseException], None] | None = None,
    ):
        """Run ``fn`` with up to ``max_attempts`` tries.

        Retries only failures ``retry_on`` accepts; the final failure
        (or any permanent one) re-raises unchanged, preserving its
        type.  ``on_retry(attempt, exc)`` observes each absorbed
        failure (counters, logging).
        """
        for attempt in range(1, self.max_attempts + 1):
            try:
                return fn()
            except Exception as exc:
                if attempt >= self.max_attempts or not retry_on(exc):
                    raise
                if on_retry is not None:
                    on_retry(attempt, exc)
                self.sleeper(self.delay_for(attempt))
        raise AssertionError("unreachable")  # pragma: no cover


#: Policy tests use everywhere a real policy shape matters but a real
#: sleep never should.
NO_SLEEP_POLICY = RetryPolicy(sleeper=no_sleep)


class Deadline:
    """A monotonic-clock budget behind every runner ``timeout=``.

    ``Deadline(None)`` never expires (the default); a positive
    ``seconds`` budget starts counting at construction.  The clock is
    injectable for tests.
    """

    __slots__ = ("_budget", "_clock", "_expires_at")

    def __init__(
        self,
        seconds: float | None,
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if seconds is not None and not seconds > 0:
            raise ParameterError(f"timeout must be > 0 seconds, got {seconds!r}")
        self._budget = seconds
        self._clock = clock
        self._expires_at = None if seconds is None else clock() + float(seconds)

    def remaining(self) -> float | None:
        """Seconds left (may be negative), or ``None`` for no budget."""
        if self._expires_at is None:
            return None
        return self._expires_at - self._clock()

    def expired(self) -> bool:
        remaining = self.remaining()
        return remaining is not None and remaining <= 0

    def check(self, what: str) -> None:
        """Raise :class:`~repro.errors.EvaluationTimeoutError` if expired."""
        if self.expired():
            raise EvaluationTimeoutError(
                f"{what} exceeded its {self._budget!r}s timeout budget"
            )
