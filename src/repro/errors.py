"""Exception hierarchy for the RED reproduction library.

All library-raised errors derive from :class:`ReproError` so callers can
catch one type at the API boundary.  Specific subclasses separate user
input problems (shapes, parameters) from internal modelling errors.

Failure taxonomy
----------------
The reliability plane (:mod:`repro.reliability`) splits failures into
*transient* errors, which the retrying runners and the store absorb per
:class:`~repro.reliability.policy.RetryPolicy`, and *permanent* errors,
which surface to the caller immediately (the CLI maps every surfaced
:class:`ReproError` to exit code 2).  The split is decided by
:func:`repro.reliability.policy.is_retryable`:

===========================  =========  =====================================
Error                        Handling   Rationale
===========================  =========  =====================================
``OSError`` (incl. injected  retried    transient I/O: a later attempt can
``InjectedFaultError``)                 succeed; the store degrades to
                                        read-only once retries exhaust
``WorkerCrashError`` /       retried    a worker process died (OOM-kill
``BrokenProcessPool``                   analogue); a later attempt on a
                                        fresh worker can succeed
``ShardUnavailableError``    retried    a serving shard is down, mid-restart
                                        or circuit-broken; the supervisor
                                        respawns it and the front door
                                        reroutes its key range to the
                                        degraded in-process fallback — a
                                        later attempt can succeed
``OverloadedError``          retried    the admission queue shed the request
                                        deterministically; the envelope
                                        carries a ``retry_after_s`` hint the
                                        client should honour before resending
``EvaluationTimeoutError``   surfaced   the caller's per-batch ``timeout=``
                                        budget is final — retrying cannot
                                        create time
``DrainingError``            surfaced   the server is shutting down
                                        gracefully; resend to another
                                        replica, not to this one
``ShapeError`` /             surfaced   invalid input: deterministic, every
``ParameterError`` /                    retry fails identically
``MappingError`` / ...
``ServiceClosedError``       surfaced   programming error in the caller's
                                        lifecycle management
``SchemaError`` /            surfaced   malformed wire payload; the sender
``CacheError``                          must fix it, not resend it
===========================  =========  =====================================
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by :mod:`repro`."""


class ShapeError(ReproError, ValueError):
    """A tensor or layer shape is inconsistent or unsupported."""


class ParameterError(ReproError, ValueError):
    """A configuration parameter is out of its valid range."""


class MappingError(ReproError):
    """A crossbar mapping is malformed (wrong geometry, bad fold, ...)."""


class ScheduleError(ReproError):
    """A dataflow schedule is inconsistent with its layer specification."""


class DeviceError(ReproError):
    """A ReRAM device/array model was configured or driven incorrectly."""


class CalibrationError(ReproError):
    """The architecture model constants are inconsistent."""


class RegistryError(ReproError):
    """The design registry was used inconsistently."""


class CacheError(ReproError):
    """A sweep result store was driven with malformed keys or state."""


class DuplicateDesignError(RegistryError, ValueError):
    """A design name or alias is already registered."""


class UnknownDesignError(RegistryError, KeyError):
    """A design name does not resolve to any registered design.

    Subclasses :class:`KeyError` so pre-registry callers that caught the
    old hard-coded dispatch error keep working.
    """

    def __str__(self) -> str:  # KeyError quotes its arg; keep the message
        return self.args[0] if self.args else ""


class SchemaError(ReproError, ValueError):
    """An API request/response payload failed strict schema validation."""


class ReliabilityError(ReproError):
    """Base class for the fault-injection / retry plane's own errors."""


class InjectedFaultError(ReliabilityError, OSError):
    """A deterministic failpoint fired in ``io_error`` mode.

    Subclasses :class:`OSError` so every retry/degrade path treats an
    injected fault exactly like the real transient it stands in for.
    """


class WorkerCrashError(ReliabilityError):
    """A worker process died (or a ``crash`` failpoint fired in-process)."""


class EvaluationTimeoutError(ReliabilityError, TimeoutError):
    """A runner exceeded its per-batch ``timeout=`` budget.

    Subclasses :class:`TimeoutError` for callers that catch the builtin;
    deliberately *not* retryable — the budget is final.
    """


class ServiceClosedError(ReliabilityError):
    """A request was submitted to a :class:`RedService` after ``close()``."""


class ServingError(ReproError):
    """Base class for the sharded serving plane's own failures."""


class ShardUnavailableError(ServingError):
    """A serving shard is dead, restarting, or circuit-broken.

    Transient by taxonomy: the shard supervisor respawns crashed
    workers (respawn-budget, frozen backoff) and the front door
    reroutes the shard's key range to the degraded in-process fallback
    while its circuit is open — a retried request can succeed.
    """


class OverloadedError(ServingError):
    """The admission queue shed a request under deterministic overload.

    Transient with a hint: :attr:`retry_after_s` tells the client how
    long to back off before resending; the wire
    :class:`~repro.api.schema.ErrorInfo` envelope carries it.
    """

    def __init__(self, message: str, retry_after_s: float | None = None) -> None:
        super().__init__(message)
        self.retry_after_s = retry_after_s


class DrainingError(ServingError):
    """The server is draining (SIGTERM): no new work is admitted.

    Permanent for *this* server by taxonomy — retrying against a
    draining process cannot succeed; send the request elsewhere.
    """
