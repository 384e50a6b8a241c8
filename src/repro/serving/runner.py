"""The sharded evaluation substrate behind the serving front door.

:class:`ShardedRunner` is a drop-in for
:func:`~repro.eval.parallel.run_design_jobs` — same signature, same
ordered-results contract — that scatters the work list across the
supervised shard processes and merges the replies:

1. the batched :func:`~repro.eval.parallel.job_keys` pass keys every
   job exactly as the cache tier would;
2. the consistent-hash ring partitions the key list so each shard's
   private store stays hot for its range;
3. per-shard partitions dispatch concurrently on a thread pool; each
   dispatch consults that shard's circuit breaker first;
4. replies merge back into request order (``serving.merge`` failpoint
   armed around the merge).

Robustness: a transient shard failure
(:func:`~repro.reliability.policy.is_retryable`) feeds the breaker and
reroutes that partition to the degraded in-process fallback — the
caller still gets complete results, just slower.  With the fallback
disabled the transient surfaces as
:class:`~repro.errors.ShardUnavailableError`, which
:meth:`RedService.sweep <repro.api.service.RedService.sweep>` turns
into a *partial* :class:`~repro.api.schema.SweepResult` whose
``failures`` name the strides the dead shard owned.  Permanent errors
always surface unchanged.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

from repro.errors import ParameterError, ShardUnavailableError
from repro.eval.parallel import job_keys, run_design_jobs
from repro.reliability import failpoints
from repro.reliability.policy import is_retryable
from repro.serving.breaker import CircuitBreaker
from repro.serving.ring import HashRing

#: Failpoint site armed around the ordered result merge.
MERGE_SITE = "serving.merge"


class ShardedRunner:
    """Scatter/gather ``run_design_jobs`` over supervised shards.

    Args:
        supervisor: a started
            :class:`~repro.serving.supervisor.ShardSupervisor`.
        fallback: reroute a transiently-failing partition to an
            in-process :func:`run_design_jobs` call (the degraded tier;
            counted in :attr:`degraded_calls`).  ``False`` surfaces
            :class:`~repro.errors.ShardUnavailableError` instead so the
            service tier can build partial results.
        failure_threshold / cooldown_s / clock: per-shard
            :class:`~repro.serving.breaker.CircuitBreaker` tuning.
        replicas: virtual nodes per shard on the hash ring.
    """

    def __init__(
        self,
        supervisor,
        fallback: bool = True,
        failure_threshold: int = 3,
        cooldown_s: float = 1.0,
        clock=None,
        replicas: int = 128,
    ) -> None:
        self.supervisor = supervisor
        self.fallback = fallback
        self.ring = HashRing(supervisor.shard_ids, replicas=replicas)
        breaker_kwargs = {
            "failure_threshold": failure_threshold,
            "cooldown_s": cooldown_s,
        }
        if clock is not None:
            breaker_kwargs["clock"] = clock
        self.breakers = {
            shard_id: CircuitBreaker(**breaker_kwargs)
            for shard_id in supervisor.shard_ids
        }
        self.degraded_calls = 0
        self._pool = ThreadPoolExecutor(
            max_workers=len(supervisor.shard_ids),
            thread_name_prefix="red-scatter",
        )
        self._local = threading.local()
        self._closed = False

    # ------------------------------------------------------------------
    # Attempt token: the wire layer stamps the client's X-Red-Attempt
    # here so retried requests draw fresh failpoint decisions while the
    # draw stays a pure function of (seed, site, tokens).
    # ------------------------------------------------------------------
    @property
    def attempt(self) -> int:
        return getattr(self._local, "attempt", 0)

    def set_attempt(self, attempt: int) -> None:
        if attempt < 0:
            raise ParameterError(f"attempt must be >= 0, got {attempt}")
        self._local.attempt = attempt

    # ------------------------------------------------------------------
    # The run_design_jobs-shaped entry point
    # ------------------------------------------------------------------
    def __call__(
        self,
        jobs,
        cache=None,
        timeout: float | None = None,
        retry_policy=None,
    ):
        """Evaluate every job, in order, scattered across the shards.

        ``cache``/``retry_policy`` are accepted for signature
        compatibility but owned by the shards (each runs its own store)
        — the serving plane is shared-nothing on purpose.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        attempt = self.attempt
        partitions = self.ring.partition(job_keys(jobs))
        ordered = sorted(partitions.items())
        futures = [
            self._pool.submit(
                self._call_shard,
                shard_id,
                [jobs[i] for i in indices],
                timeout,
                attempt,
            )
            for shard_id, indices in ordered
        ]
        results: list = [None] * len(jobs)
        first_error = None
        for (shard_id, indices), future in zip(ordered, futures):
            # exception() blocks like result() but hands the failure
            # over without raising, so every partition is drained (no
            # abandoned futures) before the first failure surfaces.
            exc = future.exception()
            if exc is not None:
                if first_error is None:
                    first_error = exc
                continue
            for index, metric in zip(indices, future.result()):
                results[index] = metric
        if first_error is not None:
            raise first_error
        failpoints.inject(MERGE_SITE, len(jobs), attempt)
        return results

    def _call_shard(self, shard_id, sub_jobs, timeout, attempt):
        """One partition: breaker -> shard -> (maybe) degraded fallback."""
        breaker = self.breakers[shard_id]
        if not breaker.allow():
            return self._degraded(
                shard_id,
                sub_jobs,
                timeout,
                ShardUnavailableError(
                    f"shard-{shard_id} circuit is {breaker.state}"
                ),
            )
        try:
            metrics = self.supervisor.call(
                shard_id, sub_jobs, timeout=timeout, attempt=attempt
            )
        except Exception as exc:
            if not is_retryable(exc):
                raise
            breaker.record_failure()
            return self._degraded(shard_id, sub_jobs, timeout, exc)
        breaker.record_success()
        return metrics

    def _degraded(self, shard_id, sub_jobs, timeout, cause):
        """In-process rescue of one partition, or surface the cause."""
        if not self.fallback:
            raise cause
        self.degraded_calls += 1
        return run_design_jobs(sub_jobs, timeout=timeout)

    def close(self) -> None:
        """Stop the scatter pool (the supervisor is its owner's to stop)."""
        if self._closed:
            return
        self._closed = True
        self._pool.shutdown(wait=True)
