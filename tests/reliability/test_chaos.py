"""Chaos suite: injected faults must recover to byte-identical results.

The headline invariant of the resilience plane: a run under injected
I/O errors and corrupt payloads either recovers to the exact result of
a fault-free run (retry, degrade, recompute) or surfaces a typed error
— it never silently returns different numbers.

Every test pins its fault schedule with ``configured_failpoints`` (the
draws are pure functions of ``(seed, site, tokens)``, so a failing
example reproduces exactly); the ambient test at the bottom runs under
whatever ``RED_FAILPOINTS`` environment configuration ``make chaos``
exports.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.eval.vectorized as vectorized
from repro.api.schema import SweepRequest
from repro.api.service import RedService
from repro.arch.tech import default_tech
from repro.deconv.shapes import DeconvSpec
from repro.errors import EvaluationTimeoutError, InjectedFaultError
from repro.eval.parallel import (
    DesignJob,
    FidelityJob,
    evaluate_design_job,
    run_cycle_jobs,
    run_design_jobs,
    run_fidelity_jobs,
)
from repro.eval.store import PackedSweepStore
from repro.reliability import configured_failpoints
from repro.reliability.policy import RetryPolicy, no_sleep

TECH = default_tech()
SPECS = (
    DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1),
    DeconvSpec(3, 3, 2, 6, 6, 3, stride=3, padding=2, output_padding=1),
)
DESIGNS = ("RED", "zero-padding", "padding-free")
JOBS = tuple(
    DesignJob(design, spec, TECH, layer_name=f"{design}/{index}")
    for index, spec in enumerate(SPECS)
    for design in DESIGNS
)
RED_JOBS = tuple(job for job in JOBS if job.design == "RED")

#: Generous attempts, no real sleeping — chaos tests retry a lot.
LENIENT = RetryPolicy(max_attempts=10, base_delay_s=0.0, sleeper=no_sleep)


@functools.lru_cache(maxsize=None)
def fault_free_metrics() -> tuple:
    """The reference result: the scalar oracle, with every failpoint
    disarmed."""
    with configured_failpoints(None):
        return tuple(evaluate_design_job(job) for job in JOBS)


@functools.lru_cache(maxsize=None)
def fault_free_cycles() -> tuple:
    with configured_failpoints(None):
        return tuple(run_cycle_jobs(list(RED_JOBS)))


def fidelity_jobs() -> list[FidelityJob]:
    return [
        FidelityJob(
            design="RED",
            spec=SPECS[0],
            tech=TECH,
            seed=seed,
            time_s=1.0,
            stuck_at_rate=0.01,
            max_rows=16,
            max_cols=16,
            layer_name=f"fid{seed}",
        )
        for seed in (0, 1, 2)
    ]


@functools.lru_cache(maxsize=None)
def fault_free_fidelity() -> tuple:
    with configured_failpoints(None):
        return tuple(run_fidelity_jobs(fidelity_jobs()))


def flaky(original, failures: int):
    """``original`` behind ``failures`` leading transient faults."""
    calls = []

    def wrapped(*args, **kwargs):
        calls.append(None)
        if len(calls) <= failures:
            raise InjectedFaultError(f"injected evaluation fault #{len(calls)}")
        return original(*args, **kwargs)

    return wrapped


class TestEvaluationFaults:
    def test_transient_batch_fault_retries_byte_identical(self, monkeypatch):
        monkeypatch.setattr(
            vectorized,
            "evaluate_design_jobs_batch",
            flaky(vectorized.evaluate_design_jobs_batch, failures=2),
        )
        with configured_failpoints(None):
            result = run_design_jobs(list(JOBS), retry_policy=LENIENT)
        assert tuple(result) == fault_free_metrics()

    def test_exhausted_retries_surface_the_fault(self, monkeypatch):
        monkeypatch.setattr(
            vectorized,
            "evaluate_design_jobs_batch",
            flaky(vectorized.evaluate_design_jobs_batch, failures=2),
        )
        once = RetryPolicy(max_attempts=2, sleeper=no_sleep)
        with configured_failpoints(None):
            with pytest.raises(InjectedFaultError):
                run_design_jobs(list(JOBS), retry_policy=once)


class TestStoreChaos:
    def test_publish_faults_degrade_not_corrupt(self, tmp_path):
        # Publish I/O faults at rate 1.0 exhaust the store's retries and
        # flip it into degraded mode — the sweep results are unaffected
        # and the memory tier still serves the second pass.
        store = PackedSweepStore(
            tmp_path, retry_policy=RetryPolicy(max_attempts=2, sleeper=no_sleep)
        )
        with configured_failpoints("store.put_many:io_error@1.0"):
            first = run_design_jobs(list(JOBS), cache=store)
            assert tuple(first) == fault_free_metrics()
            assert store.degraded
            assert store.degraded_puts == len(JOBS)
            warm = run_design_jobs(list(JOBS), cache=store)
        assert tuple(warm) == fault_free_metrics()
        assert store.memory_hits > 0

    def test_corrupt_reads_quarantine_and_recompute(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        with configured_failpoints(None):
            run_design_jobs(list(JOBS), cache=store)
        with configured_failpoints("store.get_many:corrupt@1.0"):
            fresh = PackedSweepStore(tmp_path)  # cold memory tier
            result = run_design_jobs(list(JOBS), cache=fresh)
        assert tuple(result) == fault_free_metrics()
        assert fresh.corrupt == len(JOBS)
        assert fresh.quarantined == len(JOBS)
        assert sorted((tmp_path / "quarantine").glob("*.bin"))

    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_mixed_fault_matrix_recovers(self, seed):
        # tempfile instead of the tmp_path fixture: hypothesis re-runs
        # the test body per example, and each example needs a fresh
        # store directory.
        import tempfile

        spec = "store.put_many:io_error@0.4;store.get_many:corrupt@0.4"
        with tempfile.TemporaryDirectory() as directory:
            with configured_failpoints(spec, seed=seed):
                store = PackedSweepStore(
                    directory,
                    retry_policy=RetryPolicy(max_attempts=4, sleeper=no_sleep),
                )
                cold = run_design_jobs(
                    list(JOBS), cache=store, retry_policy=LENIENT
                )
                warm = run_design_jobs(
                    list(JOBS), cache=store, retry_policy=LENIENT
                )
        assert tuple(cold) == fault_free_metrics()
        assert tuple(warm) == fault_free_metrics()


class TestRunnerCompanionsChaos:
    def test_cycle_jobs_survive_store_faults(self, tmp_path):
        store = PackedSweepStore(
            tmp_path, retry_policy=RetryPolicy(max_attempts=2, sleeper=no_sleep)
        )
        with configured_failpoints(
            "store.put_many:io_error@1.0;store.get_many:corrupt@1.0"
        ):
            result = run_cycle_jobs(list(RED_JOBS), cache=store)
        assert tuple(result) == fault_free_cycles()
        assert store.degraded

    def test_fidelity_jobs_survive_corrupt_reads(self, tmp_path):
        store = PackedSweepStore(tmp_path)
        with configured_failpoints(None):
            run_fidelity_jobs(fidelity_jobs(), cache=store)
        with configured_failpoints("store.get_many:corrupt@1.0"):
            fresh = PackedSweepStore(tmp_path)
            result = run_fidelity_jobs(fidelity_jobs(), cache=fresh)
        assert tuple(result) == fault_free_fidelity()
        assert fresh.corrupt > 0


class TestTimeouts:
    def test_vectorized_timeout(self):
        with configured_failpoints(None):
            with pytest.raises(EvaluationTimeoutError):
                run_design_jobs(list(JOBS), timeout=1e-9)

    def test_cycle_jobs_timeout(self):
        with configured_failpoints(None):
            with pytest.raises(EvaluationTimeoutError):
                run_cycle_jobs(list(RED_JOBS), timeout=1e-9)

    def test_fidelity_jobs_timeout(self):
        with configured_failpoints(None):
            with pytest.raises(EvaluationTimeoutError):
                run_fidelity_jobs(fidelity_jobs(), timeout=1e-9)


class TestServicePartialResults:
    def test_sweep_salvages_surviving_strides(self):
        # A substrate whose strides 2 and 8 always fail transiently:
        # the batched call fails, and the per-stride salvage pass keeps
        # strides 1 and 4.
        def failing_runner(jobs, **kwargs):
            if any(job.spec.stride in (2, 8) for job in jobs):
                raise InjectedFaultError("injected stride fault")
            return run_design_jobs(jobs, **kwargs)

        request = SweepRequest(strides=(1, 2, 4, 8))
        with configured_failpoints(None):
            with RedService(design_runner=failing_runner) as service:
                partial = service.sweep(request)
        with configured_failpoints(None):
            with RedService() as service:
                clean = service.sweep(request)
        assert partial.failures
        assert clean.failures == ()
        failed = {info.source for info in partial.failures}
        assert failed == {"stride=2", "stride=8"}
        for info in partial.failures:
            assert info.error_type == "InjectedFaultError"
            assert info.retryable
        # Surviving strides are byte-identical to the fault-free sweep.
        clean_by_stride = {point.stride: point for point in clean.points}
        assert [point.stride for point in partial.points] == [1, 4]
        for point in partial.points:
            assert point == clean_by_stride[point.stride]
            assert f"stride={point.stride}" not in failed
        # Round-trips with the failures attached.
        from repro.api.schema import SweepResult

        assert SweepResult.from_dict(partial.to_dict()) == partial


class TestAmbientEnvironment:
    def test_ambient_env_matrix_recovers(self, tmp_path):
        # Under `make chaos` this module imports with RED_FAILPOINTS
        # armed from the environment, so these runs execute under the
        # ambient fault matrix; unarmed they are a plain determinism
        # check.  Cold publish, then a fresh store's disk-tier reads.
        store = PackedSweepStore(tmp_path, retry_policy=LENIENT)
        cold = run_design_jobs(list(JOBS), cache=store, retry_policy=LENIENT)
        fresh = PackedSweepStore(tmp_path, retry_policy=LENIENT)
        warm = run_design_jobs(list(JOBS), cache=fresh, retry_policy=LENIENT)
        assert tuple(cold) == fault_free_metrics()
        assert tuple(warm) == fault_free_metrics()
