"""The batch pipeline against its scalar oracle.

:func:`repro.eval.parallel.run_design_jobs` must return, for any work
list, exactly the bytes of ``[evaluate_design_job(job) for job in jobs]``
(compared per element via pickle) — with no store, through a cold
store, and from a warm store's memory and disk tiers.  The other
pipeline behaviours ride along: hits relabel to the requesting job,
duplicate jobs are evaluated once and fanned out, value-equal but
distinct folds stay apart, budgets expire, and store faults recover
byte-identical.
"""

import pickle
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.eval.vectorized as vectorized
from repro.api.registry import available_designs, register_design, unregister_design
from repro.arch.tech import default_tech
from repro.errors import EvaluationTimeoutError, ParameterError
from repro.eval.parallel import DesignJob, evaluate_design_job, run_design_jobs
from repro.eval.store import PackedSweepStore
from repro.eval.sweeps import stride_speedup_sweep
from repro.reliability import configured_failpoints
from repro.reliability.policy import RetryPolicy, no_sleep
from tests.conftest import SMALL_SPECS, deconv_specs

FOLDS = (None, "auto", 1, 2)

_SETTINGS = dict(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Tech draws perturbing both format knobs and analog constants.
techs = st.sampled_from(
    (
        default_tech(),
        default_tech().with_overrides(mux_share=4),
        default_tech().with_overrides(bits_input=4, t_adc=0.75e-9),
    )
)

#: Generous attempts, no real sleeping — chaos draws retry a lot.
LENIENT = RetryPolicy(max_attempts=10, base_delay_s=0.0, sleeper=no_sleep)


def _digest(results) -> list[bytes]:
    """Per-element pickles.

    Per-element rather than whole-list: pickle memoizes *shared object
    identity* (e.g. one interned design-name string appearing in
    several results), so two lists of byte-identical elements can still
    differ at the list level.
    """
    return [pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL) for result in results]


def _jobs(spec, tech, designs=None) -> list[DesignJob]:
    """Every design x every fold over one shape, each with its own label."""
    return [
        DesignJob(design, spec, tech, fold=fold, layer_name=f"{design}/{fold}")
        for design in designs or available_designs()
        for fold in FOLDS
    ]


def _oracle(jobs) -> list[bytes]:
    return _digest([evaluate_design_job(job) for job in jobs])


@pytest.fixture
def no_batch_design():
    """A plugin design with no perf_batch hook: the inline scalar path."""
    from repro.designs.zero_padding_design import ZeroPaddingDesign

    @register_design("no-batch-design")
    class NoBatchDesign(ZeroPaddingDesign):
        name = "no-batch-design"

    yield "no-batch-design"
    unregister_design("no-batch-design")


class TestOracleEquivalence:
    @given(spec=deconv_specs(max_input=6, max_kernel=6, max_stride=4), tech=techs)
    @settings(**_SETTINGS)
    def test_every_store_state_matches_the_scalar_oracle(self, spec, tech):
        jobs = _jobs(spec, tech)
        expected = _oracle(jobs)
        assert _digest(run_design_jobs(jobs)) == expected
        with tempfile.TemporaryDirectory() as directory:
            store = PackedSweepStore(directory)
            assert _digest(run_design_jobs(jobs, cache=store)) == expected
            stored = store.stores
            assert _digest(run_design_jobs(jobs, cache=store)) == expected
            assert store.stores == stored  # the warm call evaluated nothing
            assert store.memory_hits == len(jobs)
            disk = PackedSweepStore(directory)
            assert _digest(run_design_jobs(jobs, cache=disk)) == expected
            assert disk.disk_hits > 0 and disk.misses == 0

    @pytest.mark.parametrize("state", ("none", "cold", "warm"))
    def test_designs_without_a_batch_hook_run_inline(
        self, state, tmp_path, no_batch_design
    ):
        """A design with no perf_batch hook takes the inline scalar path
        and still matches the oracle in every store state."""
        jobs = _jobs(SMALL_SPECS[2], default_tech(), (no_batch_design, "RED"))
        cache = None if state == "none" else PackedSweepStore(tmp_path)
        if state == "warm":
            run_design_jobs(jobs, cache=cache)
        assert _digest(run_design_jobs(jobs, cache=cache)) == _oracle(jobs)

    def test_stride_sweep_identical_with_and_without_a_store(self, tmp_path):
        strides = (1, 2, 4)
        baseline = stride_speedup_sweep(strides=strides)
        cold = stride_speedup_sweep(strides=strides, cache=tmp_path)
        warm = stride_speedup_sweep(strides=strides, cache=tmp_path)
        assert _digest(baseline) == _digest(cold) == _digest(warm)


class TestRelabelAndFanOut:
    @pytest.mark.parametrize("memory_entries", (65536, 0))
    def test_hits_relabel_per_requesting_job(self, memory_entries, tmp_path):
        store = PackedSweepStore(tmp_path, memory_entries=memory_entries)
        seed = DesignJob("RED", SMALL_SPECS[0], default_tech(), layer_name="seed")
        run_design_jobs([seed], cache=store)
        hits = run_design_jobs(
            [
                DesignJob("RED", SMALL_SPECS[0], default_tech(), layer_name="hit-1"),
                DesignJob("red", SMALL_SPECS[0], default_tech(), layer_name="hit-2"),
            ],
            cache=store,
        )
        assert [m.layer for m in hits] == ["hit-1", "hit-2"]
        assert store.hits == 2 and store.stores == 1
        assert _digest(hits) == _oracle(
            [DesignJob("RED", SMALL_SPECS[0], default_tech(), layer_name=label)
             for label in ("hit-1", "hit-2")]
        )

    @pytest.mark.parametrize("use_store", (False, True))
    def test_duplicate_jobs_evaluated_once_and_fanned_out(
        self, use_store, tmp_path, monkeypatch
    ):
        evaluated: list[int] = []
        batch = vectorized.evaluate_design_jobs_batch

        def counting(jobs):
            evaluated.append(len(jobs))
            return batch(jobs)

        # The pipeline looks the plane up at call time, so patching the
        # module attribute sees every call.
        monkeypatch.setattr(vectorized, "evaluate_design_jobs_batch", counting)
        tech = default_tech()
        jobs = [
            DesignJob("RED", SMALL_SPECS[3], tech, fold=None, layer_name="A"),
            DesignJob("RED", SMALL_SPECS[3], tech, fold="auto", layer_name="B"),
            DesignJob("zp", SMALL_SPECS[3], tech, fold=4, layer_name="C"),
            DesignJob("zero-padding", SMALL_SPECS[3], tech, fold=None, layer_name="D"),
        ]
        store = PackedSweepStore(tmp_path) if use_store else None
        results = run_design_jobs(jobs, cache=store)
        assert evaluated == [2]  # one RED and one zero-padding evaluation
        assert [m.layer for m in results] == ["A", "B", "C", "D"]
        assert _digest(results) == _oracle(jobs)
        if store is not None:
            assert store.stores == 2


class TestFoldTypes:
    @given(spec=deconv_specs(max_input=4, max_kernel=4, max_stride=3))
    @settings(**_SETTINGS)
    def test_float_fold_never_borrows_an_int_twin_result(self, spec):
        """fold=2.0 is invalid; being value-equal to a valid fold=2 job
        in the same work list must not smuggle it past validation on
        either grouping route (value tokens or store keys)."""
        tech = default_tech()
        valid = DesignJob("RED", spec, tech, fold=2, layer_name="ok")
        invalid = DesignJob("RED", spec, tech, fold=2.0, layer_name="bad")
        with pytest.raises(ParameterError):
            evaluate_design_job(invalid)
        with tempfile.TemporaryDirectory() as directory:
            for cache in (None, PackedSweepStore(directory)):
                with pytest.raises(ParameterError):
                    run_design_jobs([valid, invalid], cache=cache)
                assert _digest(run_design_jobs([valid], cache=cache)) == _oracle(
                    [valid]
                )


class TestBudgets:
    @pytest.mark.parametrize("use_store", (False, True))
    def test_vectorized_timeout(self, use_store, tmp_path):
        cache = PackedSweepStore(tmp_path) if use_store else None
        with pytest.raises(EvaluationTimeoutError):
            run_design_jobs(_jobs(SMALL_SPECS[0], default_tech()), cache=cache, timeout=1e-9)

    def test_inline_scalar_timeout(self, no_batch_design):
        jobs = _jobs(SMALL_SPECS[0], default_tech(), (no_batch_design,))
        with pytest.raises(EvaluationTimeoutError):
            run_design_jobs(jobs, timeout=1e-9)


class TestStoreChaos:
    @given(
        spec=deconv_specs(max_input=5, max_kernel=5, max_stride=3),
        seed=st.integers(0, 2**16),
    )
    @settings(**_SETTINGS)
    def test_store_faults_recover_byte_identical(self, spec, seed):
        jobs = _jobs(spec, default_tech())
        expected = _oracle(jobs)
        matrix = "store.put_many:io_error@0.5;store.get_many:corrupt@0.5"
        with tempfile.TemporaryDirectory() as directory:
            with configured_failpoints(matrix, seed=seed):
                store = PackedSweepStore(directory, retry_policy=LENIENT)
                cold = run_design_jobs(jobs, cache=store, retry_policy=LENIENT)
                fresh = PackedSweepStore(directory, retry_policy=LENIENT)
                warm = run_design_jobs(jobs, cache=fresh, retry_policy=LENIENT)
        assert _digest(cold) == expected
        assert _digest(warm) == expected
