"""The vectorized analytic plane against the scalar per-job oracle.

The ISSUE-4 acceptance property: for every registered design (including
RED with ``fold='auto'``) and random (spec, fold, tech) draws, the
struct-of-arrays evaluator returns ``DesignMetrics`` that are float64
**bit-identical** (pickle-byte equal) to the scalar path — and
:func:`repro.eval.parallel.run_design_jobs` routes through the plane by
default with no observable behavior change.
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.registry import (
    available_designs,
    get_design,
    register_design,
    unregister_design,
)
from repro.arch.tech import default_tech
from repro.errors import ParameterError
from repro.eval.parallel import DesignJob, evaluate_design_job, run_design_jobs
from repro.eval.vectorized import design_supports_batch, evaluate_design_jobs_batch
from tests.conftest import SMALL_SPECS, deconv_specs

_SETTINGS = dict(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Fold draws covering the design default, explicit auto, and concrete
#: Eq. 2 folds (ignored by the designs without the parameter).
folds = st.sampled_from((None, "auto", 1, 2, 3, 8))

#: Tech draws perturbing both format knobs and analog constants.
techs = st.sampled_from(
    (
        default_tech(),
        default_tech().with_overrides(mux_share=4),
        default_tech().with_overrides(bits_input=4, t_adc=0.75e-9),
        default_tech().with_overrides(differential=False, e_dec_per_row=4.5e-12),
    )
)


def _bytes(metrics_list):
    return [pickle.dumps(m, 5) for m in metrics_list]


class TestBitIdentityProperty:
    @given(spec=deconv_specs(max_input=6, max_kernel=6, max_stride=4),
           fold=folds, tech=techs)
    @settings(**_SETTINGS)
    def test_plane_matches_oracle_across_all_designs(self, spec, fold, tech):
        jobs = [
            DesignJob(design, spec, tech, fold=fold, layer_name=f"L-{design}")
            for design in available_designs()
        ]
        vectorized = evaluate_design_jobs_batch(jobs)
        scalar = [evaluate_design_job(job) for job in jobs]
        assert _bytes(vectorized) == _bytes(scalar)

    @given(spec=deconv_specs(max_input=5, max_kernel=8, max_stride=4))
    @settings(**_SETTINGS)
    def test_red_auto_fold_matches_oracle(self, spec):
        """RED's 'auto' fold resolution must vectorize identically."""
        tech = default_tech()
        job = DesignJob("RED", spec, tech, fold="auto", layer_name="auto")
        assert _bytes(evaluate_design_jobs_batch([job])) == _bytes(
            [evaluate_design_job(job)]
        )

    def test_run_design_jobs_matches_oracle_over_the_spec_zoo(self):
        tech = default_tech()
        jobs = [
            DesignJob(design, spec, tech, layer_name=f"{design}-{index}")
            for index, spec in enumerate(SMALL_SPECS)
            for design in available_designs()
        ]
        assert _bytes(run_design_jobs(jobs)) == _bytes(
            [evaluate_design_job(job) for job in jobs]
        )


class TestPlaneSemantics:
    def test_result_order_and_labels_preserved(self):
        tech = default_tech()
        jobs = [
            DesignJob("RED", SMALL_SPECS[2], tech, layer_name="b"),
            DesignJob("zero-padding", SMALL_SPECS[0], tech, layer_name="a"),
            DesignJob("RED", SMALL_SPECS[0], tech, layer_name="c"),
        ]
        results = evaluate_design_jobs_batch(jobs)
        assert [m.layer for m in results] == ["b", "a", "c"]
        assert [m.design for m in results] == ["RED", "zero-padding", "RED"]

    def test_aliases_resolve_to_canonical_names(self):
        tech = default_tech()
        canonical, aliased = evaluate_design_jobs_batch(
            [
                DesignJob("zero-padding", SMALL_SPECS[0], tech, layer_name="x"),
                DesignJob("zp", SMALL_SPECS[0], tech, layer_name="x"),
            ]
        )
        assert pickle.dumps(canonical, 5) == pickle.dumps(aliased, 5)

    def test_value_equal_tech_objects_share_a_group(self):
        tech_a = default_tech().with_overrides(mux_share=4)
        tech_b = default_tech().with_overrides(mux_share=4)
        assert tech_a is not tech_b
        jobs = [
            DesignJob("RED", SMALL_SPECS[0], tech_a, layer_name="a"),
            DesignJob("RED", SMALL_SPECS[0], tech_b, layer_name="b"),
        ]
        results = evaluate_design_jobs_batch(jobs)
        assert _bytes([m for m in results]) == _bytes(
            [evaluate_design_job(job) for job in jobs]
        )

    def test_mixed_techs_evaluated_per_group(self):
        tech_a = default_tech()
        tech_b = default_tech().with_overrides(t_adc=1.0e-9)
        jobs = [
            DesignJob("padding-free", SMALL_SPECS[1], tech_a, layer_name="a"),
            DesignJob("padding-free", SMALL_SPECS[1], tech_b, layer_name="b"),
        ]
        results = evaluate_design_jobs_batch(jobs)
        assert results[0].latency.total != results[1].latency.total
        assert _bytes(results) == _bytes([evaluate_design_job(job) for job in jobs])

    def test_invalid_fold_raises_parameter_error(self):
        job = DesignJob("RED", SMALL_SPECS[0], default_tech(), fold=0)
        with pytest.raises(ParameterError):
            evaluate_design_jobs_batch([job])
        with pytest.raises(ParameterError):
            evaluate_design_job(job)

    @pytest.mark.parametrize("use_cache", (False, True))
    def test_float_fold_never_borrows_an_int_twin_result(self, use_cache, tmp_path):
        """fold=2.0 is invalid; being value-equal to a valid fold=2 job
        in the same work list must not smuggle it past validation on
        either dedup route (in-memory tuple keys or on-disk job_key);
        ``tests/properties/test_parallel_determinism.py`` draws it over
        random shapes."""
        tech = default_tech()
        jobs = [
            DesignJob("RED", SMALL_SPECS[0], tech, fold=2, layer_name="ok"),
            DesignJob("RED", SMALL_SPECS[0], tech, fold=2.0, layer_name="bad"),
        ]
        cache = str(tmp_path) if use_cache else None
        with pytest.raises(ParameterError):
            run_design_jobs(jobs, cache=cache)


class TestScalarFallback:
    def test_design_without_hook_falls_back_to_scalar_path(self):
        """A plugin design with no perf_batch hook still evaluates."""
        from repro.designs.zero_padding_design import ZeroPaddingDesign

        @register_design("no-batch-design")
        class NoBatchDesign(ZeroPaddingDesign):
            name = "no-batch-design"

        try:
            assert not design_supports_batch("no-batch-design")
            tech = default_tech()
            jobs = [
                DesignJob("no-batch-design", SMALL_SPECS[0], tech, layer_name="p"),
                DesignJob("RED", SMALL_SPECS[0], tech, layer_name="q"),
            ]
            results = run_design_jobs(jobs)
            assert [m.design for m in results] == ["no-batch-design", "RED"]
            assert _bytes(results) == _bytes(
                [evaluate_design_job(job) for job in jobs]
            )
            with pytest.raises(ParameterError):
                evaluate_design_jobs_batch([jobs[0]])
        finally:
            unregister_design("no-batch-design")

    def test_builtins_all_support_batch(self):
        for design in available_designs():
            assert design_supports_batch(design)
            assert get_design(design).perf_batch is not None
