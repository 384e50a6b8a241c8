"""Keying, hit/miss and invalidation coverage for the sweep result store."""

import dataclasses
import pickle

import pytest

from repro.arch.tech import TechnologyParams, default_tech
from repro.deconv.shapes import DeconvSpec
from repro.eval.parallel import (
    DesignJob,
    evaluate_design_job,
    job_key,
    run_design_jobs,
)
from repro.eval.store import PackedSweepStore

SPEC = DeconvSpec(4, 4, 3, 4, 4, 2, stride=2, padding=1)


def make_job(**overrides) -> DesignJob:
    base = dict(
        design="RED", spec=SPEC, tech=default_tech(), fold=1, layer_name="L"
    )
    base.update(overrides)
    return DesignJob(**base)


#: A constraint-respecting perturbation for every TechnologyParams field.
def _perturb(field: dataclasses.Field):
    value = getattr(default_tech(), field.name)
    if isinstance(value, bool):
        return not value
    if field.name == "bits_weight":
        return value * 2  # stays a multiple of bits_per_cell
    if field.name == "bits_per_cell":
        return value * 2  # 8 % 4 == 0 still holds
    if isinstance(value, int):
        return value + 1
    return value * 1.5


class TestJobKey:
    def test_equal_jobs_share_a_key(self):
        assert job_key(make_job()) == job_key(make_job())

    def test_key_ignores_layer_label(self):
        assert job_key(make_job(layer_name="A")) == job_key(make_job(layer_name="B"))

    @pytest.mark.parametrize("design", ("zero-padding", "padding-free"))
    def test_design_in_key(self, design):
        assert job_key(make_job()) != job_key(make_job(design=design))

    @pytest.mark.parametrize("fold", (2, "auto", None))
    def test_fold_in_key(self, fold):
        assert job_key(make_job()) != job_key(make_job(fold=fold))

    def test_semantically_equal_folds_share_a_key(self):
        # RED: None is an alias of 'auto'.
        assert job_key(make_job(fold=None)) == job_key(make_job(fold="auto"))
        # Baseline designs ignore the field entirely.
        assert job_key(make_job(design="zero-padding", fold=4)) == job_key(
            make_job(design="zero-padding", fold=None)
        )

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(DeconvSpec)]
    )
    def test_every_spec_field_busts_the_key(self, field):
        changed = dataclasses.replace(SPEC, **{field: getattr(SPEC, field) + 1})
        assert job_key(make_job()) != job_key(make_job(spec=changed))

    @pytest.mark.parametrize(
        "field", [f.name for f in dataclasses.fields(TechnologyParams)]
    )
    def test_every_tech_field_busts_the_key(self, field):
        tech_field = {f.name: f for f in dataclasses.fields(TechnologyParams)}[field]
        changed = default_tech().with_overrides(**{field: _perturb(tech_field)})
        assert job_key(make_job()) != job_key(make_job(tech=changed))


class TestCacheLifecycle:
    def test_miss_then_store_then_hit(self, tmp_path):
        cache = PackedSweepStore(tmp_path)
        job = make_job()
        assert cache.get(job) is None
        assert (cache.hits, cache.misses) == (0, 1)
        metrics = evaluate_design_job(job)
        cache.put(job, metrics)
        assert cache.stores == 1
        assert job_key(job) in cache
        cached = cache.get(job)
        assert cache.hits == 1
        assert cached == metrics

    def test_hit_relabelled_to_requesting_job(self, tmp_path):
        cache = PackedSweepStore(tmp_path)
        job_a = make_job(layer_name="GAN_Deconv1")
        cache.put(job_a, evaluate_design_job(job_a))
        cached = cache.get(make_job(layer_name="SNGAN_Deconv4"))
        assert cached is not None
        assert cached.layer == "SNGAN_Deconv4"

    def test_tech_change_invalidates_previous_results(self, tmp_path):
        cache = PackedSweepStore(tmp_path)
        job = make_job()
        run_design_jobs([job], cache=cache)
        retuned = make_job(tech=default_tech().with_overrides(t_adc=1.0e-9))
        assert cache.get(retuned) is None
        fresh, = run_design_jobs([retuned], cache=cache)
        stale, = run_design_jobs([job], cache=cache)
        assert fresh.latency.total != stale.latency.total

    def test_directory_path_coercion_builds_packed_store(self, tmp_path):
        job = make_job()
        first = run_design_jobs([job], cache=str(tmp_path))
        second = run_design_jobs([job], cache=tmp_path)
        assert pickle.dumps(first) == pickle.dumps(second)
        # A path constructs the packed store: one segment per publish
        # (the second run hit), and no other file.
        assert [path.suffix for path in tmp_path.iterdir()] == [".seg"]
        assert len(list(tmp_path.glob("*.pkl"))) == 0

    def test_duplicate_jobs_computed_once_with_labels_preserved(self, tmp_path):
        cache = PackedSweepStore(tmp_path)
        jobs = [make_job(layer_name="A"), make_job(layer_name="B")]
        results = run_design_jobs(jobs, cache=cache)
        assert cache.stores == 1  # one evaluation served both jobs
        assert [m.layer for m in results] == ["A", "B"]
        assert results[0].latency == results[1].latency

    def test_mixed_hit_miss_preserves_job_order(self, tmp_path):
        cache = PackedSweepStore(tmp_path)
        jobs = [make_job(design=d, layer_name=d) for d in ("RED", "zero-padding")]
        run_design_jobs([jobs[0]], cache=cache)
        results = run_design_jobs(jobs, cache=cache)
        assert [m.design for m in results] == ["RED", "zero-padding"]
        assert [m.layer for m in results] == ["RED", "zero-padding"]

    def test_misses_computed_once_per_unique_key(self, tmp_path):
        cache = PackedSweepStore(tmp_path)
        jobs = [make_job(layer_name=label) for label in ("A", "B", "C")]
        jobs += [make_job(design="zp", layer_name="D")]  # zero-padding alias
        results = run_design_jobs(jobs, cache=cache)
        # Three RED jobs share one key; the aliased zero-padding job has
        # its own.  Misses are stored exactly once per unique key.
        assert cache.stores == 2
        assert [m.layer for m in results] == ["A", "B", "C", "D"]
        assert results[0].latency == results[1].latency == results[2].latency

    def test_dedup_identical_without_cache(self):
        results = run_design_jobs([make_job(layer_name="X"), make_job(layer_name="Y")])
        assert [m.layer for m in results] == ["X", "Y"]
        assert results[0].latency == results[1].latency


class TestRunnerValidation:
    def test_unknown_design_raises(self):
        with pytest.raises(KeyError):
            evaluate_design_job(make_job(design="systolic"))
        with pytest.raises(KeyError):
            run_design_jobs([make_job(design="systolic")])
