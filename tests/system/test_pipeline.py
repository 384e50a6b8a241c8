"""Tests for inter-layer pipelining."""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.system.network_mapper import evaluate_network
from repro.system.pipeline import pipeline_network, pipeline_network_sweep
from repro.workloads.networks import SNGANGenerator


@pytest.fixture(scope="module")
def evaluation():
    gen = SNGANGenerator(base_size=4, rng=np.random.default_rng(0))
    return evaluate_network(gen, 1, 1)


class TestPipeline:
    def test_fill_is_stage_sum(self, evaluation):
        report = pipeline_network(evaluation, "RED", batch=8)
        assert report.fill_latency == pytest.approx(sum(report.stage_latencies))

    def test_bottleneck_is_max_stage(self, evaluation):
        report = pipeline_network(evaluation, "RED", batch=8)
        assert report.bottleneck_latency == max(report.stage_latencies)

    def test_batch_latency_formula(self, evaluation):
        report = pipeline_network(evaluation, "RED", batch=10)
        expected = report.fill_latency + 9 * report.bottleneck_latency
        assert report.batch_latency == pytest.approx(expected)

    def test_batch_one_equals_fill(self, evaluation):
        report = pipeline_network(evaluation, "RED", batch=1)
        assert report.batch_latency == pytest.approx(report.fill_latency)

    def test_pipeline_speedup_above_one(self, evaluation):
        report = pipeline_network(evaluation, "RED", batch=32)
        assert report.pipeline_speedup > 1.0

    def test_speedup_grows_with_batch(self, evaluation):
        small = pipeline_network(evaluation, "RED", batch=2)
        large = pipeline_network(evaluation, "RED", batch=64)
        assert large.pipeline_speedup > small.pipeline_speedup

    def test_throughput_inverse_of_bottleneck(self, evaluation):
        report = pipeline_network(evaluation, "zero-padding", batch=4)
        assert report.throughput == pytest.approx(1.0 / report.bottleneck_latency)

    def test_red_pipeline_beats_zero_padding(self, evaluation):
        red = pipeline_network(evaluation, "RED", batch=16)
        zp = pipeline_network(evaluation, "zero-padding", batch=16)
        assert red.batch_latency < zp.batch_latency
        assert red.throughput > zp.throughput

    def test_unknown_design_rejected(self, evaluation):
        with pytest.raises(ParameterError):
            pipeline_network(evaluation, "systolic")

    def test_bad_batch_rejected(self, evaluation):
        with pytest.raises(ParameterError):
            pipeline_network(evaluation, "RED", batch=0)


class TestPipelineNetworkSweep:
    @pytest.fixture(scope="class")
    def network(self):
        return SNGANGenerator(base_size=4, rng=np.random.default_rng(0))

    def test_matches_direct_pipeline_reports(self, network, evaluation):
        reports = pipeline_network_sweep(network, batch=8)
        assert set(reports) == {"zero-padding", "padding-free", "RED"}
        for design, report in reports.items():
            direct = pipeline_network(evaluation, design, batch=8)
            assert report.stage_latencies == direct.stage_latencies
            assert report.energy_per_sample == direct.energy_per_sample
            assert report.batch == direct.batch

    def test_design_subset_and_cache(self, network, tmp_path):
        cold = pipeline_network_sweep(
            network, designs=("RED",), batch=4, cache=tmp_path
        )
        warm = pipeline_network_sweep(
            network, designs=("RED",), batch=4, cache=tmp_path
        )
        assert list(cold) == ["RED"]
        assert cold["RED"].stage_latencies == warm["RED"].stage_latencies
        # The path constructed the packed store: segments only.
        assert len(list(tmp_path.glob("seg-*.seg"))) > 0
        assert not list(tmp_path.glob("index.bin"))
