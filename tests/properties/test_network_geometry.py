"""The memoized network geometry against the module-tree oracle.

``RedService.evaluate_network`` maps a named Table I network through
``named_network_layers`` — one build per ``(name, input size)`` per
process, whatever the request seed.  These properties pin that path to
``RedService.network_evaluation`` over a freshly built, seeded module
tree, byte for byte at both wire generations, and check the memo's
edges: build counts, failures that are not cached, and callers that
mutate what they were handed.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.workloads.networks as networks
from repro.api.registry import available_designs
from repro.api.schema import (
    EvaluationResult,
    NetworkDesignSummary,
    NetworkRequest,
    NetworkResult,
    downgrade_payload,
)
from repro.api.service import RedService
from repro.errors import SchemaError
from repro.reliability import configured_failpoints
from repro.serving.client import ServingCallError
from repro.serving.testing import ServerThread
from repro.system.chip import provision_chip
from repro.system.network_mapper import named_network_layers
from repro.system.pipeline import pipeline_network

NAMES = sorted(networks.NETWORK_BUILDERS)
SIZES = ((1, 1), (2, 3), (4, 4))
seeds = st.integers(min_value=0, max_value=2**63)
sizes = st.sampled_from(SIZES)


@pytest.fixture(autouse=True)
def fresh_memo():
    named_network_layers.cache_clear()
    yield
    named_network_layers.cache_clear()


@pytest.fixture(scope="module")
def service():
    with RedService() as running:
        yield running


def wire_bytes(result) -> tuple[str, str]:
    """The v2 and the downgraded v1 payload, as canonical JSON."""
    payload = result.to_dict()
    return (
        json.dumps(payload, sort_keys=True),
        json.dumps(downgrade_payload(payload, 1), sort_keys=True),
    )


def oracle_result(service, name, seed, height, width) -> NetworkResult:
    """The ``NetworkResult`` rebuilt from a seeded module tree."""
    network = networks.build_network(name, seed=seed)
    evaluation = service.network_evaluation(network, height, width)
    designs = available_designs()
    summaries = []
    for design in designs:
        report = pipeline_network(evaluation, design, batch=16)
        summaries.append(
            NetworkDesignSummary(
                design=design,
                total_latency_s=evaluation.total_latency(design),
                total_energy_j=evaluation.total_energy(design),
                speedup=evaluation.speedup(design),
                energy_saving=evaluation.energy_saving(design),
                fill_latency_s=report.fill_latency,
                bottleneck_latency_s=report.bottleneck_latency,
                throughput_per_s=report.throughput,
                chip_area_m2=provision_chip(evaluation, design).total_area,
            )
        )
    return NetworkResult(
        network=name,
        batch=16,
        layers=tuple(mapped.name for mapped in evaluation.layers),
        designs=designs,
        layer_results=tuple(
            EvaluationResult(
                layer=mapped.name,
                designs=designs,
                metrics=tuple(evaluation.metrics[d][mapped.name] for d in designs),
            )
            for mapped in evaluation.layers
        ),
        summaries=tuple(summaries),
    )


def request(name, seed=0, size=(1, 1)) -> NetworkRequest:
    return NetworkRequest(
        network=name, seed=seed, input_height=size[0], input_width=size[1]
    )


class TestOracle:
    @pytest.mark.parametrize("name", NAMES)
    @given(seed=seeds, size=sizes)
    @settings(max_examples=3, deadline=None)
    def test_memoized_geometry_matches_module_tree(self, service, name, seed, size):
        got = service.evaluate_network(request(name, seed, size))
        expected = oracle_result(service, name, seed, *size)
        assert wire_bytes(got) == wire_bytes(expected)

    @pytest.mark.parametrize("name", NAMES)
    @given(first=seeds, second=seeds, size=sizes)
    @settings(max_examples=10, deadline=None)
    def test_seed_never_changes_the_answer(self, service, name, first, second, size):
        assert wire_bytes(service.evaluate_network(request(name, first, size))) == wire_bytes(
            service.evaluate_network(request(name, second, size))
        )


class TestMemo:
    def test_each_geometry_is_built_once(self, service, monkeypatch):
        built = []
        original = networks.build_network

        def counting(name, *args, **kwargs):
            built.append(name)
            return original(name, *args, **kwargs)

        monkeypatch.setattr(networks, "build_network", counting)
        for round_ in range(3):
            for name in NAMES:
                for size in SIZES[:2]:
                    service.evaluate_network(request(name, seed=round_, size=size))
        assert sorted(built) == sorted(name for name in NAMES for _ in SIZES[:2])

    def test_unknown_network_is_a_schema_error_every_time(self, service):
        for _ in range(2):
            with pytest.raises(SchemaError, match="StyleGAN-XL"):
                service.evaluate_network(request("StyleGAN-XL"))
        assert named_network_layers.cache_info().currsize == 0

    def test_failed_build_is_retried_not_cached(self, service, monkeypatch):
        expected = wire_bytes(service.evaluate_network(request("SNGAN")))
        named_network_layers.cache_clear()
        original = networks.build_network
        calls = []

        def flaky(name, *args, **kwargs):
            calls.append(name)
            if len(calls) == 1:
                raise OSError("injected build failure")
            return original(name, *args, **kwargs)

        monkeypatch.setattr(networks, "build_network", flaky)
        with pytest.raises(OSError, match="injected"):
            service.evaluate_network(request("SNGAN"))
        assert wire_bytes(service.evaluate_network(request("SNGAN"))) == expected
        assert calls == ["SNGAN", "SNGAN"]

    def test_mutating_an_evaluation_does_not_reach_the_memo(self, service, monkeypatch):
        handed_out = []
        original = service._evaluate_layers

        def capture(layers, *args):
            evaluation = original(layers, *args)
            handed_out.append(evaluation)
            return evaluation

        monkeypatch.setattr(service, "_evaluate_layers", capture)
        first = wire_bytes(service.evaluate_network(request("DCGAN")))
        handed_out[0].layers.reverse()
        handed_out[0].layers.pop()
        assert wire_bytes(service.evaluate_network(request("DCGAN"))) == first
        assert handed_out[1].layers is not handed_out[0].layers


class TestServed:
    def test_unknown_network_is_a_400_then_a_known_one_serves(self, service):
        expected = wire_bytes(service.evaluate_network(request("SNGAN", seed=5)))
        named_network_layers.cache_clear()
        with configured_failpoints(None):
            with ServerThread(num_shards=1, call_timeout_s=20.0) as plane:
                with plane.client() as client:
                    for _ in range(2):
                        with pytest.raises(ServingCallError) as caught:
                            client.call(request("StyleGAN-XL"))
                        assert caught.value.status == 400
                        assert caught.value.info.error_type == "SchemaError"
                        assert not caught.value.info.retryable
                    got = client.call(request("SNGAN", seed=9))
        assert wire_bytes(got) == expected
