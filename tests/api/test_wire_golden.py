"""Golden wire bytes: every payload kind and leaf row, byte for byte.

``golden_wire.json`` (next to this file) was recorded from the
hand-written per-class codecs that preceded the field-driven one, for
the explicitly constructed instances in :func:`golden_cases`.  For each
instance it holds ``json.dumps(to_dict())``, the v1 bytes
``downgrade_payload`` produces, and — for requests — the store keys the
decoded request builds (``job_keys`` / ``fidelity_job_keys``).  The
fixture is a record, not an expectation to update: a failure here means
the wire or the store keys changed.
"""

import json
from pathlib import Path

import pytest

from repro.api.registry import available_designs, baseline_design, resolve_design
from repro.api.schema import (
    CommandPayload,
    ErrorInfo,
    EvaluationRequest,
    EvaluationResult,
    FidelityPoint,
    FidelityRequest,
    FidelityResult,
    NetworkDesignSummary,
    NetworkRequest,
    NetworkResult,
    SweepPoint,
    SweepRequest,
    SweepResult,
    downgrade_payload,
    metrics_to_dict,
    payload_from_dict,
    spec_to_dict,
)
from repro.arch.breakdown import (
    AreaBreakdown,
    DesignMetrics,
    EnergyBreakdown,
    LatencyBreakdown,
)
from repro.deconv.shapes import DeconvSpec
from repro.eval.parallel import (
    CycleStats,
    DesignJob,
    FidelityJob,
    fidelity_job_keys,
    job_keys,
)
from repro.system.network_mapper import named_network_layers
from repro.workloads.specs import get_layer

GOLDEN = Path(__file__).with_name("golden_wire.json")

SPEC = DeconvSpec(4, 4, 2, 3, 3, 2, stride=2, padding=1, output_padding=1)
PLAIN_SPEC = DeconvSpec(2, 3, 1, 2, 2, 1, stride=1)
METRICS = DesignMetrics(
    design="RED",
    layer="GAN_Deconv1",
    latency=LatencyBreakdown(wordline=1.5e-9, bitline=2e-9, computation=3.25e-8,
                             decoder=4e-10, mux=5e-10, read_circuit=6e-9,
                             shift_adder=7e-10, extra_adder=0.0, crop=8e-11),
    energy=EnergyBreakdown(wordline=1e-12, computation=2.5e-11, read_circuit=3e-12),
    area=AreaBreakdown(computation=1e-8, mux=2e-9),
    cycles=4096,
)
BASELINE_METRICS = DesignMetrics(
    design="zero-padding",
    layer="GAN_Deconv1",
    latency=LatencyBreakdown(computation=1e-7),
    energy=EnergyBreakdown(),
    area=AreaBreakdown(computation=3e-8, crop=1),
    cycles=16384,
)
CYCLES = CycleStats(
    design="RED", layer="GAN_Deconv1", fold=2, cycles=4096,
    counters=(("adc_reads", 512), ("buffer_reads", 9000), ("mac_ops", 73728)),
)
OVERRIDES = {"t_adc": 2e-9, "e_mac": 3e-15, "mux_share": 4}
SUMMARY = NetworkDesignSummary(
    design="RED", total_latency_s=1.25e-5, total_energy_j=3.5e-7, speedup=3.2,
    energy_saving=0.56, fill_latency_s=1.25e-5, bottleneck_latency_s=4e-6,
    throughput_per_s=250000.0, chip_area_m2=1.5e-5,
)
POINT = FidelityPoint(
    design="RED", seed=3, time_s=3600.0, rms_error=0.0125,
    mean_abs_error=0.01, max_abs_error=0.05, stuck_fraction=0.0,
)
FAILURE = ErrorInfo(
    error_type="OverloadedError", message="queue full", retryable=True,
    source="stride=4", retry_after_s=0.25,
)
LAYER_RESULT = EvaluationResult(
    layer="GAN_Deconv1", designs=("RED", "zero-padding"),
    metrics=(METRICS, BASELINE_METRICS),
)


def golden_cases() -> dict:
    """Name -> instance: every kind and row, optional fields set and unset."""
    return {
        "evaluation_request/layer_defaults": EvaluationRequest(layer="GAN_Deconv1"),
        "evaluation_request/layer_all_set": EvaluationRequest(
            layer="GAN_Deconv2", designs=("RED", "zp"), fold=2,
            tech_overrides=OVERRIDES, trace=True, layer_name="probe",
        ),
        "evaluation_request/spec_auto_fold": EvaluationRequest(
            spec=SPEC, designs=("padding-free",), fold="auto",
        ),
        "evaluation_request/v1": EvaluationRequest(
            spec=PLAIN_SPEC, schema_version=1,
        ),
        "evaluation_result/plain": LAYER_RESULT,
        "evaluation_result/traced": EvaluationResult(
            layer="GAN_Deconv1", designs=("RED", "zero-padding"),
            metrics=(METRICS, BASELINE_METRICS), cycle_stats=(CYCLES, None),
        ),
        "sweep_request/defaults": SweepRequest(),
        "sweep_request/all_set": SweepRequest(
            strides=(1, 3, 5), input_size=6, channels=16, filters=8,
            fold="auto", tech_overrides=OVERRIDES,
        ),
        "sweep_result/full": SweepResult(
            points=(
                SweepPoint(stride=2, modes=4, cycles_red=100, cycles_zp=400, speedup=4.0),
                SweepPoint(stride=4, modes=16, cycles_red=90, cycles_zp=1440, speedup=16),
            ),
            fitted_exponent=1.98,
        ),
        "sweep_result/partial": SweepResult(
            points=(SweepPoint(stride=1, modes=1, cycles_red=7, cycles_zp=7, speedup=1.0),),
            failures=(FAILURE, ErrorInfo(error_type="OSError", message="disk")),
        ),
        "network_request/defaults": NetworkRequest(network="SNGAN"),
        "network_request/all_set": NetworkRequest(
            network="voc-fcn8s 8x", designs=("RED", "zero-padding"), batch=4,
            input_height=4, input_width=5, seed=7, tech_overrides=OVERRIDES,
        ),
        "network_result/one_layer": NetworkResult(
            network="SNGAN", batch=16, layers=("GAN_Deconv1",),
            designs=("RED", "zero-padding"), layer_results=(LAYER_RESULT,),
            summaries=(SUMMARY,),
        ),
        "fidelity_request/layer_defaults": FidelityRequest(layer="GAN_Deconv1"),
        "fidelity_request/spec_all_set": FidelityRequest(
            spec=SPEC, designs=("RED", "zp"), seeds=(5, 9), times=(60.0, 86400.0),
            nu=0.05, programming_sigma=0.1, read_noise_sigma=0.01,
            stuck_at_rate=0.001, adc_bits=6, max_rows=32, max_cols=64,
            tech_overrides=OVERRIDES, layer_name="probe",
        ),
        "fidelity_request/int_in_float_fields": FidelityRequest(
            layer="GAN_Deconv3", designs=("RED",), seeds=(1,), times=(10,),
            nu=0, programming_sigma=0, read_noise_sigma=0, stuck_at_rate=0,
            tech_overrides={"t_adc": 1},
        ),
        "fidelity_result/points": FidelityResult(
            layer="GAN_Deconv1", designs=("RED", "zero-padding"),
            energy_j=(3.5e-7, 8e-7), points=(POINT,),
        ),
        "command_result/bare": CommandPayload(command="table1"),
        "command_result/all_set": CommandPayload(
            command="report", data={"rows": [1, 2.5, "x"], "nested": {"ok": True}},
            results=(LAYER_RESULT,), text="table\n",
        ),
        "error_info/bare": ErrorInfo(error_type="SchemaError", message="bad"),
        "error_info/all_set": FAILURE,
        "error_info/v1": ErrorInfo(
            error_type="OSError", message="x", retryable=True, source="cli",
            schema_version=1,
        ),
        "row/sweep_point": SweepPoint(stride=8, modes=64, cycles_red=1, cycles_zp=2, speedup=2.0),
        "row/network_design_summary": SUMMARY,
        "row/fidelity_point": POINT,
        "row/design_metrics": METRICS,
        "row/deconv_spec": SPEC,
    }


def encode(instance) -> dict:
    if isinstance(instance, DesignMetrics):
        return metrics_to_dict(instance)
    if isinstance(instance, DeconvSpec):
        return spec_to_dict(instance)
    return instance.to_dict()


def request_job_keys(request) -> list[str]:
    """The store keys the service builds for ``request``, job for job."""
    tech = request.resolved_tech()
    if isinstance(request, SweepRequest):
        jobs = []
        for stride in sorted(set(request.strides)):
            kernel = max(2 * stride, 2)
            spec = DeconvSpec(
                request.input_size, request.input_size, request.channels,
                kernel, kernel, request.filters, stride=stride, padding=stride // 2,
            )
            jobs.append(DesignJob("RED", spec, tech, fold=request.fold))
            jobs.append(DesignJob(baseline_design(), spec, tech))
        return job_keys(jobs)
    designs = (
        tuple(resolve_design(d) for d in request.designs)
        if request.designs else available_designs()
    )
    if isinstance(request, NetworkRequest):
        layers = named_network_layers(
            request.network, request.input_height, request.input_width
        )
        if baseline_design() not in designs:
            designs = (*designs, baseline_design())
        return job_keys([DesignJob(d, m.spec, tech) for d in designs for m in layers])
    spec = request.spec if request.spec is not None else get_layer(request.layer).spec
    if isinstance(request, EvaluationRequest):
        return job_keys([DesignJob(d, spec, tech, fold=request.fold) for d in designs])
    scenario = {
        name: getattr(request, name)
        for name in ("nu", "programming_sigma", "read_noise_sigma", "stuck_at_rate",
                     "adc_bits", "max_rows", "max_cols")
    }
    return job_keys([DesignJob(d, spec, tech) for d in designs]) + fidelity_job_keys([
        FidelityJob(design=d, spec=spec, tech=tech, seed=seed, time_s=time_s, **scenario)
        for d in designs for seed in request.seeds for time_s in request.times
    ])


REQUESTS = (EvaluationRequest, SweepRequest, NetworkRequest, FidelityRequest)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_fixture_covers_every_case(golden):
    assert sorted(golden) == sorted(golden_cases())


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_wire_bytes_unchanged(golden, name):
    instance = golden_cases()[name]
    wire = encode(instance)
    assert json.dumps(wire) == golden[name]["wire"]
    assert json.dumps(downgrade_payload(wire, 1)) == golden[name]["v1"]


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_golden_bytes_decode_back(golden, name):
    instance = golden_cases()[name]
    if isinstance(instance, (DesignMetrics, DeconvSpec)):
        return  # public encoders only; decoded inside their envelopes
    decode = type(instance).from_dict if name.startswith("row/") else payload_from_dict
    assert decode(json.loads(golden[name]["wire"])) == instance
    # Value equality, not bytes: an int in a result's float field may
    # come back as a float.
    v1 = json.loads(golden[name]["v1"])
    assert decode(v1).to_dict() == v1


@pytest.mark.parametrize(
    "name",
    sorted(n for n, case in golden_cases().items() if isinstance(case, REQUESTS)),
)
def test_decoded_requests_keep_their_store_keys(golden, name):
    request = payload_from_dict(json.loads(golden[name]["wire"]))
    assert request_job_keys(request) == golden[name]["job_keys"]
