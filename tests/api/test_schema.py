"""Round-trip property tests for the versioned request/response schema.

Every schema type must satisfy ``from_dict(to_dict(r)) == r`` — also
after a real ``json.dumps``/``json.loads`` cycle, which is what the CLI
``--json`` path and any cross-process consumer actually do.
"""

import copy
import json
from functools import reduce
from operator import getitem

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.schema import (
    SCHEMA_VERSION,
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
    payload_from_dict,
)
from repro.arch.breakdown import (
    AreaBreakdown,
    DesignMetrics,
    EnergyBreakdown,
    LatencyBreakdown,
)
from repro.deconv.shapes import DeconvSpec
from repro.errors import SchemaError, ShapeError
from repro.eval.parallel import CycleStats
from repro.workloads.specs import layer_names

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
finite = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz_0123456789", min_size=1, max_size=12
)


@st.composite
def specs(draw):
    stride = draw(st.integers(1, 4))
    kernel = draw(st.integers(1, 6))
    padding = draw(st.integers(0, max(kernel - 1, 0)))
    try:
        return DeconvSpec(
            input_height=draw(st.integers(1, 6)),
            input_width=draw(st.integers(1, 6)),
            in_channels=draw(st.integers(1, 4)),
            kernel_height=kernel,
            kernel_width=kernel,
            out_channels=draw(st.integers(1, 4)),
            stride=stride,
            padding=padding,
            output_padding=draw(st.integers(0, stride - 1)),
        )
    except ShapeError:
        # Some sampled combinations produce non-positive outputs.
        return DeconvSpec(4, 4, 2, 3, 3, 2, stride=2, padding=1)


def breakdowns(cls):
    component_names = ("wordline", "bitline", "computation", "decoder", "mux")
    return st.builds(
        cls, **{name: finite for name in component_names}
    )


metrics_values = st.builds(
    DesignMetrics,
    design=names,
    layer=names,
    latency=breakdowns(LatencyBreakdown),
    energy=breakdowns(EnergyBreakdown),
    area=breakdowns(AreaBreakdown),
    cycles=st.integers(0, 10**9),
)

cycle_stats_values = st.builds(
    CycleStats,
    design=names,
    layer=names,
    fold=st.integers(1, 64),
    cycles=st.integers(0, 10**9),
    counters=st.dictionaries(names, st.integers(0, 10**12), max_size=4).map(
        lambda d: tuple(sorted(d.items()))
    ),
)

folds = st.one_of(st.none(), st.just("auto"), st.integers(1, 32))
overrides = st.dictionaries(
    st.sampled_from(("t_adc", "e_mac", "clock_hz", "mux_share")),
    st.one_of(st.integers(1, 8), finite.filter(lambda v: v > 0)),
    max_size=3,
)

evaluation_requests = st.one_of(
    st.builds(
        EvaluationRequest,
        layer=st.sampled_from(layer_names()),
        designs=st.lists(st.sampled_from(("RED", "zp", "padding-free")), max_size=3).map(tuple),
        fold=folds,
        tech_overrides=overrides,
        trace=st.booleans(),
        layer_name=st.one_of(st.just(""), names),
    ),
    st.builds(
        EvaluationRequest,
        spec=specs(),
        fold=folds,
        trace=st.booleans(),
    ),
)


@st.composite
def evaluation_results(draw):
    count = draw(st.integers(1, 3))
    design_names = draw(
        st.lists(names, min_size=count, max_size=count, unique=True)
    )
    traced = draw(st.booleans())
    return EvaluationResult(
        layer=draw(names),
        designs=tuple(design_names),
        metrics=tuple(draw(metrics_values) for _ in range(count)),
        cycle_stats=(
            tuple(
                draw(st.one_of(st.none(), cycle_stats_values))
                for _ in range(count)
            )
            if traced
            else ()
        ),
    )


sweep_requests = st.builds(
    SweepRequest,
    strides=st.lists(st.integers(1, 12), min_size=1, max_size=5).map(tuple),
    input_size=st.integers(1, 16),
    channels=st.integers(1, 64),
    filters=st.integers(1, 64),
    fold=st.one_of(st.just("auto"), st.integers(1, 16)),
    tech_overrides=overrides,
)

error_infos = st.builds(
    ErrorInfo,
    error_type=names,
    message=st.text(max_size=40),
    retryable=st.booleans(),
    source=st.one_of(st.just(""), names),
)

sweep_results = st.builds(
    SweepResult,
    points=st.lists(
        st.builds(
            SweepPoint,
            stride=st.integers(1, 32),
            modes=st.integers(1, 1024),
            cycles_red=st.integers(0, 10**9),
            cycles_zp=st.integers(0, 10**9),
            speedup=finite,
        ),
        max_size=5,
    ).map(tuple),
    fitted_exponent=st.one_of(st.none(), finite),
    failures=st.lists(error_infos, max_size=3).map(tuple),
)

network_requests = st.builds(
    NetworkRequest,
    network=st.sampled_from(("DCGAN", "Improved GAN", "SNGAN", "voc-fcn8s 8x")),
    designs=st.lists(st.sampled_from(("RED", "zero-padding")), max_size=2).map(tuple),
    batch=st.integers(1, 256),
    input_height=st.integers(1, 8),
    input_width=st.integers(1, 8),
    seed=st.integers(0, 2**31),
    tech_overrides=overrides,
)


@st.composite
def network_results(draw):
    design_names = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    layer_labels = draw(st.lists(names, min_size=1, max_size=2, unique=True))
    layer_results = tuple(
        EvaluationResult(
            layer=label,
            designs=tuple(design_names),
            metrics=tuple(draw(metrics_values) for _ in design_names),
        )
        for label in layer_labels
    )
    summaries = tuple(
        NetworkDesignSummary(
            design=design,
            total_latency_s=draw(finite),
            total_energy_j=draw(finite),
            speedup=draw(finite),
            energy_saving=draw(finite),
            fill_latency_s=draw(finite),
            bottleneck_latency_s=draw(finite),
            throughput_per_s=draw(finite),
            chip_area_m2=draw(finite),
        )
        for design in design_names
    )
    return NetworkResult(
        network=draw(names),
        batch=draw(st.integers(1, 64)),
        layers=tuple(layer_labels),
        designs=tuple(design_names),
        layer_results=layer_results,
        summaries=summaries,
    )


positive_times = st.lists(
    st.floats(min_value=1e-3, max_value=1e9, allow_nan=False, allow_infinity=False),
    min_size=1,
    max_size=4,
).map(tuple)

fidelity_requests = st.one_of(
    st.builds(
        FidelityRequest,
        layer=st.sampled_from(layer_names()),
        designs=st.lists(
            st.sampled_from(("RED", "zp", "padding-free")), max_size=3
        ).map(tuple),
        seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=4).map(tuple),
        times=positive_times,
        programming_sigma=finite,
        read_noise_sigma=finite,
        stuck_at_rate=st.floats(0.0, 1.0, allow_nan=False),
        adc_bits=st.one_of(st.none(), st.integers(1, 12)),
        tech_overrides=overrides,
        layer_name=st.one_of(st.just(""), names),
    ),
    st.builds(
        FidelityRequest,
        spec=specs(),
        seeds=st.lists(st.integers(0, 2**31), min_size=1, max_size=4).map(tuple),
        times=positive_times,
        max_rows=st.integers(1, 256),
        max_cols=st.integers(1, 256),
    ),
)


@st.composite
def fidelity_results(draw):
    design_names = draw(st.lists(names, min_size=1, max_size=3, unique=True))
    points = tuple(
        FidelityPoint(
            design=design,
            seed=draw(st.integers(0, 2**31)),
            time_s=draw(st.floats(1e-3, 1e9, allow_nan=False)),
            rms_error=draw(finite),
            mean_abs_error=draw(finite),
            max_abs_error=draw(finite),
            stuck_fraction=draw(st.floats(0.0, 1.0, allow_nan=False)),
        )
        for design in design_names
        for _ in range(draw(st.integers(0, 2)))
    )
    return FidelityResult(
        layer=draw(names),
        designs=tuple(design_names),
        energy_j=tuple(draw(finite) for _ in design_names),
        points=points,
    )


command_payloads = st.builds(
    CommandPayload,
    command=names,
    data=st.one_of(
        st.none(),
        st.dictionaries(names, st.one_of(st.integers(), finite, names), max_size=3),
        st.lists(st.integers(), max_size=4),
    ),
    results=st.lists(evaluation_results(), max_size=2).map(tuple),
    text=st.text(max_size=40),
)

all_payloads = st.one_of(
    evaluation_requests,
    evaluation_results(),
    sweep_requests,
    sweep_results,
    network_requests,
    network_results(),
    fidelity_requests,
    fidelity_results(),
    command_payloads,
    error_infos,
)


# ----------------------------------------------------------------------
# Round-trip properties
# ----------------------------------------------------------------------
class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(all_payloads)
    def test_from_dict_inverts_to_dict(self, payload):
        assert type(payload).from_dict(payload.to_dict()) == payload

    @settings(max_examples=60, deadline=None)
    @given(all_payloads)
    def test_round_trip_survives_json(self, payload):
        wire = json.loads(json.dumps(payload.to_dict()))
        assert payload_from_dict(wire) == payload

    @settings(max_examples=30, deadline=None)
    @given(all_payloads)
    def test_payload_is_json_native_and_version_tagged(self, payload):
        wire = payload.to_dict()
        assert wire["schema_version"] == SCHEMA_VERSION
        assert wire["kind"] in (
            "evaluation_request", "evaluation_result", "sweep_request",
            "sweep_result", "network_request", "network_result",
            "fidelity_request", "fidelity_result", "command_result",
            "error_info",
        )
        json.dumps(wire)  # must not raise


class TestStrictValidation:
    def test_wrong_version_rejected(self):
        payload = EvaluationRequest(layer="GAN_Deconv1").to_dict()
        payload["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(SchemaError, match="schema_version"):
            EvaluationRequest.from_dict(payload)

    def test_unknown_key_rejected(self):
        payload = SweepRequest().to_dict()
        payload["surprise"] = 1
        with pytest.raises(SchemaError, match="surprise"):
            SweepRequest.from_dict(payload)

    def test_missing_required_key_rejected(self):
        payload = NetworkRequest(network="SNGAN").to_dict()
        del payload["network"]
        with pytest.raises(SchemaError, match="network"):
            NetworkRequest.from_dict(payload)

    def test_wrong_kind_rejected(self):
        payload = SweepRequest().to_dict()
        with pytest.raises(SchemaError, match="kind"):
            NetworkRequest.from_dict(payload)

    @pytest.mark.parametrize("kind", ("mystery", [], {}, 5, None))
    def test_unknown_kind_rejected(self, kind):
        with pytest.raises(SchemaError, match="unknown payload kind"):
            payload_from_dict({"kind": kind, "schema_version": SCHEMA_VERSION})

    def test_non_mapping_rejected(self):
        with pytest.raises(SchemaError):
            payload_from_dict([1, 2, 3])

    def test_layer_and_spec_both_set_rejected(self):
        with pytest.raises(SchemaError, match="exactly one"):
            EvaluationRequest(
                layer="GAN_Deconv1", spec=DeconvSpec(4, 4, 2, 3, 3, 2, stride=2, padding=1)
            )

    def test_neither_layer_nor_spec_rejected(self):
        with pytest.raises(SchemaError, match="exactly one"):
            EvaluationRequest()

    def test_bad_fold_rejected(self):
        with pytest.raises(SchemaError, match="fold"):
            EvaluationRequest(layer="GAN_Deconv1", fold=0)

    def test_unknown_tech_override_rejected(self):
        with pytest.raises(SchemaError, match="t_warp"):
            EvaluationRequest(layer="GAN_Deconv1", tech_overrides={"t_warp": 1.0})

    def test_empty_strides_rejected(self):
        with pytest.raises(SchemaError, match="strides"):
            SweepRequest(strides=())

    def test_bad_batch_rejected(self):
        with pytest.raises(SchemaError, match="batch"):
            NetworkRequest(network="SNGAN", batch=0)

    def test_overrides_are_normalized_and_hash_stable(self):
        a = EvaluationRequest(
            layer="GAN_Deconv1", tech_overrides={"t_adc": 1e-9, "e_mac": 2e-15}
        )
        b = EvaluationRequest(
            layer="GAN_Deconv1", tech_overrides=(("e_mac", 2e-15), ("t_adc", 1e-9))
        )
        assert a == b
        assert hash(a) == hash(b)

    def test_resolved_tech_applies_overrides(self):
        request = EvaluationRequest(layer="GAN_Deconv1", tech_overrides={"t_adc": 1e-9})
        assert request.resolved_tech().t_adc == 1e-9

    def test_mismatched_metrics_length_rejected(self):
        with pytest.raises(SchemaError, match="metrics"):
            EvaluationResult(layer="L", designs=("a", "b"), metrics=())


class TestFidelityValidation:
    def test_layer_and_spec_both_set_rejected(self):
        with pytest.raises(SchemaError, match="exactly one"):
            FidelityRequest(
                layer="GAN_Deconv1",
                spec=DeconvSpec(4, 4, 2, 3, 3, 2, stride=2, padding=1),
            )

    def test_empty_seeds_rejected(self):
        with pytest.raises(SchemaError, match="seeds"):
            FidelityRequest(layer="GAN_Deconv1", seeds=())

    def test_negative_seed_rejected(self):
        with pytest.raises(SchemaError, match="seeds"):
            FidelityRequest(layer="GAN_Deconv1", seeds=(0, -1))

    def test_non_positive_time_rejected(self):
        with pytest.raises(SchemaError, match="times"):
            FidelityRequest(layer="GAN_Deconv1", times=(1.0, 0.0))

    def test_stuck_rate_above_one_rejected(self):
        with pytest.raises(SchemaError, match="stuck_at_rate"):
            FidelityRequest(layer="GAN_Deconv1", stuck_at_rate=1.5)

    def test_negative_sigma_rejected(self):
        with pytest.raises(SchemaError, match="programming_sigma"):
            FidelityRequest(layer="GAN_Deconv1", programming_sigma=-0.1)

    def test_bool_adc_bits_rejected(self):
        with pytest.raises(SchemaError, match="adc_bits"):
            FidelityRequest(layer="GAN_Deconv1", adc_bits=True)

    def test_zero_max_rows_rejected(self):
        with pytest.raises(SchemaError, match="max_rows"):
            FidelityRequest(layer="GAN_Deconv1", max_rows=0)

    def test_seeds_and_times_normalized(self):
        request = FidelityRequest(layer="GAN_Deconv1", seeds=[2, 3], times=[60, 3600])
        assert request.seeds == (2, 3)
        assert request.times == (60.0, 3600.0)
        assert all(isinstance(t, float) for t in request.times)

    def test_mismatched_energy_length_rejected(self):
        with pytest.raises(SchemaError, match="energies"):
            FidelityResult(layer="L", designs=("a", "b"), energy_j=(1.0,), points=())

    def test_points_for_unknown_design_rejected(self):
        result = FidelityResult(layer="L", designs=("a",), energy_j=(1.0,), points=())
        with pytest.raises(KeyError):
            result.points_for("b")
        with pytest.raises(KeyError):
            result.energy_for("b")

    def test_fidelity_request_unknown_key_rejected(self):
        wire = FidelityRequest(layer="GAN_Deconv1").to_dict()
        wire["surprise"] = 1
        with pytest.raises(SchemaError, match="surprise"):
            FidelityRequest.from_dict(wire)


class TestErrorInfo:
    def test_from_exception_transient(self):
        info = ErrorInfo.from_exception(OSError("disk full"), source="stride=4")
        assert info.error_type == "OSError"
        assert info.message == "disk full"
        assert info.retryable
        assert info.source == "stride=4"

    def test_from_exception_permanent(self):
        info = ErrorInfo.from_exception(ShapeError("bad"))
        assert info.error_type == "ShapeError"
        assert not info.retryable
        assert info.source == ""

    def test_empty_error_type_rejected(self):
        with pytest.raises(SchemaError, match="error_type"):
            ErrorInfo(error_type="", message="x")

    def test_non_bool_retryable_rejected(self):
        with pytest.raises(SchemaError, match="retryable"):
            ErrorInfo(error_type="OSError", message="x", retryable=1)

    def test_unknown_key_rejected(self):
        wire = ErrorInfo(error_type="OSError", message="x").to_dict()
        wire["surprise"] = 1
        with pytest.raises(SchemaError, match="surprise"):
            ErrorInfo.from_dict(wire)

    def test_sweep_result_failures_must_hold_error_info(self):
        with pytest.raises(SchemaError, match="ErrorInfo"):
            SweepResult(points=(), failures=("stride=2",))

    def test_sweep_result_omits_empty_failures_on_wire(self):
        wire = SweepResult(points=()).to_dict()
        assert "failures" not in wire

    def test_payload_dispatch_rebuilds_error_info(self):
        info = ErrorInfo.from_exception(OSError("boom"), source="cli")
        wire = json.loads(json.dumps(info.to_dict()))
        assert payload_from_dict(wire) == info


class TestSchemaV2:
    """Version negotiation: v1 payloads round-trip, v2 fields downgrade."""

    def test_v1_payload_round_trips_as_v1(self):
        wire = SweepRequest(strides=(1, 2)).to_dict()
        wire["schema_version"] = 1
        parsed = payload_from_dict(wire)
        assert parsed.schema_version == 1
        assert parsed.to_dict()["schema_version"] == 1

    def test_unsupported_version_names_the_supported_set(self):
        wire = SweepRequest(strides=(1, 2)).to_dict()
        wire["schema_version"] = 99
        with pytest.raises(SchemaError, match=r"\[1, 2\]"):
            payload_from_dict(wire)

    def test_retry_after_s_requires_v2(self):
        with pytest.raises(SchemaError, match="retry_after_s"):
            ErrorInfo(
                error_type="OverloadedError",
                message="busy",
                retryable=True,
                retry_after_s=0.5,
                schema_version=1,
            )

    def test_retry_after_s_must_be_positive(self):
        with pytest.raises(SchemaError, match="retry_after_s"):
            ErrorInfo(
                error_type="OverloadedError",
                message="busy",
                retry_after_s=0.0,
            )

    def test_retry_after_s_round_trips_and_omits_when_unset(self):
        info = ErrorInfo(
            error_type="OverloadedError",
            message="busy",
            retryable=True,
            retry_after_s=0.25,
        )
        wire = json.loads(json.dumps(info.to_dict()))
        assert wire["retry_after_s"] == 0.25
        assert payload_from_dict(wire) == info
        bare = ErrorInfo(error_type="OSError", message="x").to_dict()
        assert "retry_after_s" not in bare

    def test_from_exception_carries_retry_hint(self):
        from repro.errors import OverloadedError

        info = ErrorInfo.from_exception(
            OverloadedError("queue full", retry_after_s=0.2)
        )
        assert info.retryable
        assert info.retry_after_s == 0.2

    def test_from_exception_follows_one_cause_level(self):
        from repro.errors import ReproError

        try:
            try:
                raise OSError("disk")
            except OSError as inner:
                raise ReproError("wrapped") from inner
        except ReproError as exc:
            info = ErrorInfo.from_exception(exc)
        assert info.error_type == "ReproError"
        assert info.retryable  # retryability preserved through __cause__

    def test_downgrade_strips_v2_fields_recursively(self):
        from repro.api.schema import downgrade_payload

        result = SweepResult(
            points=(),
            failures=(
                ErrorInfo(
                    error_type="OverloadedError",
                    message="busy",
                    retryable=True,
                    retry_after_s=0.5,
                ),
            ),
        )
        wire = downgrade_payload(result.to_dict(), 1)
        assert wire["schema_version"] == 1
        assert wire["failures"][0]["schema_version"] == 1
        assert "retry_after_s" not in wire["failures"][0]
        parsed = payload_from_dict(wire)
        assert parsed.schema_version == 1

    def test_downgrade_to_unsupported_version_rejected(self):
        from repro.api.schema import downgrade_payload

        with pytest.raises(SchemaError):
            downgrade_payload(SweepRequest(strides=(2,)).to_dict(), 0)


# ----------------------------------------------------------------------
# Mutation fuzz: a malformed wire gets SchemaError, never another error
# ----------------------------------------------------------------------
REPLACEMENTS = ("5", 5, 5.5, True, None, [], {}, "", [1], {"a": 1})
EVALUATION = EvaluationRequest(layer="GAN_Deconv1")
DELETE = object()


def key_paths(node, path=()):
    """Every key path below ``node``, through nested mappings and lists."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, value in items:
        yield (*path, key)
        yield from key_paths(value, (*path, key))


def mutants(wire: dict):
    """``wire`` with one key deleted, one unknown key added, or one value
    replaced by each of :data:`REPLACEMENTS` — at every key path."""
    text = json.dumps(wire)
    paths = list(key_paths(wire))
    for *head, last in paths:
        for replacement in (DELETE, *REPLACEMENTS):
            mutant = json.loads(text)
            parent = reduce(getitem, head, mutant)
            if replacement is DELETE:
                del parent[last]
            else:
                parent[last] = copy.deepcopy(replacement)
            yield mutant
    for path in [(), *paths]:
        mutant = json.loads(text)
        node = reduce(getitem, path, mutant)
        if isinstance(node, dict):
            node["surprise"] = 1
            yield mutant


class TestMutationFuzz:
    @settings(max_examples=25, deadline=None)
    @given(all_payloads)
    def test_mutated_wire_is_rejected_or_round_trips(self, payload):
        for mutant in mutants(payload.to_dict()):
            try:
                decoded = payload_from_dict(mutant)
            except SchemaError:
                continue
            wire = json.loads(json.dumps(decoded.to_dict()))
            assert payload_from_dict(wire) == decoded

    @pytest.mark.parametrize(
        "payload, field, value",
        [
            (EVALUATION, "designs", "red"),  # not ('r', 'e', 'd')
            (EVALUATION, "designs", 5),
            (EVALUATION, "trace", 1),
            (EVALUATION, "layer_name", 5),  # not "5"
            (EVALUATION, "tech_overrides", None),
            (EVALUATION, "tech_overrides", []),
            (NetworkRequest(network="SNGAN"), "network", 5),
            (SweepRequest(), "strides", [1.5]),  # not truncated to 1
            (FidelityRequest(layer="GAN_Deconv1"), "seeds", ["3"]),
            (ErrorInfo(error_type="E", message="m"), "retryable", 1),
            (
                NetworkResult(network="N", batch=1, layers=(), designs=(),
                              layer_results=(), summaries=()),
                "batch", 5.5,
            ),
        ],
    )
    def test_wire_values_are_not_coerced(self, payload, field, value):
        wire = payload.to_dict()
        wire[field] = value
        with pytest.raises(SchemaError, match=field):
            payload_from_dict(wire)
