"""Versioned request/response schema for the service-layer API.

Every payload that crosses the service boundary — CLI ``--json`` output,
:class:`~repro.api.service.RedService` arguments and results, exported
records — is one of the frozen dataclasses below.  Each type:

* carries a ``schema_version`` field (:data:`SCHEMA_VERSION`); every
  version in :data:`SUPPORTED_SCHEMA_VERSIONS` still parses, and a
  parsed payload keeps the version it arrived with so v1 round-trips
  stay v1 (:func:`downgrade_payload` rewrites v2 trees for v1 readers);
* round-trips exactly: ``T.from_dict(t.to_dict()) == t``, also through
  JSON (``tests/api/test_schema.py``; the bytes are pinned by
  ``tests/api/test_wire_golden.py``);
* is encoded and decoded by one codec (:class:`_Payload`), compiled
  once per class from its dataclass fields and resolved type hints.

Decode contract (``from_dict`` and :func:`payload_from_dict`):

* the required keys are the fields without a default, plus
  ``schema_version`` for a kinded payload; unknown keys are rejected;
* values are type-checked, never coerced: ``"5"`` and ``true`` are not
  numbers, ``5.5`` is not an int, ``5`` is not a string, a string is
  not a list, and ``null`` fits only an optional field.  A ``float``
  field accepts an int and keeps it;
* every failure — also a wrong kind or version, or a ``__post_init__``
  range check (these guard Python construction too) — raises
  :class:`~repro.errors.SchemaError`, never another exception and never
  a half-built object.
"""

from __future__ import annotations

import dataclasses
import functools
import types
import typing
from dataclasses import dataclass, field, fields

from repro.arch.breakdown import DesignMetrics
from repro.arch.tech import TechnologyParams, default_tech
from repro.deconv.shapes import DeconvSpec
from repro.errors import ReproError, SchemaError
from repro.eval.parallel import CycleStats

#: The current request/response schema generation.  Bump on any change
#: to the payload shapes below.  Version 2 added the serving plane's
#: ``ErrorInfo.retry_after_s`` overload-backoff hint.
SCHEMA_VERSION = 2

#: Every generation this library still parses.  Version 1 payloads
#: (no ``retry_after_s``) remain readable and round-trip unchanged, so
#: v1 clients keep working against a v2 server.
SUPPORTED_SCHEMA_VERSIONS = frozenset({1, 2})

_TECH_FIELDS = frozenset(f.name for f in fields(TechnologyParams))

#: ``kind`` discriminator -> payload class, for :func:`payload_from_dict`.
#: Filled by the ``class X(_Payload, kind=...)`` declarations below.
PAYLOAD_KINDS: dict[str, type] = {}

#: Wire key order of leaf classes whose fields are declared in another
#: order (every other class emits its fields in declaration order).
_WIRE_ORDER = {
    DesignMetrics: ("design", "layer", "cycles", "latency", "energy", "area"),
}


# ----------------------------------------------------------------------
# The codec
# ----------------------------------------------------------------------
class _Payload:
    """Base of every schema dataclass: ``to_dict``/``from_dict`` from fields.

    ``class X(_Payload, kind="x")`` declares a wire payload, dispatched
    through :data:`PAYLOAD_KINDS`.  Its encoding starts with ``kind`` and
    ``schema_version``, then the fields in declaration order (but see
    :data:`_WIRE_ORDER`); tuples become lists, ``(name, value)`` pairs
    mappings.  A class without a kind is a row inside a versioned
    envelope.  Field metadata: ``since`` is the version that introduced
    the key (:func:`downgrade_payload` drops it for older readers);
    ``omit_default`` leaves the key out while it holds its default.
    """

    _kind = None

    def __init_subclass__(cls, kind: str | None = None, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._kind = kind
        if kind is not None:
            PAYLOAD_KINDS[kind] = cls
        # Each class owns its codec methods, so wrapping one class's
        # (a tracer's span, say) leaves the others alone.
        for name in ("to_dict", "from_dict"):
            setattr(cls, name, _Payload.__dict__[name])

    def to_dict(self) -> dict:
        """This payload as JSON-native mappings, lists and scalars."""
        return _encoder(type(self))(self)

    @classmethod
    def from_dict(cls, payload):
        """Strictly rebuild an instance; malformed input raises SchemaError."""
        return _decoder(cls)(payload)


_UNIONS = (typing.Union, types.UnionType)
#: Scalar hint -> the wire types it accepts (``bool`` never passes as a number).
_ACCEPTS = {
    str: (str,), int: (int,), float: (int, float), bool: (bool,),
    type(None): (type(None),),
}


def _value_encoder(hint):
    """Field value -> JSON converter, or ``None`` when it is JSON already."""
    if dataclasses.is_dataclass(hint):
        return _encoder(hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in _UNIONS:
        options = [a for a in args if a is not type(None)]
        inner = _value_encoder(options[0]) if len(options) == 1 else None
        if inner is None:
            return None
        return lambda value: None if value is None else inner(value)
    if origin is tuple:
        if typing.get_origin(args[0]) is tuple:  # (name, value) pairs
            return dict
        inner = _value_encoder(args[0])
        return list if inner is None else (lambda value: [inner(v) for v in value])
    return None


def _value_decoder(hint, where: str):
    """Wire value -> field value, raising SchemaError on a type mismatch."""
    if hint is object:
        return lambda value: value
    if dataclasses.is_dataclass(hint):
        return _decoder(hint)
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    options = args if origin in _UNIONS else (hint,)
    if all(option in _ACCEPTS for option in options):
        accepted = tuple(t for option in options for t in _ACCEPTS[option])
        bool_ok = bool in options
        expected = getattr(hint, "__name__", str(hint))

        def decode_scalar(value):
            if isinstance(value, accepted) and (bool_ok or type(value) is not bool):
                return value
            raise SchemaError(f"{where} must be {expected}, got {value!r}")

        return decode_scalar
    if origin in _UNIONS:  # an optional nested dataclass
        (inner,) = [a for a in args if a is not type(None)]
        inner = _value_decoder(inner, where)
        return lambda value: None if value is None else inner(value)
    if origin is not tuple:
        raise TypeError(f"the schema codec cannot decode {hint!r} ({where})")
    if typing.get_origin(args[0]) is tuple:  # (name, value) pairs
        key_hint, value_hint = typing.get_args(args[0])
        key = _value_decoder(key_hint, f"{where} key")
        item = _value_decoder(value_hint, f"{where} value")

        def decode_pairs(value):
            if not isinstance(value, dict):
                raise SchemaError(f"{where} must be a mapping, got {value!r}")
            return tuple(sorted([(key(k), item(v)) for k, v in value.items()]))

        return decode_pairs
    item = _value_decoder(args[0], f"{where} item")

    def decode_items(value):
        if not isinstance(value, (list, tuple)):
            raise SchemaError(f"{where} must be a list, got {value!r}")
        return tuple([item(v) for v in value])

    return decode_items


@functools.cache
def _encoder(cls):
    """The compiled ``to_dict`` of one dataclass (built once per class)."""
    kind = getattr(cls, "_kind", None)
    hints = typing.get_type_hints(cls)
    names = [f.name for f in fields(cls) if f.name != "schema_version"]
    plan = [(name, _value_encoder(hints[name])) for name in _WIRE_ORDER.get(cls, names)]
    omitted = {f.name: f.default for f in fields(cls) if f.metadata.get("omit_default")}

    def encode(obj) -> dict:
        wire = {"kind": kind, "schema_version": obj.schema_version} if kind else {}
        for name, convert in plan:
            value = getattr(obj, name)
            if name in omitted and value == omitted[name]:
                continue
            wire[name] = value if convert is None else convert(value)
        return wire

    return encode


@functools.cache
def _decoder(cls):
    """The compiled ``from_dict`` of one dataclass (built once per class)."""
    kind = getattr(cls, "_kind", None)
    label = kind or cls.__name__
    hints = typing.get_type_hints(cls)
    decoders = {
        f.name: _value_decoder(hints[f.name], f"{label}.{f.name}") for f in fields(cls)
    }
    required = {
        f.name for f in fields(cls)
        if f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING
    }
    allowed = set(decoders)
    if kind:
        required.add("schema_version")
        allowed.add("kind")

    def decode(payload):
        if not isinstance(payload, dict):
            raise SchemaError(f"{label} payload must be a mapping, got {type(payload).__name__}")
        if kind:
            declared = payload.get("kind", kind)
            if declared != kind:
                raise SchemaError(f"expected a {kind!r} payload, got kind {declared!r}")
            _check_instance_version(kind, payload.get("schema_version"))
        keys = payload.keys()
        if not required <= keys:
            raise SchemaError(f"{label} payload is missing keys {sorted(required - keys)}")
        if not keys <= allowed:
            raise SchemaError(f"{label} payload has unknown keys {sorted(keys - allowed, key=str)}")
        values = {
            name: decoders[name](value) for name, value in payload.items() if name != "kind"
        }
        try:
            return cls(**values)
        except (TypeError, ValueError, ReproError) as exc:
            raise SchemaError(f"invalid {label} payload: {exc}") from exc

    return decode


def _check_instance_version(kind: str, version) -> None:
    if type(version) is not int or version not in SUPPORTED_SCHEMA_VERSIONS:
        raise SchemaError(
            f"{kind} schema_version {version!r} is not one of the "
            f"supported versions {sorted(SUPPORTED_SCHEMA_VERSIONS)}"
        )


def _normalize_overrides(overrides) -> tuple[tuple[str, object], ...]:
    """Tech overrides as a sorted, hashable, validated tuple of pairs."""
    if overrides is None:
        return ()
    try:
        items = tuple(sorted(dict(overrides).items()))
    except (TypeError, ValueError):
        raise SchemaError(
            f"tech_overrides must be a mapping or (name, value) pairs, "
            f"got {overrides!r}"
        ) from None
    for name, value in items:
        if name not in _TECH_FIELDS:
            raise SchemaError(
                f"unknown TechnologyParams field {name!r} in tech_overrides"
            )
        if not isinstance(value, (int, float, bool)):
            raise SchemaError(
                f"tech_overrides[{name!r}] must be a number or bool, got {value!r}"
            )
    return items


class _TechOverrides:
    """``resolved_tech`` for the requests that carry ``tech_overrides``."""

    def resolved_tech(self, base: TechnologyParams | None = None) -> TechnologyParams:
        """The concrete technology after applying the overrides."""
        base = base or default_tech()
        if not self.tech_overrides:
            return base
        return dataclasses.replace(base, **dict(self.tech_overrides))


def spec_to_dict(spec: DeconvSpec) -> dict:
    """A :class:`DeconvSpec` as a flat JSON mapping."""
    return _encoder(DeconvSpec)(spec)


def metrics_to_dict(metrics: DesignMetrics) -> dict:
    """A :class:`DesignMetrics` as nested JSON mappings."""
    return _encoder(DesignMetrics)(metrics)


def _validate_fold(fold) -> None:
    if fold is None or fold == "auto":
        return
    if isinstance(fold, bool) or not isinstance(fold, int) or fold < 1:
        raise SchemaError(f"fold must be a positive int, 'auto' or None, got {fold!r}")


def _check_layer_or_spec(request) -> None:
    if (request.layer is None) == (request.spec is None):
        raise SchemaError(
            "exactly one of 'layer' (a benchmark-layer name) or 'spec' "
            "must be provided"
        )
    if request.spec is not None and not isinstance(request.spec, DeconvSpec):
        raise SchemaError(f"spec must be a DeconvSpec, got {type(request.spec).__name__}")


def _check_positive_ints(obj, *names: str) -> None:
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, int) or isinstance(value, bool) or value < 1:
            raise SchemaError(f"{name} must be a positive int, got {value!r}")


def _tuple_of_str(value, label: str) -> tuple[str, ...]:
    if isinstance(value, str):
        raise SchemaError(f"{label} must be a sequence of names, got the string {value!r}")
    try:
        return tuple(str(v) for v in value)
    except TypeError:
        raise SchemaError(f"{label} must be a sequence of names, got {value!r}") from None


# ----------------------------------------------------------------------
# Evaluation: one layer, N designs
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EvaluationRequest(_TechOverrides, _Payload, kind="evaluation_request"):
    """Evaluate one layer across designs.

    Exactly one of ``layer`` (a Table I benchmark-layer name) or
    ``spec`` must be given.  ``designs`` may use registry aliases; empty
    means "every registered design, in registration order".

    Attributes:
        layer: Table I layer name, or ``None`` when ``spec`` is given.
        spec: explicit layer shape, or ``None`` when ``layer`` is given.
        designs: design names/aliases; ``()`` -> all registered.
        fold: Eq. 2 fold for fold-aware designs (``None`` -> design default).
        tech_overrides: ``TechnologyParams`` field overrides, applied to
            the service's base technology.
        trace: also run the cycle-level engine and return
            :class:`~repro.eval.parallel.CycleStats` per capable design.
        layer_name: label carried into the metrics (defaults to
            ``layer`` or the spec description).
    """

    layer: str | None = None
    spec: DeconvSpec | None = None
    designs: tuple[str, ...] = ()
    fold: int | str | None = None
    tech_overrides: tuple[tuple[str, object], ...] = ()
    trace: bool = False
    layer_name: str = ""
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("EvaluationRequest", self.schema_version)
        _check_layer_or_spec(self)
        _validate_fold(self.fold)
        object.__setattr__(self, "designs", _tuple_of_str(self.designs, "designs"))
        object.__setattr__(
            self, "tech_overrides", _normalize_overrides(self.tech_overrides)
        )


@dataclass(frozen=True)
class EvaluationResult(_Payload, kind="evaluation_result"):
    """Per-design metrics (and optional cycle stats) for one layer.

    Attributes:
        layer: the evaluated layer's label.
        designs: canonical design names, in evaluation order.
        metrics: one :class:`DesignMetrics` per design.
        cycle_stats: cycle-level stats aligned with ``designs`` when the
            request asked for a trace (``None`` per design without a
            cycle engine); empty tuple otherwise.
    """

    layer: str
    designs: tuple[str, ...]
    metrics: tuple[DesignMetrics, ...]
    cycle_stats: tuple[CycleStats | None, ...] = ()
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("EvaluationResult", self.schema_version)
        object.__setattr__(self, "designs", tuple(self.designs))
        object.__setattr__(self, "metrics", tuple(self.metrics))
        object.__setattr__(self, "cycle_stats", tuple(self.cycle_stats))
        if len(self.designs) != len(self.metrics):
            raise SchemaError(
                f"{len(self.designs)} designs but {len(self.metrics)} metrics"
            )
        if self.cycle_stats and len(self.cycle_stats) != len(self.designs):
            raise SchemaError(
                f"{len(self.designs)} designs but {len(self.cycle_stats)} cycle stats"
            )

    def metrics_for(self, design: str) -> DesignMetrics:
        """Metrics for one design name."""
        for name, metrics in zip(self.designs, self.metrics):
            if name == design:
                return metrics
        raise KeyError(f"design {design!r} not in result ({self.designs})")


# ----------------------------------------------------------------------
# Stride sweep
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SweepRequest(_TechOverrides, _Payload, kind="sweep_request"):
    """The Sec. III-C stride-speedup sweep, parameterized.

    Attributes mirror :func:`repro.eval.sweeps.stride_speedup_sweep`.
    """

    strides: tuple[int, ...] = (1, 2, 4, 8)
    input_size: int = 8
    channels: int = 64
    filters: int = 32
    fold: int | str = 1
    tech_overrides: tuple[tuple[str, object], ...] = ()
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("SweepRequest", self.schema_version)
        try:
            strides = tuple(int(s) for s in self.strides)
        except (TypeError, ValueError):
            raise SchemaError(f"strides must be integers, got {self.strides!r}") from None
        if not strides or any(s < 1 for s in strides):
            raise SchemaError(f"strides must be positive and non-empty, got {strides!r}")
        object.__setattr__(self, "strides", strides)
        _validate_fold(self.fold)
        if self.fold is None:
            raise SchemaError("sweep fold must be an int or 'auto', not None")
        _check_positive_ints(self, "input_size", "channels", "filters")
        object.__setattr__(
            self, "tech_overrides", _normalize_overrides(self.tech_overrides)
        )


@dataclass(frozen=True)
class SweepPoint(_Payload):
    """One measured stride of the sweep (mirrors ``StrideSweepPoint``)."""

    stride: int
    modes: int
    cycles_red: int
    cycles_zp: int
    speedup: float


@dataclass(frozen=True)
class ErrorInfo(_Payload, kind="error_info"):
    """A failure, as it travels on the wire.

    The error envelope the serving plane round-trips: enough to
    classify (``error_type``), display (``message``), locate
    (``source`` — a stage, stride or shard label) and react
    (``retryable``, per the taxonomy in :mod:`repro.errors`, plus the
    ``retry_after_s`` backoff hint deterministic load shedding
    attaches — a schema v2 addition, rejected at v1).  Carried
    standalone by the CLI's ``--json`` error boundary and embedded in
    partial results (:attr:`SweepResult.failures`).
    """

    error_type: str
    message: str
    retryable: bool = False
    source: str = ""
    retry_after_s: float | None = field(
        default=None, metadata={"since": 2, "omit_default": True}
    )
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("ErrorInfo", self.schema_version)
        if not isinstance(self.error_type, str) or not self.error_type:
            raise SchemaError(
                f"error_type must be a non-empty string, got {self.error_type!r}"
            )
        if not isinstance(self.message, str):
            raise SchemaError(f"message must be a string, got {self.message!r}")
        if not isinstance(self.retryable, bool):
            raise SchemaError(f"retryable must be a bool, got {self.retryable!r}")
        if not isinstance(self.source, str):
            raise SchemaError(f"source must be a string, got {self.source!r}")
        if self.retry_after_s is not None:
            if (
                not isinstance(self.retry_after_s, (int, float))
                or isinstance(self.retry_after_s, bool)
                or not self.retry_after_s > 0
            ):
                raise SchemaError(
                    f"retry_after_s must be a positive number or None, "
                    f"got {self.retry_after_s!r}"
                )
            if self.schema_version < 2:
                raise SchemaError(
                    "retry_after_s requires schema_version >= 2, "
                    f"got version {self.schema_version}"
                )
            object.__setattr__(self, "retry_after_s", float(self.retry_after_s))

    @classmethod
    def from_exception(cls, exc: BaseException, source: str = "") -> "ErrorInfo":
        """The envelope for a caught exception.

        ``retryable`` comes from the reliability plane's
        transient/permanent split
        (:func:`repro.reliability.policy.is_retryable`), following one
        level of ``__cause__`` so the transient bit survives
        service-tier wrapping (``raise RichError from
        BrokenProcessPool``).  ``retry_after_s`` is lifted off the
        exception when it carries one
        (:class:`~repro.errors.OverloadedError`).
        """
        from repro.reliability.policy import is_retryable

        retry_after_s = getattr(exc, "retry_after_s", None)
        if (
            not isinstance(retry_after_s, (int, float))
            or isinstance(retry_after_s, bool)
            or retry_after_s <= 0
        ):
            retry_after_s = None
        return cls(
            error_type=type(exc).__name__,
            message=str(exc),
            retryable=is_retryable(exc, follow_cause=True),
            source=source,
            retry_after_s=retry_after_s,
        )


@dataclass(frozen=True)
class SweepResult(_Payload, kind="sweep_result"):
    """The measured stride-speedup curve, possibly partial.

    Attributes:
        points: one :class:`SweepPoint` per *successful* stride,
            ascending.
        fitted_exponent: least-squares ``b`` of ``speedup ~ stride^b``,
            or ``None`` when fewer than two strides exceed 1.
        failures: :class:`ErrorInfo` per failed stride (empty on a full
            result, and then absent from the wire).  Partial-result
            semantics: when non-empty, the sweep completed for the
            strides in ``points`` and failed for those named in each
            failure's ``source``.
    """

    points: tuple[SweepPoint, ...]
    fitted_exponent: float | None = None
    failures: tuple[ErrorInfo, ...] = field(
        default=(), metadata={"omit_default": True}
    )
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("SweepResult", self.schema_version)
        object.__setattr__(self, "points", tuple(self.points))
        failures = tuple(self.failures)
        for failure in failures:
            if not isinstance(failure, ErrorInfo):
                raise SchemaError(
                    f"failures must hold ErrorInfo, got {type(failure).__name__}"
                )
        object.__setattr__(self, "failures", failures)


# ----------------------------------------------------------------------
# Whole-network evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class NetworkRequest(_TechOverrides, _Payload, kind="network_request"):
    """Evaluate every deconv layer of a named workload network.

    Attributes:
        network: Table I network name (``DCGAN``, ``Improved GAN``,
            ``SNGAN``, ``voc-fcn8s 2x``, ``voc-fcn8s 8x``).
        designs: design names/aliases; ``()`` -> all registered.
        batch: samples streamed through the inter-layer pipeline.
        input_height / input_width: network input spatial size
            (1 for latent-vector generators).
        seed: RNG seed for the synthesized network weights.  Every
            reported number depends on layer geometry only, so every
            seed gives the same answer; the field stays on the wire for
            v1/v2 compatibility.
    """

    network: str
    designs: tuple[str, ...] = ()
    batch: int = 16
    input_height: int = 1
    input_width: int = 1
    seed: int = 0
    tech_overrides: tuple[tuple[str, object], ...] = ()
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("NetworkRequest", self.schema_version)
        if not isinstance(self.network, str) or not self.network:
            raise SchemaError(f"network must be a non-empty string, got {self.network!r}")
        _check_positive_ints(self, "batch", "input_height", "input_width")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or self.seed < 0:
            raise SchemaError(f"seed must be a non-negative int, got {self.seed!r}")
        object.__setattr__(self, "designs", _tuple_of_str(self.designs, "designs"))
        object.__setattr__(
            self, "tech_overrides", _normalize_overrides(self.tech_overrides)
        )


@dataclass(frozen=True)
class NetworkDesignSummary(_Payload):
    """End-to-end roll-up of one design over a whole network.

    Attributes:
        design: canonical design name.
        total_latency_s / total_energy_j: sequential (non-pipelined)
            totals over all deconv layers.
        speedup / energy_saving: vs. the baseline design.
        fill_latency_s: first-sample latency through the pipeline.
        bottleneck_latency_s: steady-state initiation interval.
        throughput_per_s: pipelined samples per second.
        chip_area_m2: area of a chip provisioned for this design.
    """

    design: str
    total_latency_s: float
    total_energy_j: float
    speedup: float
    energy_saving: float
    fill_latency_s: float
    bottleneck_latency_s: float
    throughput_per_s: float
    chip_area_m2: float


@dataclass(frozen=True)
class NetworkResult(_Payload, kind="network_result"):
    """Whole-network evaluation: per-layer metrics plus design roll-ups.

    Attributes:
        network: the evaluated network's name.
        batch: pipeline batch the summaries assume.
        layers: deconv layer names in execution order.
        designs: canonical design names evaluated.
        layer_results: one :class:`EvaluationResult` per layer.
        summaries: one :class:`NetworkDesignSummary` per design.
    """

    network: str
    batch: int
    layers: tuple[str, ...]
    designs: tuple[str, ...]
    layer_results: tuple[EvaluationResult, ...]
    summaries: tuple[NetworkDesignSummary, ...]
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("NetworkResult", self.schema_version)
        for name in ("layers", "designs", "layer_results", "summaries"):
            object.__setattr__(self, name, tuple(getattr(self, name)))

    def summary_for(self, design: str) -> NetworkDesignSummary:
        """Roll-up for one design name."""
        for summary in self.summaries:
            if summary.design == design:
                return summary
        raise KeyError(f"design {design!r} not in result ({self.designs})")


# ----------------------------------------------------------------------
# Device-fidelity frontier: accuracy vs energy vs drift, per design
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FidelityRequest(_TechOverrides, _Payload, kind="fidelity_request"):
    """Monte-Carlo device-fidelity sweep over one layer.

    Exactly one of ``layer`` or ``spec`` must be given (same contract as
    :class:`EvaluationRequest`).  The scenario knobs mirror
    :class:`~repro.eval.parallel.FidelityJob`: every requested design is
    sampled over the full ``seeds x times`` grid under the same noise
    scenario, and the result pairs each design's fidelity curve with its
    analytic energy so the accuracy-vs-energy-vs-drift frontier can be
    read off directly.

    Attributes:
        layer: Table I layer name, or ``None`` when ``spec`` is given.
        spec: explicit layer shape, or ``None`` when ``layer`` is given.
        designs: design names/aliases; ``()`` -> all registered.
        seeds: Monte-Carlo seeds (non-negative, non-empty).
        times: retention times in seconds (positive, non-empty).
        nu: drift exponent.
        programming_sigma: lognormal write-variation sigma.
        read_noise_sigma: relative read-noise sigma.
        stuck_at_rate: stuck-at fault probability per cell.
        adc_bits: ADC resolution override (``None`` -> lossless sizing).
        max_rows / max_cols: probe-array caps for the derived profiles.
        tech_overrides: ``TechnologyParams`` field overrides.
        layer_name: label carried into the results.
    """

    layer: str | None = None
    spec: DeconvSpec | None = None
    designs: tuple[str, ...] = ()
    seeds: tuple[int, ...] = (0, 1, 2, 3)
    times: tuple[float, ...] = (1.0, 3600.0, 86400.0, 2.6e6, 3.2e7)
    nu: float = 0.02
    programming_sigma: float = 0.05
    read_noise_sigma: float = 0.0
    stuck_at_rate: float = 0.0
    adc_bits: int | None = None
    max_rows: int = 128
    max_cols: int = 128
    tech_overrides: tuple[tuple[str, object], ...] = ()
    layer_name: str = ""
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("FidelityRequest", self.schema_version)
        _check_layer_or_spec(self)
        try:
            seeds = tuple(int(s) for s in self.seeds)
        except (TypeError, ValueError):
            raise SchemaError(f"seeds must be integers, got {self.seeds!r}") from None
        if not seeds or any(s < 0 for s in seeds):
            raise SchemaError(f"seeds must be non-negative and non-empty, got {seeds!r}")
        object.__setattr__(self, "seeds", seeds)
        try:
            times = tuple(float(t) for t in self.times)
        except (TypeError, ValueError):
            raise SchemaError(f"times must be numbers, got {self.times!r}") from None
        if not times or any(t <= 0.0 for t in times):
            raise SchemaError(f"times must be positive and non-empty, got {times!r}")
        object.__setattr__(self, "times", times)
        for name in ("nu", "programming_sigma", "read_noise_sigma"):
            value = getattr(self, name)
            if not isinstance(value, (int, float)) or isinstance(value, bool) or value < 0:
                raise SchemaError(f"{name} must be a non-negative number, got {value!r}")
        rate = self.stuck_at_rate
        if not isinstance(rate, (int, float)) or isinstance(rate, bool) or not 0 <= rate <= 1:
            raise SchemaError(f"stuck_at_rate must be in [0, 1], got {rate!r}")
        if self.adc_bits is not None:
            _check_positive_ints(self, "adc_bits")
        _check_positive_ints(self, "max_rows", "max_cols")
        object.__setattr__(self, "designs", _tuple_of_str(self.designs, "designs"))
        object.__setattr__(
            self, "tech_overrides", _normalize_overrides(self.tech_overrides)
        )


@dataclass(frozen=True)
class FidelityPoint(_Payload):
    """One Monte-Carlo sample of the frontier (mirrors
    :class:`~repro.eval.parallel.FidelityStats`, labels dropped)."""

    design: str
    seed: int
    time_s: float
    rms_error: float
    mean_abs_error: float
    max_abs_error: float
    stuck_fraction: float


@dataclass(frozen=True)
class FidelityResult(_Payload, kind="fidelity_result"):
    """The accuracy-vs-energy-vs-drift frontier for one layer.

    Attributes:
        layer: the evaluated layer's label.
        designs: canonical design names, in evaluation order.
        energy_j: analytic per-layer energy per design (the frontier's
            energy axis, from :class:`~repro.arch.breakdown.DesignMetrics`).
        points: every Monte-Carlo sample, design-major then in the
            request's ``seeds x times`` order.
    """

    layer: str
    designs: tuple[str, ...]
    energy_j: tuple[float, ...]
    points: tuple[FidelityPoint, ...]
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("FidelityResult", self.schema_version)
        object.__setattr__(self, "designs", tuple(self.designs))
        object.__setattr__(self, "energy_j", tuple(float(e) for e in self.energy_j))
        object.__setattr__(self, "points", tuple(self.points))
        if len(self.designs) != len(self.energy_j):
            raise SchemaError(
                f"{len(self.designs)} designs but {len(self.energy_j)} energies"
            )

    def points_for(self, design: str) -> tuple[FidelityPoint, ...]:
        """Every sample of one design, in request order."""
        if design not in self.designs:
            raise KeyError(f"design {design!r} not in result ({self.designs})")
        return tuple(p for p in self.points if p.design == design)

    def energy_for(self, design: str) -> float:
        """The analytic energy axis value of one design."""
        for name, energy in zip(self.designs, self.energy_j):
            if name == design:
                return energy
        raise KeyError(f"design {design!r} not in result ({self.designs})")


# ----------------------------------------------------------------------
# Generic CLI envelope
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CommandPayload(_Payload, kind="command_result"):
    """Envelope for CLI subcommands without a dedicated result type.

    ``data`` must be a JSON-native tree (the CLI builds it that way);
    ``results`` carries structured :class:`EvaluationResult` entries for
    grid-backed commands; ``text`` preserves the rendered table so the
    payload is lossless versus the non-``--json`` output.
    """

    command: str
    data: object = None
    results: tuple[EvaluationResult, ...] = ()
    text: str = ""
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        _check_instance_version("CommandPayload", self.schema_version)
        if not isinstance(self.command, str) or not self.command:
            raise SchemaError(f"command must be a non-empty string, got {self.command!r}")
        object.__setattr__(self, "results", tuple(self.results))


def payload_from_dict(payload):
    """Rebuild any schema object from its ``to_dict`` form.

    Dispatches on the embedded ``"kind"`` discriminator; unknown or
    missing kinds raise :class:`~repro.errors.SchemaError`.
    """
    if not isinstance(payload, dict):
        raise SchemaError(f"api payload must be a mapping, got {type(payload).__name__}")
    kind = payload.get("kind")
    cls = PAYLOAD_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise SchemaError(
            f"unknown payload kind {kind!r}; expected one of {sorted(PAYLOAD_KINDS)}"
        )
    return cls.from_dict(payload)


#: Wire key -> the schema version that introduced it (``since`` metadata).
_SINCE = {
    f.name: f.metadata["since"]
    for cls in _Payload.__subclasses__()
    for f in fields(cls)
    if "since" in f.metadata
}


def _downgrade_tree(node, version: int):
    if isinstance(node, dict):
        rewritten = {
            key: _downgrade_tree(value, version)
            for key, value in node.items()
            if _SINCE.get(key, 1) <= version
        }
        if "schema_version" in rewritten:
            rewritten["schema_version"] = version
        return rewritten
    if isinstance(node, list):
        return [_downgrade_tree(item, version) for item in node]
    return node


def downgrade_payload(wire, version: int) -> dict:
    """Rewrite a ``to_dict`` tree for an older-generation client.

    The serving front door answers a client at the schema version the
    client spoke: this recursively stamps ``schema_version=version`` on
    every nested payload mapping and drops keys that generation cannot
    parse (a field whose ``since`` metadata is newer, such as
    ``retry_after_s`` below version 2), so a strict v1 ``from_dict``
    accepts the result.  The input tree is not mutated.
    """
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        raise SchemaError(
            f"cannot downgrade to schema_version {version!r}; supported "
            f"versions are {sorted(SUPPORTED_SCHEMA_VERSIONS)}"
        )
    if not isinstance(wire, dict):
        raise SchemaError(f"api payload must be a mapping, got {type(wire).__name__}")
    return _downgrade_tree(wire, version)
