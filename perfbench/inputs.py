"""Seeded input generation for every workload.

Every input is a pure function of the workload seed: each stream draws
from ``default_rng(SeedSequence(seed, spawn_key=(domain,)))`` with its
own domain, so adding a stream never shifts another.  The program under
test only ever receives the generated inputs (layer grids, wire-form
request dicts or their pre-encoded JSON bodies), never the seed.

:func:`input_bytes` serializes the first inputs of a workload
canonically; the benchmark's own test uses it to check that a seed
regenerates byte-identical inputs and that another seed does not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import count

import numpy as np

from repro.api.schema import EvaluationRequest, FidelityRequest, NetworkRequest, SweepRequest
from repro.arch.tech import TechnologyParams, default_tech
from repro.deconv.shapes import DeconvSpec
from repro.errors import ReproError
from repro.workloads.specs import TABLE_I_LAYERS, BenchmarkLayer

#: The two technology points every workload alternates between.
TECH_OVERRIDES: tuple[dict, ...] = ({}, {"bits_per_cell": 4})

#: Strides of the generated layer shapes (Table I spans 2 and 8).
STRIDES = (1, 2, 4, 8, 16)

#: Layer shapes per ``grid-cold`` call ("a few hundred" per request).
SHAPES_PER_CALL = 256

#: ``grid-*`` calls per pass.  ``grid-cold`` starts each pass on a
#: fresh store, so the store a call publishes into stays small; for
#: ``grid-rerun``, set-up stores one pass worth of ``grid-cold`` calls.
CALLS_PER_PASS = 16

#: ``deep-eval`` network rotation: every Table I network, fixed order,
#: so a whole number of rotations always carries the same mix.
NETWORKS = ("DCGAN", "Improved GAN", "SNGAN", "voc-fcn8s 2x", "voc-fcn8s 8x")

#: ``serve-open``: every other request repeats a body from a hot set
#: that fits the server's 256-entry response cache; the rest are never
#: repeated.
SERVE_HOT_SET = 128

_GRID_DOMAIN = 1
_DEEP_DOMAIN = 2
_SERVE_HOT_DOMAIN = 3
_SERVE_UNIQUE_DOMAIN = 4
_SERVE_MIX_DOMAIN = 5


def _rng(seed: int, domain: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(domain, stream)))


def tech_for(index: int) -> TechnologyParams:
    """The concrete technology of tech point ``index``."""
    return default_tech().with_overrides(**TECH_OVERRIDES[index])


def random_specs(rng: np.random.Generator, n: int, max_size: int = 80) -> list[DeconvSpec]:
    """``n`` GAN-style or FCN-style (``K = 2s``) layer shapes.

    Parameters are drawn as arrays, one candidate per slot; candidates
    that are not a valid deconvolution are dropped and drawn again.
    """
    specs: list[DeconvSpec] = []
    while len(specs) < n:
        m = 2 * (n - len(specs)) + 8
        stride = rng.choice(STRIDES, size=m)
        fcn = rng.random(m) < 0.5
        gan_kernel = rng.integers(0, 5, size=m) + np.maximum(stride, 2)
        kernel = np.where(fcn, np.maximum(2 * stride, 2), gan_kernel)
        channels = np.where(
            fcn, rng.integers(1, 65, size=m), rng.choice((32, 64, 128, 256, 512, 1024), size=m)
        )
        out_channels = np.where(fcn, channels, channels // rng.choice((1, 2, 4), size=m))
        size = np.where(
            fcn, rng.integers(2, max_size + 1, size=m), rng.integers(1, min(max_size, 16) + 1, size=m)
        )
        padding = np.where(fcn, stride // 2, (rng.random(m) * kernel).astype(np.int64))
        output_padding = np.where(fcn, 0, (rng.random(m) * stride).astype(np.int64))
        for row in zip(size, channels, kernel, out_channels, stride, padding, output_padding):
            h, c, k, o, st, p, op = (int(v) for v in row)
            try:
                specs.append(DeconvSpec(
                    input_height=h, input_width=h, in_channels=c,
                    kernel_height=k, kernel_width=k, out_channels=o,
                    stride=st, padding=p, output_padding=op,
                ))
            except ReproError:
                continue
            if len(specs) == n:
                break
    return specs


@dataclass(frozen=True)
class GridCall:
    """One ``RedService.grid`` call: layer shapes at one tech point."""

    layers: tuple[BenchmarkLayer, ...]
    tech_index: int

    @property
    def tech(self) -> TechnologyParams:
        return tech_for(self.tech_index)

    def to_dict(self) -> dict:
        return {
            "tech_index": self.tech_index,
            "layers": [[layer.name, _spec_dict(layer.spec)] for layer in self.layers],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "GridCall":
        return cls(
            layers=tuple(_layer(name, DeconvSpec(**spec)) for name, spec in payload["layers"]),
            tech_index=payload["tech_index"],
        )


def _spec_dict(spec: DeconvSpec) -> dict:
    return {name: getattr(spec, name) for name in spec.__dataclass_fields__}


def _layer(name: str, spec: DeconvSpec) -> BenchmarkLayer:
    return BenchmarkLayer(name=name, network="perfbench", dataset="seeded", spec=spec)


def grid_calls(seed: int):
    """The endless ``grid-cold`` call sequence; no shape ever repeats."""
    rng = _rng(seed, _GRID_DOMAIN)
    # Shapes are remembered as tuples of ints, which the garbage
    # collector stops tracking: a set of ``DeconvSpec`` objects grows
    # with the run and makes every full collection inside the timed
    # calls slower (the rate fell by a quarter within a minute).
    seen: set[tuple[int, ...]] = set()
    for index in count():
        layers: list[BenchmarkLayer] = []
        while len(layers) < SHAPES_PER_CALL:
            for spec in random_specs(rng, SHAPES_PER_CALL - len(layers)):
                key = tuple(_spec_dict(spec).values())
                if key not in seen:
                    seen.add(key)
                    layers.append(_layer(f"c{index}s{len(layers)}", spec))
        yield GridCall(layers=tuple(layers), tech_index=index % len(TECH_OVERRIDES))


def rerun_plan(seed: int) -> tuple[list[GridCall], list[GridCall]]:
    """``(populate, one_pass)`` for ``grid-rerun``.

    ``populate`` are the first ``grid-cold`` calls of the same seed.
    Each splits into two chunks; per tech point the chunks form a ring
    and replayed call ``j`` covers chunks ``j`` and ``j + 1``, so every
    chunk is asked for exactly twice per pass: once from the disk tier
    and once from the memory tier.
    """
    calls = grid_calls(seed)
    populate = [next(calls) for _ in range(CALLS_PER_PASS)]
    half = SHAPES_PER_CALL // 2
    one_pass: list[GridCall] = []
    for tech_index in range(len(TECH_OVERRIDES)):
        chunks = [
            chunk
            for call in populate
            if call.tech_index == tech_index
            for chunk in (call.layers[:half], call.layers[half:])
        ]
        for j, chunk in enumerate(chunks):
            one_pass.append(
                GridCall(layers=chunk + chunks[(j + 1) % len(chunks)], tech_index=tech_index)
            )
    return populate, one_pass


def _small_spec(rng: np.random.Generator) -> DeconvSpec:
    """A layer small enough to cycle-simulate in a few milliseconds."""
    while True:
        if rng.random() < 0.5:
            stride = int(rng.choice((2, 4)))
            channels = int(rng.integers(8, 25))
            spec_args = dict(
                input_height=int(rng.integers(4, 11)), in_channels=channels,
                kernel_height=2 * stride, out_channels=channels,
                stride=stride, padding=stride // 2,
            )
        else:
            channels = int(rng.choice((32, 64, 128)))
            kernel = int(rng.choice((3, 4, 5)))
            spec_args = dict(
                input_height=int(rng.integers(2, 7)), in_channels=channels,
                kernel_height=kernel, out_channels=channels // 2,
                stride=2, padding=int(rng.integers(0, kernel)),
            )
        spec_args["input_width"] = spec_args["input_height"]
        spec_args["kernel_width"] = spec_args["kernel_height"]
        try:
            return DeconvSpec(**spec_args)
        except ReproError:
            continue


def deep_requests(seed: int):
    """The endless ``deep-eval`` sequence of wire-form request dicts.

    Rounds of (fidelity sweep, fidelity sweep, cycle-traced evaluation,
    network); the network rotates through :data:`NETWORKS`, so one
    rotation is :data:`DEEP_ROTATION` requests with a fixed mix.  Every
    request is unique (fresh Monte-Carlo seeds, shapes or weight seeds).
    Fidelity sweeps run on the Table I GAN layers, whose probe arrays
    all fill the 128 x 128 cap, so they cost alike; with two per round
    the median request is one of them, not the boundary between two
    request kinds.
    """
    rng = _rng(seed, _DEEP_DOMAIN)
    seen: set[str] = set()
    gan_layers = [layer.name for layer in TABLE_I_LAYERS if layer.is_gan]
    for index in count():
        tech = TECH_OVERRIDES[int(rng.integers(len(TECH_OVERRIDES)))]
        while True:
            fidelity = [
                FidelityRequest(
                    layer=gan_layers[(2 * index + k) % len(gan_layers)],
                    seeds=tuple(int(s) for s in rng.choice(1 << 20, size=3, replace=False)),
                    times=tuple(sorted(float(t) for t in rng.choice(
                        (1.0, 60.0, 3600.0, 86400.0, 2.6e6, 3.2e7), size=3, replace=False))),
                    tech_overrides=tech,
                ).to_dict()
                for k in range(2)
            ]
            traced = EvaluationRequest(
                spec=_small_spec(rng), trace=True, tech_overrides=tech
            ).to_dict()
            network = NetworkRequest(
                network=NETWORKS[index % len(NETWORKS)],
                batch=int(rng.choice((1, 4, 16))),
                seed=int(rng.integers(1 << 30)),
                tech_overrides=tech,
            ).to_dict()
            round_ = [*fidelity, traced, network]
            keys = {json.dumps(r, sort_keys=True) for r in round_}
            if len(keys) == len(round_) and not seen.intersection(keys):
                seen.update(keys)
                break
        yield from round_


#: Requests per full network rotation of :func:`deep_requests`.
DEEP_ROTATION = 4 * len(NETWORKS)


def _serve_request(rng: np.random.Generator, sweep: bool) -> dict:
    tech = TECH_OVERRIDES[int(rng.integers(len(TECH_OVERRIDES)))]
    if sweep:
        strides = sorted(int(s) for s in rng.choice(STRIDES, size=int(rng.integers(2, 5)), replace=False))
        return SweepRequest(
            strides=tuple(strides),
            input_size=int(rng.integers(2, 17)),
            channels=int(rng.integers(8, 257)),
            filters=int(rng.integers(8, 257)),
            fold=1 if rng.random() < 0.5 else "auto",
            tech_overrides=tech,
        ).to_dict()
    return EvaluationRequest(spec=random_specs(rng, 1)[0], tech_overrides=tech).to_dict()


def encode(wire: dict) -> bytes:
    """A request dict as the exact bytes sent on the wire."""
    return json.dumps(wire).encode("utf-8")


class ServeBodies:
    """Pre-encoded ``serve-open`` request bodies.

    ``schedule(count, stream)`` alternates a body from the fixed hot set
    (a seeded pick) with a body never used before in this run, and
    unique bodies alternate between sweep and evaluation requests, so
    every schedule has the same mix.  ``stream`` separates the main
    phase (0) from each ladder probe (1, 2, ...), so which probes a run
    makes never changes another probe's bodies.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._seen: set[bytes] = set()
        self.hot = self._unique_bodies(_rng(seed, _SERVE_HOT_DOMAIN), SERVE_HOT_SET)

    def _unique_bodies(self, rng: np.random.Generator, n: int) -> list[bytes]:
        bodies: list[bytes] = []
        while len(bodies) < n:
            body = encode(_serve_request(rng, sweep=len(bodies) % 2 == 0))
            if body not in self._seen:
                self._seen.add(body)
                bodies.append(body)
        return bodies

    def schedule(self, n: int, stream: int) -> list[bytes]:
        picks = _rng(self.seed, _SERVE_MIX_DOMAIN, stream).integers(len(self.hot), size=n)
        unique = iter(self._unique_bodies(_rng(self.seed, _SERVE_UNIQUE_DOMAIN, stream), (n + 1) // 2))
        return [self.hot[pick] if i % 2 else next(unique) for i, pick in enumerate(picks)]


def input_bytes(workload: str, seed: int, n: int = 4) -> bytes:
    """Canonical bytes of the first ``n`` inputs of a workload."""
    if workload == "grid-cold":
        calls = grid_calls(seed)
        items = [next(calls).to_dict() for _ in range(n)]
    elif workload == "grid-rerun":
        populate, one_pass = rerun_plan(seed)
        items = [call.to_dict() for call in (populate[:n] + one_pass[:n])]
    elif workload == "deep-eval":
        requests = deep_requests(seed)
        items = [next(requests) for _ in range(n)]
    elif workload == "serve-open":
        bodies = ServeBodies(seed)
        return b"\n".join(bodies.hot[:n] + bodies.schedule(4 * n, 0) + bodies.schedule(4 * n, 1))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return json.dumps(items, sort_keys=True).encode("utf-8")
