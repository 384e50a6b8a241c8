"""Map whole workload networks onto the accelerator designs.

Walks a network module tree, propagates activation shapes, extracts every
:class:`~repro.nn.modules.ConvTranspose2d` with its concrete input size,
and evaluates each accelerator design on each layer — the aggregation the
single-layer Table I rows are sampled from.

The service tier maps a named Table I network through
:func:`named_network_layers`, a per-process memo of the layer geometry.
The memo is sound because everything a network result reports depends
only on each layer's shape (input size, channels, kernel, stride,
padding) — never on the synthetic weights, which only the module tree
holds.  :func:`evaluate_network` on a module tree stays the oracle the
memoized path is property-tested against.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from functools import lru_cache

from repro.api.registry import baseline_design
from repro.arch.breakdown import DesignMetrics
from repro.arch.tech import TechnologyParams, default_tech
from repro.deconv.shapes import DeconvSpec
from repro.errors import ShapeError
from repro.eval.store import PackedSweepStore
from repro.nn.modules import ConvTranspose2d, Module, Sequential
from repro.workloads import networks


@dataclass(frozen=True)
class MappedLayer:
    """One deconvolution layer found in a network.

    Attributes:
        name: dotted module path within the network.
        spec: the resolved shape specification.
    """

    name: str
    spec: DeconvSpec


def _walk(module: Module, prefix: str, height: int, width: int, found: list[MappedLayer]) -> tuple[int, int]:
    """Depth-first walk propagating spatial dims; returns the output size.

    Handles the module types the workload networks use.  Elementwise and
    normalization layers preserve the spatial size; convolutions and
    transposed convolutions transform it.
    """
    from repro.nn.modules import BatchNorm2d, Conv2d, Identity

    if isinstance(module, Sequential):
        for index, layer in enumerate(module.layers):
            height, width = _walk(layer, f"{prefix}{index}.", height, width, found)
        return height, width
    if isinstance(module, ConvTranspose2d):
        spec = module.deconv_spec(height, width)
        found.append(MappedLayer(name=prefix.rstrip("."), spec=spec))
        return spec.output_height, spec.output_width
    if isinstance(module, Conv2d):
        k, s, p = module.kernel_size, module.stride, module.padding
        return ((height + 2 * p - k) // s + 1, (width + 2 * p - k) // s + 1)
    if isinstance(module, (BatchNorm2d, Identity)) or not module._children:
        # Elementwise layers (ReLU/Tanh/...) and leaves preserve size.
        return height, width
    for name, child in module._children.items():
        height, width = _walk(child, f"{prefix}{name}.", height, width, found)
    return height, width


def extract_deconv_layers(network: Module, input_height: int, input_width: int) -> list[MappedLayer]:
    """Find every transposed-convolution layer with its concrete shape.

    Args:
        network: the workload module tree.
        input_height / input_width: spatial size of the network input
            (1 for latent-vector generators).
    """
    found: list[MappedLayer] = []
    _walk(network, "", input_height, input_width, found)
    if not found:
        raise ShapeError("network contains no ConvTranspose2d layers")
    return found


@lru_cache(maxsize=256)
def named_network_layers(
    name: str, input_height: int, input_width: int
) -> tuple[MappedLayer, ...]:
    """The deconv layers of a Table I network, built once per process.

    On a miss the network is built with its default seed and walked by
    :func:`extract_deconv_layers`; the weights are dropped with the
    module tree.  Layer geometry does not depend on the seed, so one
    entry serves every request seed.  The key is the network name and
    input size, so request input cannot grow the memo past ``maxsize``;
    failures (an unknown name raises ``KeyError``) are not cached.
    """
    network = networks.build_network(name)  # module lookup: patched builders apply
    return tuple(extract_deconv_layers(network, input_height, input_width))


@dataclass
class NetworkEvaluation:
    """All designs evaluated over all deconv layers of one network.

    Attributes:
        layers: the mapped layers, in execution order.
        metrics: ``metrics[design][layer_name]`` -> DesignMetrics.
    """

    layers: list[MappedLayer]
    metrics: dict[str, dict[str, DesignMetrics]]
    tech: TechnologyParams = field(default_factory=default_tech)

    def total_latency(self, design: str) -> float:
        """Sequential (non-pipelined) latency over all layers, seconds."""
        return sum(m.latency.total for m in self.metrics[design].values())

    def total_energy(self, design: str) -> float:
        """Total energy over all layers, joules."""
        return sum(m.energy.total for m in self.metrics[design].values())

    def speedup(self, design: str, baseline: str | None = None) -> float:
        """End-to-end latency ratio baseline/design."""
        baseline = baseline or baseline_design()
        return self.total_latency(baseline) / self.total_latency(design)

    def energy_saving(self, design: str, baseline: str | None = None) -> float:
        """End-to-end fractional energy saving vs baseline."""
        baseline = baseline or baseline_design()
        return 1.0 - self.total_energy(design) / self.total_energy(baseline)


def evaluate_network(
    network: Module,
    input_height: int = 1,
    input_width: int = 1,
    tech: TechnologyParams | None = None,
    designs: tuple[str, ...] | None = None,
    cache: PackedSweepStore | str | os.PathLike | None = None,
) -> NetworkEvaluation:
    """Evaluate every design over every deconv layer of a network.

    Delegates to
    :meth:`repro.api.service.RedService.network_evaluation`, the single
    evaluation path: each (design, layer) pair becomes one
    :class:`~repro.eval.parallel.DesignJob` routed through
    :func:`~repro.eval.parallel.run_design_jobs`.  ``designs=None``
    evaluates every registered design; a ``cache`` directory path
    constructs the batched :class:`~repro.eval.store.PackedSweepStore`.
    """
    from repro.api.service import RedService

    return RedService(cache=cache).network_evaluation(
        network, input_height, input_width, tech=tech, designs=designs
    )
