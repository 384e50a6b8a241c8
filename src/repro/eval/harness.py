"""The design x layer evaluation grid.

Runs every accelerator design over every Table I layer through the
analytical model and caches the :class:`DesignMetrics`, which the figure
generators then slice.  Normalization follows the paper: all results are
reported relative to the zero-padding design.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.api.registry import available_designs, baseline_design
from repro.api.registry import build_design as _registry_build_design
from repro.arch.breakdown import DesignMetrics
from repro.arch.tech import TechnologyParams, default_tech
from repro.designs.base import DeconvDesign
from repro.eval.store import PackedSweepStore
from repro.workloads.specs import BenchmarkLayer

#: Presentation order used in every figure (baseline first).  A snapshot
#: of :func:`repro.api.registry.available_designs` at import time, kept
#: for backwards compatibility — call ``available_designs()`` directly
#: to observe designs registered after import.
DESIGN_ORDER: tuple[str, ...] = available_designs()


def build_design(
    name: str, layer: BenchmarkLayer, tech: TechnologyParams | None = None
) -> DeconvDesign:
    """Instantiate a registered design for a benchmark layer.

    Thin wrapper over :func:`repro.api.registry.build_design`, the
    single name-to-design dispatch.
    """
    return _registry_build_design(name, layer.spec, tech)


@dataclass
class EvaluationGrid:
    """All metrics for the design x layer grid.

    Attributes:
        metrics: ``metrics[layer_name][design_name]`` -> DesignMetrics.
        layers: the evaluated benchmark layers in order.
    """

    metrics: dict[str, dict[str, DesignMetrics]]
    layers: tuple[BenchmarkLayer, ...]
    tech: TechnologyParams = field(default_factory=default_tech)

    def get(self, layer: str, design: str) -> DesignMetrics:
        """Metrics for one (layer, design) pair."""
        return self.metrics[layer][design]

    def baseline(self, layer: str) -> DesignMetrics:
        """The baseline-design metrics the paper normalizes against."""
        return self.metrics[layer][baseline_design()]

    def speedup(self, layer: str, design: str) -> float:
        """Latency speedup of ``design`` over zero-padding."""
        return self.get(layer, design).speedup_over(self.baseline(layer))

    def energy_saving(self, layer: str, design: str) -> float:
        """Fractional energy saving of ``design`` vs zero-padding."""
        return self.get(layer, design).energy_saving_over(self.baseline(layer))

    def area_ratio(self, layer: str, design: str) -> float:
        """Total-area ratio of ``design`` vs zero-padding."""
        return self.get(layer, design).area.total / self.baseline(layer).area.total


def run_grid(
    layers: tuple[BenchmarkLayer, ...] | None = None,
    tech: TechnologyParams | None = None,
    cache: PackedSweepStore | str | os.PathLike | None = None,
) -> EvaluationGrid:
    """Evaluate all registered designs over ``layers`` (default: Table I).

    Delegates to :meth:`repro.api.service.RedService.grid`, the single
    evaluation path: the grid is flattened into
    :class:`~repro.eval.parallel.DesignJob` entries and routed through
    :func:`~repro.eval.parallel.run_design_jobs`, and ``cache`` persists
    it across runs (a directory path constructs the batched
    :class:`~repro.eval.store.PackedSweepStore`).
    """
    from repro.api.service import RedService

    return RedService(cache=cache).grid(layers=layers, tech=tech)
