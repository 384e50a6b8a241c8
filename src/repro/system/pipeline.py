"""Inter-layer pipelining (the ReGAN execution style).

ReGAN — the pipelined ReRAM GAN accelerator RED compares against — keeps
every layer's weights resident and streams samples through the layer
stages.  In steady state the throughput is set by the slowest stage and
the fill latency by the stage sum; this module applies that model to a
:class:`~repro.system.network_mapper.NetworkEvaluation`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from repro.errors import ParameterError
from repro.eval.store import PackedSweepStore
from repro.system.network_mapper import NetworkEvaluation, evaluate_network
from repro.utils.validation import check_positive_int


@dataclass(frozen=True)
class PipelineReport:
    """Pipelined execution of one design over a network.

    Attributes:
        design: design name.
        stage_latencies: per-layer latency in execution order (seconds).
        fill_latency: first-sample latency (sum of stages).
        bottleneck_latency: steady-state initiation interval (max stage).
        batch: samples streamed.
        batch_latency: fill + (batch - 1) * bottleneck.
        throughput: samples per second in steady state.
        energy_per_sample: joules per sample (pipelining does not change
            energy, only scheduling).
    """

    design: str
    stage_latencies: tuple[float, ...]
    batch: int
    energy_per_sample: float

    @property
    def fill_latency(self) -> float:
        """Latency of the first sample through every stage."""
        return sum(self.stage_latencies)

    @property
    def bottleneck_latency(self) -> float:
        """Steady-state initiation interval."""
        return max(self.stage_latencies)

    @property
    def batch_latency(self) -> float:
        """Total time to stream the batch through the pipeline."""
        return self.fill_latency + (self.batch - 1) * self.bottleneck_latency

    @property
    def throughput(self) -> float:
        """Samples per second in steady state."""
        return 1.0 / self.bottleneck_latency

    @property
    def pipeline_speedup(self) -> float:
        """Batch-level gain over running stages back to back per sample."""
        sequential = self.batch * self.fill_latency
        return sequential / self.batch_latency


def pipeline_network(
    evaluation: NetworkEvaluation, design: str, batch: int = 16
) -> PipelineReport:
    """Build the pipeline report for one design over a mapped network."""
    check_positive_int(batch, "batch")
    if design not in evaluation.metrics:
        raise ParameterError(
            f"design {design!r} not in evaluation ({sorted(evaluation.metrics)})"
        )
    stages = tuple(
        evaluation.metrics[design][layer.name].latency.total
        for layer in evaluation.layers
    )
    energy = evaluation.total_energy(design)
    return PipelineReport(
        design=design,
        stage_latencies=stages,
        batch=batch,
        energy_per_sample=energy,
    )


def pipeline_network_sweep(
    network,
    designs: tuple[str, ...] | None = None,
    batch: int = 16,
    input_height: int = 1,
    input_width: int = 1,
    tech=None,
    cache: PackedSweepStore | str | os.PathLike | None = None,
) -> dict[str, PipelineReport]:
    """Pipeline reports for every design over one network.

    The per-(design, layer) evaluations run through the service's
    single evaluation path (:func:`~repro.eval.parallel.run_design_jobs`,
    optional on-disk ``cache``); the reports themselves
    are cheap roll-ups.  Returns ``{design: PipelineReport}`` in design
    order (default: every registered design).
    """
    from repro.api.registry import available_designs

    designs = designs or available_designs()
    evaluation = evaluate_network(
        network,
        input_height,
        input_width,
        tech=tech,
        designs=designs,
        cache=cache,
    )
    return {
        design: pipeline_network(evaluation, design, batch=batch)
        for design in designs
    }
