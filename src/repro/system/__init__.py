"""Chip- and network-level system modelling.

The paper evaluates isolated layers; real deployments (and the ReGAN
baseline it builds on) map whole networks onto one provisioned chip and
pipeline the layers.  This package adds that level:

* :mod:`repro.system.network_mapper` — walk a workload network, extract
  every deconvolution layer with its activation shape (memoized per
  Table I network by ``named_network_layers``), and evaluate all three
  designs per layer and in aggregate.
* :mod:`repro.system.pipeline` — ReGAN-style inter-layer pipelining:
  throughput set by the slowest stage, latency by the stage sum.
* :mod:`repro.system.chip` — a fixed chip provisioning sized for a set of
  layers; reports per-design chip area and utilization (the accelerator-
  level view under which the paper's "+21.41% for all layers" area claim
  is recovered).
"""

from repro.system.chip import ChipProvision, provision_chip
from repro.system.network_mapper import (
    MappedLayer,
    NetworkEvaluation,
    evaluate_network,
    extract_deconv_layers,
    named_network_layers,
)
from repro.system.pipeline import PipelineReport, pipeline_network, pipeline_network_sweep

__all__ = [
    "MappedLayer",
    "NetworkEvaluation",
    "extract_deconv_layers",
    "named_network_layers",
    "evaluate_network",
    "PipelineReport",
    "pipeline_network",
    "pipeline_network_sweep",
    "ChipProvision",
    "provision_chip",
]
