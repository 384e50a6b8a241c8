"""Typed service-layer API: registry, versioned schema, service facade.

Module map (the request -> service -> engine flow)
--------------------------------------------------
* :mod:`repro.api.registry` — **who can be evaluated.**  The design
  registry: ``@register_design("name", aliases=...)`` declares an
  accelerator design; ``available_designs()`` is the canonical
  presentation order (baseline first) every figure, table and default
  request uses.  This is the only name-to-design dispatch in the
  library.
* :mod:`repro.api.schema` — **what crosses the boundary.**  Frozen,
  ``schema_version``-tagged request/response dataclasses
  (:class:`~repro.api.schema.EvaluationRequest` /
  :class:`~repro.api.schema.EvaluationResult`,
  :class:`~repro.api.schema.SweepRequest` /
  :class:`~repro.api.schema.SweepResult`,
  :class:`~repro.api.schema.NetworkRequest` /
  :class:`~repro.api.schema.NetworkResult`) with strict
  ``to_dict``/``from_dict`` round-tripping.
* :mod:`repro.api.service` — **how it runs.**
  :class:`~repro.api.service.RedService` fronts the batch/cache
  substrate: requests are flattened into
  :class:`~repro.eval.parallel.DesignJob` lists and executed by
  :func:`~repro.eval.parallel.run_design_jobs` (vectorized plane +
  on-disk :class:`~repro.eval.store.PackedSweepStore`); ``trace=True`` adds
  cycle-level :class:`~repro.eval.parallel.CycleStats` via the
  :class:`~repro.sim.batch.BatchEngine`, persisted in the same cache.
  ``submit()``/``gather()`` run any request on a service thread pool.

Every pre-API entry point (`repro.eval.harness.run_grid`,
`repro.eval.sweeps.stride_speedup_sweep`,
`repro.system.network_mapper.evaluate_network`, the ``repro`` CLI)
delegates here, so there is exactly one evaluation path.

Registering a fourth design
---------------------------
::

    from repro.api import register_design
    from repro.designs.base import DeconvDesign

    @register_design("my-design", aliases=("mine",), accepts_fold=False)
    class MyDesign(DeconvDesign):
        name = "my-design"
        ...  # run_functional / run_quantized / perf_input

    # It now appears in available_designs(), every default request,
    # `repro report --json`, and the sweep cache keyspace.

Attributes are imported lazily (PEP 562) so that leaf modules —
including serving shard processes importing :mod:`repro.api.registry` —
never drag in the whole evaluation stack.
"""

from __future__ import annotations

_REGISTRY_EXPORTS = {
    "DesignEntry", "available_designs", "baseline_design", "build_design",
    "design_entries", "get_design", "register_design", "resolve_design",
    "unregister_design",
}
_SCHEMA_EXPORTS = {
    "SCHEMA_VERSION", "CommandPayload", "ErrorInfo", "EvaluationRequest",
    "EvaluationResult", "FidelityPoint", "FidelityRequest", "FidelityResult",
    "NetworkDesignSummary", "NetworkRequest", "NetworkResult", "SweepPoint",
    "SweepRequest", "SweepResult", "payload_from_dict",
}
_SERVICE_EXPORTS = {"RedService"}

__all__ = sorted(_REGISTRY_EXPORTS | _SCHEMA_EXPORTS | _SERVICE_EXPORTS)


def __getattr__(name: str):
    if name in _REGISTRY_EXPORTS:
        from repro.api import registry as module
    elif name in _SCHEMA_EXPORTS:
        from repro.api import schema as module
    elif name in _SERVICE_EXPORTS:
        from repro.api import service as module
    else:
        raise AttributeError(f"module 'repro.api' has no attribute {name!r}")
    return getattr(module, name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
