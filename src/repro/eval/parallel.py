"""One batch pipeline for every evaluation the repo runs, plus its keys.

Architecture
------------
Every sweep in the repo — the stride sweep (:mod:`repro.eval.sweeps`),
the design x layer grid (:mod:`repro.eval.harness`), whole-network
evaluation (:mod:`repro.system.network_mapper` /
:mod:`repro.system.pipeline`), traced layers and device-fidelity
sweeps — reduces to a flat list of independent jobs.  This module is
the single execution substrate for those lists:

1. Jobs.  :class:`DesignJob` is one *(design, spec, tech, fold)*
   evaluation; ``fold=None`` means "the design's own default" (RED
   resolves it to ``'auto'``), the other designs ignore the field.
   :class:`FidelityJob` is one Monte-Carlo device-fidelity draw.  The
   ``layer_name`` of either is a label, never an input.
2. Keys.  :func:`job_key` / :func:`fidelity_job_key` are SHA-256 digests
   over the canonical field-by-field representation of the job plus a
   schema version and a payload *kind*.  Changing *any* field of the
   spec or of :class:`~repro.arch.tech.TechnologyParams` changes the
   key, so stale results can never be served after a calibration tweak
   (``tests/eval/test_sweep_cache.py``).  :func:`job_keys` /
   :func:`fidelity_job_keys` key a whole work list in one pass through
   one shared builder: spec segments are built struct-of-arrays from
   :class:`~repro.deconv.shapes.SpecArrays`, technology segments are
   memoized by identity and value, and only the concatenated bytes are
   hashed per job.  Both are property-tested equal to their scalar
   forms (``tests/eval/test_store.py``).
3. The store.  :class:`~repro.eval.store.PackedSweepStore` speaks
   ``get_many(keys, kind)`` / ``put_many(entries, kind)`` and holds
   three kinds side by side: ``"metrics"`` (analytic
   :class:`DesignMetrics`), ``"cycles"`` (:class:`CycleStats` from the
   cycle-level :class:`~repro.sim.batch.BatchEngine`) and
   ``"fidelity"`` (:class:`FidelityStats`).
4. The pipeline.  ``_run_pipeline`` drives every kind through the same
   steps, parameterized by a small per-kind ``_KindSpec`` (store kind,
   key function, grouping token, batch evaluator):

   * probe — one batched key pass and one ``get_many`` (store-backed
     calls only; hits are relabelled to the requesting job);
   * dedupe — misses are grouped by their store key, or, without a
     store, by an in-memory value token that induces the same
     partition without hashing;
   * evaluate — one batch call over the unique misses;
   * publish — one ``put_many``;
   * fan-out — every job gets its group's result, relabelled.

   The store is touched at most twice per call, never per job, and
   results come back in job order, byte-identical whatever the store
   temperature (``tests/properties/test_parallel_determinism.py``).
5. Entry points.  :func:`run_design_jobs` evaluates misses through the
   vectorized analytic plane (:mod:`repro.eval.vectorized`); designs
   without a registered ``perf_batch`` hook run inline through
   :func:`evaluate_design_job`, which stays the scalar bit-identity
   oracle.  :func:`run_cycle_jobs` runs trace-capable jobs through one
   fused :class:`~repro.sim.batch.BatchEngine` batch, and
   :func:`run_fidelity_jobs` samples one
   :func:`~repro.reram.batch.sample_fidelity_grid` call per
   (design, spec, tech, scenario) group.

Design names are resolved through :mod:`repro.api.registry` — this
module contains no hard-coded design dispatch.  Collaborators
(:func:`job_keys`, the vectorized plane, the batch engine, the fidelity
sampler) are looked up at call time, so wrapping the module attributes
instruments every call.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.api.registry import get_design, resolve_design
from repro.api.registry import build_design as _registry_build_design
from repro.arch.breakdown import DesignMetrics
from repro.arch.tech import TechnologyParams
from repro.deconv.shapes import DeconvSpec, SpecArrays
from repro.designs.base import DeconvDesign
from repro.reliability.policy import Deadline, RetryPolicy

if TYPE_CHECKING:  # pragma: no cover - typing only (import cycle guard)
    from repro.eval.store import PackedSweepStore

#: Bump when the cached payload or key layout changes shape.
#: 3: packed segment/index store became the default on-disk layout.
#: 4: device-fidelity plane joined the cache (``kind="fidelity"``).
CACHE_SCHEMA_VERSION = 4

#: Cache namespaces: analytic metrics, cycle-level measurements, and
#: Monte-Carlo device-fidelity samples.
METRICS_KIND = "metrics"
CYCLES_KIND = "cycles"
FIDELITY_KIND = "fidelity"


@dataclass(frozen=True)
class DesignJob:
    """One (design, layer, technology) evaluation request.

    Attributes:
        design: a design name or alias registered in
            :mod:`repro.api.registry` (see ``available_designs()``).
        spec: the layer shape.
        tech: the concrete technology instance (no ``None`` default here —
            cache keys must be explicit).
        fold: the Eq. 2 fold, ``'auto'``, or ``None`` for the design
            default; ignored by designs without the fold parameter.
        layer_name: label carried into the resulting metrics (not part of
            the cache key — identical shapes share one cached result).
    """

    design: str
    spec: DeconvSpec
    tech: TechnologyParams
    fold: int | str | None = None
    layer_name: str = ""


class TechTokens:
    """Small-int value tokens for technology instances.

    ``hash(TechnologyParams)`` walks 30 float fields, so grouping loops
    never use the instance as a dict key directly: :meth:`token` memoizes
    the value lookup by object identity, making the common one-tech
    sweep pay a single tech hash instead of one per job.  Value-equal
    instances share a token even when they are distinct objects.
    """

    __slots__ = ("_by_id", "_by_value")

    def __init__(self) -> None:
        self._by_id: dict[int, int] = {}
        self._by_value: dict[TechnologyParams, int] = {}

    def token(self, tech: TechnologyParams) -> int:
        token = self._by_id.get(id(tech))
        if token is None:
            token = self._by_value.setdefault(tech, len(self._by_value))
            self._by_id[id(tech)] = token
        return token


def _canonical_fold(job: DesignJob) -> int | str | None:
    """Fold as it actually affects the evaluation.

    Designs without the fold parameter (per their registry entry) ignore
    the field entirely (canonical ``None``); for fold-aware designs,
    ``None`` is an alias of ``'auto'``.  Canonicalizing before hashing
    lets semantically identical jobs share a cache entry.
    """
    if not get_design(job.design).accepts_fold:
        return None
    return "auto" if job.fold is None else job.fold


@dataclass(frozen=True)
class CycleStats:
    """Cycle-level measurement of one job, as the store persists it.

    The counters come from the :class:`~repro.sim.engine.CycleEngine`
    run the :class:`~repro.sim.batch.BatchEngine` performs; the output
    tensor itself is deliberately not stored (it is operand-dependent
    and large — the cache holds the schedule-level observables).  The
    store's record codec (:mod:`repro.eval.store`) is compiled from
    these fields, so each must hold exactly its annotated type: plain
    ``str``, ``int`` within int64, and a tuple of ``(str, int)`` tuples.

    Attributes:
        design: canonical design name.
        layer: label of the requesting job (relabelled on cache hits,
            exactly like :class:`DesignMetrics`).
        fold: the concrete resolved fold the schedule ran with.
        cycles: compute rounds executed.
        counters: sorted ``(name, value)`` activity-counter pairs.
    """

    design: str
    layer: str
    fold: int
    cycles: int
    counters: tuple[tuple[str, int], ...]

    def counters_dict(self) -> dict[str, int]:
        """The activity counters as a plain mapping."""
        return dict(self.counters)


@dataclass(frozen=True)
class FidelityStats:
    """One Monte-Carlo device-fidelity sample, as the store persists it.

    Produced by the batched sampler (:mod:`repro.reram.batch`): the
    arithmetic error of one design's representative crossbar read under
    programming variation, stuck-at faults, retention drift at
    ``time_s`` and ADC quantization, relative to the exact integer
    column sums.  Error metrics are normalized by the mean absolute
    exact sum, so they are comparable across designs and shapes.

    Attributes:
        design: canonical design name.
        layer: label of the requesting job (relabelled on cache hits,
            exactly like :class:`DesignMetrics`).
        seed: Monte-Carlo seed of this sample.
        time_s: retention time the array was read at, seconds.
        rms_error: relative RMS readout error.
        mean_abs_error: relative mean absolute readout error.
        max_abs_error: relative worst-column readout error.
        stuck_fraction: fraction of cells the fault pattern pinned.

    The store's record codec (:mod:`repro.eval.store`) is compiled from
    these fields, so each must hold exactly its annotated type: plain
    ``str``, ``int`` within int64 and ``float`` (an ``int`` or ``bool``
    in a ``float`` field is rejected, not coerced).
    """

    design: str
    layer: str
    seed: int
    time_s: float
    rms_error: float
    mean_abs_error: float
    max_abs_error: float
    stuck_fraction: float


@dataclass(frozen=True)
class FidelityJob:
    """One (design, layer, technology, scenario, seed, time) fidelity draw.

    The scenario knobs mirror the :class:`~repro.reram.noise.NoiseModel`
    and :class:`~repro.reram.drift.DriftModel` parameters; ``adc_bits``
    (``None`` = lossless) and the ``max_rows``/``max_cols`` caps shape
    the representative crossbar the design's fidelity profile derives.
    ``layer_name`` is a label, not a cache-key input, exactly like
    :class:`DesignJob`.
    """

    design: str
    spec: DeconvSpec
    tech: TechnologyParams
    seed: int = 0
    time_s: float = 1.0
    nu: float = 0.02
    programming_sigma: float = 0.05
    read_noise_sigma: float = 0.0
    stuck_at_rate: float = 0.0
    adc_bits: int | None = None
    max_rows: int = 128
    max_cols: int = 128
    layer_name: str = ""


#: FidelityJob fields that parameterize the sample (cache-key inputs,
#: in key order; ``layer_name`` is deliberately absent).
_FIDELITY_SCENARIO_FIELDS = (
    "seed",
    "time_s",
    "nu",
    "programming_sigma",
    "read_noise_sigma",
    "stuck_at_rate",
    "adc_bits",
    "max_rows",
    "max_cols",
)


def _walk(obj) -> str:
    """``TypeName|field=value|...``: the key segment of a frozen dataclass."""
    return "|".join(
        (type(obj).__name__, *(f"{f.name}={getattr(obj, f.name)!r}" for f in fields(obj)))
    )


def job_key(job: DesignJob, kind: str = METRICS_KIND) -> str:
    """Stable content hash of ``(kind, design, fold, spec, tech)``.

    Field-by-field over the frozen dataclasses so any change to any
    parameter — including a single calibration constant — produces a new
    key.  Deliberately independent of ``layer_name`` (a label, not an
    input) and of process/interpreter state; ``fold`` is canonicalized
    via :func:`_canonical_fold` and the design name via
    :func:`repro.api.registry.resolve_design`, so aliases share entries.
    """
    parts = (
        f"schema={CACHE_SCHEMA_VERSION}",
        f"kind={kind}",
        f"design={resolve_design(job.design)}",
        f"fold={_canonical_fold(job)!r}",
        _walk(job.spec),
        _walk(job.tech),
    )
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


def _spec_key_segments(specs: Sequence[DeconvSpec]) -> list[str]:
    """Per-spec key segments, built struct-of-arrays in one pass.

    Equivalent to :func:`_walk` per spec (plus the joining ``|``), but
    columnar: the unique specs are packed into a
    :class:`~repro.deconv.shapes.SpecArrays` once and each segment is a
    single ``%``-format over the row.  (``repr(int) == '%d' % int``, and
    every :class:`DeconvSpec` field is a validated Python int.)
    """
    if not specs:
        return []
    names = [f.name for f in fields(DeconvSpec)]
    template = "|".join(f"{name}=%d" for name in names)
    exact = [index for index, spec in enumerate(specs) if type(spec) is DeconvSpec]
    segments: list[str] = [""] * len(specs)
    if exact:
        arrays = SpecArrays.from_specs([specs[index] for index in exact])
        columns = [getattr(arrays, name).tolist() for name in names]
        for index, row in zip(exact, zip(*columns)):
            segments[index] = f"DeconvSpec|{template % row}|"
    for index, spec in enumerate(specs):
        if type(spec) is not DeconvSpec:  # subclass: fall back to the walk
            segments[index] = f"{_walk(spec)}|"
    return segments


def _hashed_keys(heads: Sequence[str], jobs: Sequence) -> list[str]:
    """``sha256(head + spec segment + tech segment)`` per job.

    The builder both batched key functions share.  A work list has
    thousands of jobs over a handful of specs shapes and technology
    instances, so each unique spec is walked once (struct-of-arrays via
    :func:`_spec_key_segments`) and each technology's 30-field segment
    once, memoized by identity and then by value.
    """
    spec_by_id: dict[int, int] = {}
    spec_slots: dict[DeconvSpec, int] = {}
    unique_specs: list[DeconvSpec] = []
    tech_by_id: dict[int, str] = {}
    tech_by_value: dict[TechnologyParams, str] = {}
    slots: list[int] = []
    tech_segments: list[str] = []
    for job in jobs:
        spec = job.spec
        slot = spec_by_id.get(id(spec))
        if slot is None:
            slot = spec_slots.get(spec)
            if slot is None:
                slot = spec_slots[spec] = len(unique_specs)
                unique_specs.append(spec)
            spec_by_id[id(spec)] = slot
        slots.append(slot)

        tech = job.tech
        segment = tech_by_id.get(id(tech))
        if segment is None:
            segment = tech_by_value.get(tech)
            if segment is None:
                segment = tech_by_value[tech] = _walk(tech)
            tech_by_id[id(tech)] = segment
        tech_segments.append(segment)
    spec_segments = _spec_key_segments(unique_specs)
    sha256 = hashlib.sha256
    return [
        sha256((head + spec_segments[slot] + tech).encode("utf-8")).hexdigest()
        for head, slot, tech in zip(heads, slots, tech_segments)
    ]


def job_keys(
    jobs: Sequence[DesignJob], kind: str = METRICS_KIND
) -> list[str]:
    """All cache keys of a work list in one batched pass.

    Bit-for-bit equal to ``[job_key(job, kind) for job in jobs]``
    (property-tested in ``tests/eval/test_store.py``) but engineered for
    the warm hot path: the ``schema|kind|design|fold`` head is memoized
    per (design, fold) and the spec and technology segments come from
    :func:`_hashed_keys`, so the per-job work reduces to one string
    concatenation plus one SHA-256 over the final bytes.
    """
    prefix = f"schema={CACHE_SCHEMA_VERSION}|kind={kind}|design="
    design_info: dict[str, tuple[str, bool]] = {}
    head_memo: dict[tuple[str, type, object], str] = {}
    heads: list[str] = []
    for job in jobs:
        info = design_info.get(job.design)
        if info is None:
            entry = get_design(job.design)
            info = design_info[job.design] = (entry.name, entry.accepts_fold)
        canonical, accepts_fold = info
        fold = (
            ("auto" if job.fold is None else job.fold) if accepts_fold else None
        )
        # The fold's type rides in the memo key so value-equal-but-
        # distinct folds (2 vs 2.0) keep the distinct reprs job_key has.
        head_token = (canonical, fold.__class__, fold)
        head = head_memo.get(head_token)
        if head is None:
            head = head_memo[head_token] = f"{prefix}{canonical}|fold={fold!r}|"
        heads.append(head)
    return _hashed_keys(heads, jobs)


def fidelity_job_key(job: FidelityJob, kind: str = FIDELITY_KIND) -> str:
    """Stable content hash of a fidelity job (labels excluded).

    Field-by-field like :func:`job_key`: the design name is
    canonicalized, every scenario knob, the spec and the technology ride
    in the hash, and ``layer_name`` does not — identical samples share
    one cached :class:`FidelityStats`.
    """
    parts = (
        f"schema={CACHE_SCHEMA_VERSION}",
        f"kind={kind}",
        f"design={resolve_design(job.design)}",
        *(f"{name}={getattr(job, name)!r}" for name in _FIDELITY_SCENARIO_FIELDS),
        _walk(job.spec),
        _walk(job.tech),
    )
    return hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()


def fidelity_job_keys(
    jobs: Sequence[FidelityJob], kind: str = FIDELITY_KIND
) -> list[str]:
    """All fidelity cache keys in one batched pass.

    Bit-for-bit equal to ``[fidelity_job_key(job, kind) for job in jobs]``
    (property-tested in ``tests/eval/test_store.py``); the design
    resolution is memoized and the spec and technology segments come
    from :func:`_hashed_keys`, exactly like :func:`job_keys`.
    """
    prefix = f"schema={CACHE_SCHEMA_VERSION}|kind={kind}|design="
    canonical: dict[str, str] = {}
    heads: list[str] = []
    for job in jobs:
        name = canonical.get(job.design)
        if name is None:
            name = canonical[job.design] = resolve_design(job.design)
        scenario = "|".join(
            f"{field_name}={getattr(job, field_name)!r}"
            for field_name in _FIDELITY_SCENARIO_FIELDS
        )
        heads.append(f"{prefix}{name}|{scenario}|")
    return _hashed_keys(heads, jobs)


def build_design_for_job(job: DesignJob) -> DeconvDesign:
    """Instantiate the accelerator design a job describes.

    Thin wrapper over :func:`repro.api.registry.build_design`, the single
    name-to-design dispatch.
    """
    return _registry_build_design(job.design, job.spec, job.tech, fold=job.fold)


def evaluate_design_job(job: DesignJob) -> DesignMetrics:
    """The scalar oracle: evaluate one job's analytical model."""
    return build_design_for_job(job).evaluate(job.layer_name)


#: Policy the runners retry transient failures with when the caller
#: passes none.  Small real backoff in production; tests inject a
#: no-sleep policy (``repro.reliability.policy.no_sleep``).
DEFAULT_RETRY_POLICY = RetryPolicy()

#: Payload class expected under each cache kind.
_KIND_PAYLOADS: dict[str, type] = {
    METRICS_KIND: DesignMetrics,
    CYCLES_KIND: CycleStats,
    FIDELITY_KIND: FidelityStats,
}


def relabelled(value, layer_name: str):
    """``value`` carrying ``layer_name``, skipping the no-op replace.

    Cache hits whose stored label already equals the requesting job's
    label are returned as-is — ``dataclasses.replace`` re-runs the
    frozen dataclass constructor and is pure overhead on the warm path.
    """
    if value.layer == layer_name:
        return value
    return replace(value, layer=layer_name)


def _coerce_cache(cache: "PackedSweepStore | str | os.PathLike | None"):
    """Any accepted ``cache`` argument as a batch-protocol store.

    ``None`` and ready-made stores (anything speaking
    ``get_many``/``put_many`` — :class:`~repro.eval.store.PackedSweepStore`
    or a test double) pass through; a directory path constructs the
    packed store.
    """
    if cache is None or hasattr(cache, "get_many"):
        return cache
    from repro.eval.store import PackedSweepStore

    return PackedSweepStore(os.path.expanduser(os.fspath(cache)))


# ----------------------------------------------------------------------
# The pipeline and its per-kind specs
# ----------------------------------------------------------------------
def _design_tokens(jobs: Sequence[DesignJob]) -> list[tuple]:
    """In-memory grouping tokens with the partition :func:`job_keys` has.

    Registry lookups are memoized per design string and technologies
    become small ints (:class:`TechTokens`); the fold carries its type
    so value-equal-but-distinct folds (2 vs 2.0) stay apart exactly
    like job_key's repr keeps them — an invalid fold must reach its own
    evaluation and raise rather than borrow a valid twin's result.
    """
    tech_tokens = TechTokens()
    design_info: dict[str, tuple[str, bool]] = {}
    tokens = []
    for job in jobs:
        info = design_info.get(job.design)
        if info is None:
            entry = get_design(job.design)
            info = design_info[job.design] = (entry.name, entry.accepts_fold)
        canonical, accepts_fold = info
        fold = ("auto" if job.fold is None else job.fold) if accepts_fold else None
        tokens.append(
            (canonical, fold.__class__, fold, job.spec, tech_tokens.token(job.tech))
        )
    return tokens


def _fidelity_tokens(jobs: Sequence[FidelityJob]) -> list[tuple]:
    """``(design, spec, tech, scenario..., seed, time_s)`` value tokens.

    Everything but the trailing ``(seed, time_s)`` pair names the
    scenario group one profile derivation and one sampler call serve.
    """
    tech_tokens = TechTokens()
    canonical: dict[str, str] = {}
    tokens = []
    for job in jobs:
        name = canonical.get(job.design)
        if name is None:
            name = canonical[job.design] = resolve_design(job.design)
        tokens.append(
            (
                name,
                job.spec,
                tech_tokens.token(job.tech),
                job.nu,
                job.programming_sigma,
                job.read_noise_sigma,
                job.stuck_at_rate,
                job.adc_bits,
                job.max_rows,
                job.max_cols,
                job.seed,
                job.time_s,
            )
        )
    return tokens


def _evaluate_metrics(jobs: list[DesignJob], deadline: Deadline) -> list:
    """Unique analytic misses: the vectorized plane, else inline scalar."""
    batchable = {
        name: get_design(name).perf_batch is not None
        for name in {job.design for job in jobs}
    }
    computed: list = [None] * len(jobs)
    positions = [p for p, job in enumerate(jobs) if batchable[job.design]]
    if positions:
        from repro.eval.vectorized import evaluate_design_jobs_batch

        deadline.check("run_design_jobs (vectorized batch)")
        batched = evaluate_design_jobs_batch([jobs[p] for p in positions])
        for position, metrics in zip(positions, batched):
            computed[position] = metrics
    for position, job in enumerate(jobs):
        if computed[position] is None:
            deadline.check("run_design_jobs (scalar inline)")
            computed[position] = evaluate_design_job(job)
    return computed


def _evaluate_cycles(
    jobs: list[DesignJob], deadline: Deadline, *, max_sub_crossbars: int
) -> list[CycleStats]:
    """Unique trace misses as one fused :class:`BatchEngine` batch."""
    from repro.sim.batch import BatchEngine, BatchJob

    engine = BatchEngine(max_sub_crossbars=max_sub_crossbars)
    deadline.check("run_cycle_jobs (batch engine)")
    batch = engine.run(
        [
            BatchJob(
                spec=job.spec,
                fold="auto" if job.fold is None else job.fold,
                label=job.layer_name,
            )
            for job in jobs
        ]
    )
    return [
        CycleStats(
            design=resolve_design(job.design),
            layer=job.layer_name,
            fold=job_result.fold,
            cycles=job_result.cycles,
            counters=tuple(sorted(job_result.counters.items())),
        )
        for job, job_result in zip(jobs, batch.results)
    ]


def _evaluate_fidelity(jobs: list[FidelityJob], deadline: Deadline) -> list:
    """Unique fidelity misses, one sampler call per scenario group.

    Value-equal points inside a group (``time_s=1`` vs ``1.0`` — distinct
    keys, one draw) compute once.
    """
    from repro.reram.batch import profile_for_design, sample_fidelity_grid

    groups: dict[tuple, dict[tuple, list[int]]] = {}
    for position, token in enumerate(_fidelity_tokens(jobs)):
        groups.setdefault(token[:-2], {}).setdefault(token[-2:], []).append(position)
    computed: list = [None] * len(jobs)
    for points in groups.values():
        deadline.check("run_fidelity_jobs (scenario group)")
        first = jobs[next(iter(points.values()))[0]]
        profile = profile_for_design(
            first.design,
            first.spec,
            first.tech,
            adc_bits=first.adc_bits,
            max_rows=first.max_rows,
            max_cols=first.max_cols,
        )
        stats = sample_fidelity_grid(
            profile,
            list(points),
            nu=first.nu,
            programming_sigma=first.programming_sigma,
            read_noise_sigma=first.read_noise_sigma,
            stuck_at_rate=first.stuck_at_rate,
        )
        for positions, stat in zip(points.values(), stats):
            for position in positions:
                computed[position] = stat
    return computed


@dataclass(frozen=True)
class _KindSpec:
    """What the pipeline needs to know about one result kind.

    ``keys`` and ``tokens`` map a work list to its store keys and to
    in-memory grouping tokens (the same partition); ``evaluate`` maps
    the unique misses to payloads, in order.
    """

    kind: str
    keys: Callable[[list], list[str]]
    tokens: Callable[[list], list]
    evaluate: Callable[..., list]


# The key functions are wrapped, not stored, so the module attributes
# are looked up at call time (instrumentation that wraps them sees every
# call).
_METRICS = _KindSpec(
    METRICS_KIND, lambda jobs: job_keys(jobs), _design_tokens, _evaluate_metrics
)
_CYCLES = _KindSpec(
    CYCLES_KIND,
    lambda jobs: job_keys(jobs, CYCLES_KIND),
    _design_tokens,
    _evaluate_cycles,
)
_FIDELITY = _KindSpec(
    FIDELITY_KIND,
    lambda jobs: fidelity_job_keys(jobs),
    _fidelity_tokens,
    _evaluate_fidelity,
)


def _run_pipeline(
    spec: _KindSpec,
    jobs: list,
    cache,
    timeout: float | None,
    retry_policy: RetryPolicy | None,
    **options,
) -> list:
    """Probe, dedupe, evaluate, publish and fan out one work list.

    ``timeout`` bounds the evaluation (checked at batch boundaries;
    :class:`~repro.errors.EvaluationTimeoutError` on expiry) and
    ``retry_policy`` retries a transient evaluation failure — the store
    applies its own publish retry/degrade discipline internally.
    ``options`` are forwarded to the kind's evaluator.
    """
    deadline = Deadline(timeout)
    policy = retry_policy or DEFAULT_RETRY_POLICY
    store = _coerce_cache(cache)
    results: list = [None] * len(jobs)
    if not jobs:
        return results
    groups: dict[object, list[int]] = {}
    if store is None:
        for index, token in enumerate(spec.tokens(jobs)):
            groups.setdefault(token, []).append(index)
    else:
        keys = spec.keys(jobs)
        for index, value in enumerate(store.get_many(keys, kind=spec.kind)):
            if value is None:
                groups.setdefault(keys[index], []).append(index)
            else:
                results[index] = relabelled(value, jobs[index].layer_name)
    if not groups:
        return results
    unique = [jobs[indices[0]] for indices in groups.values()]
    computed = policy.call(lambda: spec.evaluate(unique, deadline, **options))
    if store is not None:
        store.put_many(list(zip(groups, computed)), kind=spec.kind)
    for indices, value in zip(groups.values(), computed):
        for index in indices:
            results[index] = relabelled(value, jobs[index].layer_name)
    return results


def run_design_jobs(
    jobs: list[DesignJob] | tuple[DesignJob, ...],
    cache: "PackedSweepStore | str | os.PathLike | None" = None,
    timeout: float | None = None,
    retry_policy: RetryPolicy | None = None,
) -> list[DesignMetrics]:
    """Evaluate every job, in order, optionally through a store.

    Args:
        jobs: the flat work list.
        cache: a :class:`~repro.eval.store.PackedSweepStore`, a
            directory path (constructs the packed store), or ``None``.
        timeout: per-batch wall-clock budget in seconds (``None`` = no
            budget); expiry raises
            :class:`~repro.errors.EvaluationTimeoutError`.
        retry_policy: how a transient evaluation failure retries;
            defaults to :data:`DEFAULT_RETRY_POLICY`.

    Returns:
        ``DesignMetrics`` in the same order as ``jobs``, independent of
        store state.  Jobs sharing a :func:`job_key` (identical
        shape/tech, labels aside) are evaluated once and the result
        fanned out relabelled.  Misses run through the vectorized plane
        (:mod:`repro.eval.vectorized`); designs without a ``perf_batch``
        hook run inline through :func:`evaluate_design_job`.
    """
    return _run_pipeline(_METRICS, list(jobs), cache, timeout, retry_policy)


def run_cycle_jobs(
    jobs: list[DesignJob] | tuple[DesignJob, ...],
    cache: "PackedSweepStore | str | os.PathLike | None" = None,
    max_sub_crossbars: int = 128,
    timeout: float | None = None,
    retry_policy: RetryPolicy | None = None,
) -> list[CycleStats | None]:
    """Cycle-level companion to :func:`run_design_jobs`.

    Runs every trace-capable job (``supports_trace`` in its registry
    entry — RED) through the :class:`~repro.sim.batch.BatchEngine` and
    returns :class:`CycleStats` per job, in job order; jobs whose design
    has no cycle engine yield ``None``.  All misses execute as one
    fused float64 batch — jobs sharing a ``(spec, fold)`` pair run
    stacked over a single analytically compiled schedule.  The
    persisted :class:`CycleStats` are operand-independent.  Results
    persist under the ``"cycles"`` kind, so repeated traced evaluations
    are near-free.
    """
    jobs = list(jobs)
    traceable = [
        index
        for index, job in enumerate(jobs)
        if get_design(job.design).supports_trace
    ]
    stats = _run_pipeline(
        _CYCLES,
        [jobs[index] for index in traceable],
        cache,
        timeout,
        retry_policy,
        max_sub_crossbars=max_sub_crossbars,
    )
    results: list[CycleStats | None] = [None] * len(jobs)
    for index, value in zip(traceable, stats):
        results[index] = value
    return results


def run_fidelity_jobs(
    jobs: list[FidelityJob] | tuple[FidelityJob, ...],
    cache: "PackedSweepStore | str | os.PathLike | None" = None,
    timeout: float | None = None,
    retry_policy: RetryPolicy | None = None,
) -> list[FidelityStats]:
    """Monte-Carlo fidelity companion to :func:`run_design_jobs`.

    Evaluates every :class:`FidelityJob` through the batched
    struct-of-arrays sampler (:func:`repro.reram.batch
    .sample_fidelity_grid`): misses are grouped per
    (design, spec, tech, scenario), the design's fidelity profile is
    derived once per group, and all of a group's unique
    ``(seed, time_s)`` points are drawn in one vectorized pass —
    bit-identical to the scalar per-point oracle
    (:func:`repro.reram.batch.fidelity_point`) and invariant to job
    order and sharding, because every RNG stream is keyed by values,
    never by batch position (``tests/reram/test_batch.py``).  Results
    persist under the ``"fidelity"`` kind; returns
    :class:`FidelityStats` in job order.
    """
    return _run_pipeline(_FIDELITY, list(jobs), cache, timeout, retry_policy)
