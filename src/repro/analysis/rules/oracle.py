"""RED005: scalar oracles stay oracle-only (PRs 3, 4 and 6).

The hot paths are analytic and batched; the scalar implementations
survive *only* as correctness oracles for property tests and trace
replay.  Library code that routes work through a scalar oracle silently
reverts a measured 10-100x win:

* ``walk_events`` (the scalar schedule walk) is called only by its
  defining module ``repro.sim.compiler`` and the documented trace-replay
  consumer ``repro.sim.engine``;
* ``fidelity_point`` (the scalar Monte-Carlo sample) is called only by
  ``repro.reram.batch``, where the vectorized sampler is property-tested
  bit-identical to it;
* ``evaluate_design`` / ``evaluate_design_job`` may be called for a
  single evaluation anywhere (that *is* the scalar oracle surface), but
  never inside a ``for``/``while`` body or comprehension outside the
  batch pipeline ``repro.eval.parallel``.  There the one remaining
  per-job loop is the inline path for designs that register no
  ``perf_batch`` hook; every other job list belongs on the vectorized
  plane (``run_design_jobs``).

Tests and benchmarks are exempt: exercising the oracle is their job.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleSource, Rule, walk_loop_contexts

#: Oracle callables that only their contract modules may call at all.
RESTRICTED_ORACLES: dict[str, tuple[tuple[str, ...], ...]] = {
    "walk_events": (("repro", "sim", "compiler"), ("repro", "sim", "engine")),
    "fidelity_point": (("repro", "reram", "batch"),),
}

#: Oracle callables banned from loop bodies outside the batch substrate.
LOOP_RESTRICTED_ORACLES: dict[str, tuple[tuple[str, ...], ...]] = {
    "evaluate_design": (("repro", "arch", "metrics"), ("repro", "eval", "parallel")),
    "evaluate_design_job": (("repro", "eval", "parallel"),),
}


def _called_name(node: ast.Call) -> str:
    target = node.func
    if isinstance(target, ast.Attribute):
        return target.attr
    if isinstance(target, ast.Name):
        return target.id
    return ""


class OraclePurityRule(Rule):
    rule_id = "RED005"
    summary = (
        "scalar oracles (walk_events, fidelity_point, per-job "
        "evaluate_design loops) stay confined to their contract modules"
    )

    def applies_to(self, module: ModuleSource) -> bool:
        return module.module_parts[:1] == ("repro",)

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        tree = module.tree
        assert tree is not None
        parts = module.module_parts
        for node, in_loop_body in walk_loop_contexts(tree):
            if not isinstance(node, ast.Call):
                continue
            name = _called_name(node)
            allowed = RESTRICTED_ORACLES.get(name)
            if allowed is not None and parts not in allowed:
                yield self.finding(
                    module,
                    node,
                    f"scalar oracle {name}() called outside its contract "
                    "modules; the batched/analytic plane is the production "
                    "path (the oracle exists for property tests and replay)",
                )
                continue
            loop_allowed = LOOP_RESTRICTED_ORACLES.get(name)
            if loop_allowed is not None and in_loop_body and parts not in loop_allowed:
                yield self.finding(
                    module,
                    node,
                    f"per-job {name}() loop; route the job list through "
                    "run_design_jobs / the vectorized plane instead of "
                    "looping the scalar oracle",
                )
