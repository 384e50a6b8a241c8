"""RED004: the exactly-two-store-calls runner discipline (PR 5).

The packed sweep store is batch-first: runners probe once
(``job_keys`` + ``get_many``) and publish once (``put_many``) per
invocation — never per job.  Per-entry traffic re-checks the store
directory on every miss, defeats the in-memory hit tier, and (for
writes) publishes one segment file per entry instead of one per
batch, each of which every later open scans.  Inside ``repro/eval/``:

* no single-entry ``cache.get(...)`` / ``store.put(...)`` calls — the
  scalar wrappers exist only as compatibility surface on the stores
  themselves;
* no ``get_many`` / ``put_many`` inside a ``for``/``while`` body or a
  comprehension — a batched call per loop iteration is per-entry
  traffic wearing a batch API.

Calls in a loop *iterator* position (``for x in enumerate(
cache.get_many(keys))``) run once and are fine.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleSource, Rule, walk_loop_contexts

#: Receiver names treated as store/cache handles.
_STORE_SUFFIXES = ("cache", "store")

#: The batched store protocol surface.
_BATCH_METHODS = frozenset({"get_many", "put_many"})

#: The single-entry compatibility surface.
_SCALAR_METHODS = frozenset({"get", "put"})


def _is_store_receiver(node: ast.AST) -> bool:
    if isinstance(node, ast.Name):
        name = node.id.lower()
    elif isinstance(node, ast.Attribute):
        name = node.attr.lower()
    else:
        return False
    return any(name == s or name.endswith("_" + s) for s in _STORE_SUFFIXES)


class StoreDisciplineRule(Rule):
    rule_id = "RED004"
    summary = (
        "eval runners touch the store exactly twice: one batched probe, "
        "one batched publish"
    )

    def applies_to(self, module: ModuleSource) -> bool:
        return module.module_parts[:2] == ("repro", "eval")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        tree = module.tree
        assert tree is not None
        for node, in_loop_body in walk_loop_contexts(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
                continue
            method = node.func.attr
            receiver = node.func.value
            if method in _SCALAR_METHODS and _is_store_receiver(receiver):
                yield self.finding(
                    module,
                    node,
                    f"single-entry store call .{method}(); batch through "
                    f"{method}_many with keys computed via job_keys",
                )
            elif method in _BATCH_METHODS and in_loop_body:
                yield self.finding(
                    module,
                    node,
                    f".{method}() inside a loop body; runners make one "
                    "batched probe and one batched publish per invocation",
                )
