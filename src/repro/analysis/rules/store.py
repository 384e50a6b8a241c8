"""RED004: store discipline — two batched store calls, no object codecs.

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

Store files are external input: a segment may come from another
version, another process or a hostile hand.  So ``repro/eval/`` also
imports none of ``pickle`` (nor its C module ``_pickle``), ``marshal``
or ``shelve``, whose loads can run code or crash the interpreter; the store
decodes through its typed record codec instead.
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

#: Object-serialization modules whose loads are unsafe on file input.
_UNSAFE_CODECS = frozenset({"pickle", "_pickle", "marshal", "shelve"})


def _unsafe_imports(tree: ast.AST) -> Iterator[tuple[ast.AST, str]]:
    """``(node, module)`` per import of an unsafe codec module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module or ""]
        else:
            continue
        for name in names:
            if name.partition(".")[0] in _UNSAFE_CODECS:
                yield node, name


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
        "one batched publish; no pickle/marshal/shelve under repro/eval"
    )

    def applies_to(self, module: ModuleSource) -> bool:
        return module.module_parts[:2] == ("repro", "eval")

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        tree = module.tree
        assert tree is not None
        for node, name in _unsafe_imports(tree):
            yield self.finding(
                module,
                node,
                f"import of {name}: store files are external input; "
                "decode them through the store's typed record codec",
            )
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
