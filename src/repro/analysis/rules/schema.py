"""RED002: the field-driven payload contract.

Every payload crossing the service boundary lives in
``repro/api/schema.py``, whose one codec (``_Payload``) encodes and
decodes each class from its dataclass fields.  Every dataclass there
must:

* be declared ``@dataclass(frozen=True)`` — payloads are immutable;
* derive from the codec base ``_Payload`` (directly or through another
  class of the module) — no class hand-writes its wire format;
* carry a ``schema_version`` field when it is declared with
  ``kind=...`` — wire payloads are versioned so readers can reject
  foreign API generations.

``PAYLOAD_KINDS`` is filled by the ``kind=`` declarations themselves,
so there is no table left to cross-check.  Leaf rows (``SweepPoint``
and friends) have no ``kind`` and ride inside a versioned envelope.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import Finding, ModuleSource, Rule

#: The module this contract covers.
SCHEMA_MODULE = ("repro", "api", "schema")

#: The codec base every schema dataclass derives from.
CODEC_BASE = "_Payload"


def _dataclass_decoration(node: ast.ClassDef) -> tuple[bool, bool]:
    """``(is_dataclass, frozen)`` from the class decorators."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = target.attr if isinstance(target, ast.Attribute) else (
            target.id if isinstance(target, ast.Name) else ""
        )
        if name != "dataclass":
            continue
        frozen = False
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if keyword.arg == "frozen" and isinstance(keyword.value, ast.Constant):
                    frozen = bool(keyword.value.value)
        return True, frozen
    return False, False


def _field_names(node: ast.ClassDef) -> set[str]:
    return {
        item.target.id
        for item in node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    }


class SchemaRule(Rule):
    rule_id = "RED002"
    summary = (
        "schema dataclasses are frozen, derive from the _Payload codec, "
        "and carry schema_version when declared with a kind"
    )

    def applies_to(self, module: ModuleSource) -> bool:
        return module.module_parts == SCHEMA_MODULE

    def check(self, module: ModuleSource) -> Iterator[Finding]:
        tree = module.tree
        assert tree is not None
        codec_classes = {CODEC_BASE}
        fields: dict[str, set[str]] = {}
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = [base.id for base in node.bases if isinstance(base, ast.Name)]
            if codec_classes.intersection(bases):
                codec_classes.add(node.name)
            fields[node.name] = _field_names(node).union(
                *(fields.get(base, ()) for base in bases)
            )
            is_dataclass, frozen = _dataclass_decoration(node)
            if is_dataclass and not frozen:
                yield self.finding(
                    module,
                    node,
                    f"schema dataclass {node.name} is not frozen=True; payloads "
                    "must be immutable",
                )
            if is_dataclass and node.name not in codec_classes:
                yield self.finding(
                    module,
                    node,
                    f"schema dataclass {node.name} does not derive from "
                    f"{CODEC_BASE}; payloads use the one field-driven codec",
                )
            declares_kind = any(keyword.arg == "kind" for keyword in node.keywords)
            if declares_kind and "schema_version" not in fields[node.name]:
                yield self.finding(
                    module,
                    node,
                    f"payload {node.name} declares a kind but carries no "
                    "schema_version field; wire payloads must be versioned",
                )
