"""Every failpoint site the ``Makefile`` arms or the README catalogues
must exist.

Arming a site name that no call site uses is silent: nothing fires and
nothing fails, so a fault matrix can keep naming deleted code and
"pass" while testing nothing.  This test parses every
``RED_FAILPOINTS="..."`` spec in the ``Makefile`` with
:func:`~repro.reliability.parse_failpoints`, and every row of the
catalogue table in ``src/repro/reliability/README.md``, and requires
each site to appear under ``src/repro`` either as a string literal
passed to ``failpoints.inject`` / ``corrupted`` / ``check`` or as a
``*_SITE`` constant.
"""

import ast
import re
from pathlib import Path

import pytest

from repro.reliability import parse_failpoints

ROOT = Path(__file__).resolve().parents[2]
HOOKS = {"inject", "corrupted", "check"}


def makefile_sites() -> list[str]:
    text = (ROOT / "Makefile").read_text(encoding="utf-8")
    specs = re.findall(r'RED_FAILPOINTS="([^"]*)"', text)
    return sorted(
        {point.site for spec in specs for point in parse_failpoints(spec)}
    )


def _is_hook_call(node) -> bool:
    """``failpoints.<hook>(...)`` with at least one argument."""
    return (
        isinstance(node, ast.Call)
        and bool(node.args)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in HOOKS
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "failpoints"
    )


def declared_sites() -> set[str]:
    """Site names the source passes to a hook or names as ``*_SITE``."""
    sites: set[str] = set()
    for path in (ROOT / "src" / "repro").rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if _is_hook_call(node):
                first = node.args[0]
                if isinstance(first, ast.Constant) and isinstance(first.value, str):
                    sites.add(first.value)
            elif isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
                if isinstance(node.value.value, str) and any(
                    isinstance(target, ast.Name) and target.id.endswith("_SITE")
                    for target in node.targets
                ):
                    sites.add(node.value.value)
    return sites


def catalogue_sites() -> list[str]:
    """Site names in the first column of the README's catalogue table."""
    text = (ROOT / "src" / "repro" / "reliability" / "README.md").read_text(
        encoding="utf-8"
    )
    table = text.split("## Failpoint catalogue", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([^`]+)` \|", table, flags=re.MULTILINE)


def test_makefile_arms_some_sites():
    assert len(makefile_sites()) >= 4


def test_scanner_finds_both_declaration_forms():
    sites = declared_sites()
    assert "store.get_many" in sites  # literal passed to failpoints.corrupted
    assert "serving.merge" in sites  # MERGE_SITE constant
    assert not any(" " in site for site in sites)  # no Deadline.check labels


@pytest.mark.parametrize("site", makefile_sites())
def test_every_armed_site_exists_in_source(site):
    assert site in declared_sites(), (
        f"the Makefile arms failpoint site {site!r}, but nothing under "
        "src/repro injects it; the fault matrix would test nothing"
    )


def test_catalogue_lists_some_sites():
    assert len(catalogue_sites()) >= 4


@pytest.mark.parametrize("site", catalogue_sites())
def test_every_catalogued_site_exists_in_source(site):
    assert site in declared_sites(), (
        f"src/repro/reliability/README.md catalogues failpoint site {site!r}, "
        "but nothing under src/repro injects it"
    )
