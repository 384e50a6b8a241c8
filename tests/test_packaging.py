"""The package metadata: ``pyproject.toml`` names and finds ``repro``."""

import subprocess
import sys
import tomllib
from pathlib import Path

from setuptools import find_packages

ROOT = Path(__file__).resolve().parents[1]


def load_pyproject() -> dict:
    with open(ROOT / "pyproject.toml", "rb") as handle:
        return tomllib.load(handle)


def test_project_metadata():
    project = load_pyproject()["project"]
    assert project["name"] == "repro"
    assert project["requires-python"] == ">=3.11"
    assert project["dependencies"] == ["numpy"]


def test_packages_are_discovered_under_src():
    find = load_pyproject()["tool"]["setuptools"]["packages"]["find"]
    assert find["where"] == ["src"]
    found = set(find_packages(where=str(ROOT / find["where"][0])))
    on_disk = {
        ".".join(init.parent.relative_to(ROOT / "src").parts)
        for init in (ROOT / "src" / "repro").rglob("__init__.py")
    }
    assert "repro" in found
    assert on_disk <= found


def test_setup_shim_reads_the_metadata():
    shown = subprocess.run(
        [sys.executable, "setup.py", "--name", "--version"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    name, version = shown.stdout.split()[-2:]
    assert name == "repro"
    assert version == load_pyproject()["project"]["version"]
