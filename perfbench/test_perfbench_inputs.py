"""The benchmark's own checks: seeded inputs and the metric catalogue."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

from perfbench import inputs
from perfbench.common import ROOT, SRC, WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_regenerates_identical_inputs(workload):
    assert inputs.input_bytes(workload, 7) == inputs.input_bytes(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_gives_other_inputs(workload):
    assert inputs.input_bytes(workload, 7) != inputs.input_bytes(workload, 8)


def test_inputs_do_not_depend_on_the_interpreter_run():
    """A fresh interpreter with another hash seed makes the same bytes."""
    script = (
        "import hashlib, sys\n"
        "from perfbench import inputs\n"
        "for w in sys.argv[1:]:\n"
        "    print(hashlib.sha256(inputs.input_bytes(w, 7)).hexdigest())\n"
    )
    env = dict(os.environ, PYTHONHASHSEED="12345", PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    out = subprocess.run(
        [sys.executable, "-c", script, *WORKLOADS],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    expected = [hashlib.sha256(inputs.input_bytes(w, 7)).hexdigest() for w in WORKLOADS]
    assert out.stdout.split() == expected


def test_serve_schedule_mixes_hot_and_unique_bodies():
    bodies = inputs.ServeBodies(3)
    schedule = bodies.schedule(400, 0)
    hot = set(bodies.hot)
    assert sum(body in hot for body in schedule) == 200
    unique = [body for body in schedule if body not in hot]
    assert len(unique) == len(set(unique))


def test_benchmark_json_lists_what_run_reports():
    from perfbench import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
