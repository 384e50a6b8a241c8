"""Per-rule fixtures: a violating tree, a clean tree, a suppressed tree."""

import textwrap

from repro.analysis.engine import run_analysis


def run_on(tmp_path, files):
    """Write ``{relative path: source}`` under tmp_path and analyze it."""
    for rel, src in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(src))
    return run_analysis([tmp_path / "src", tmp_path / "benchmarks"])


def rules_hit(report):
    return {f.rule for f in report.findings}


class TestSeedingRule:
    def test_legacy_sampler_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {"src/repro/demo.py": "import numpy as np\nx = np.random.rand(4)\n"},
        )
        assert rules_hit(report) == {"RED001"}

    def test_unseeded_default_rng_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {"src/repro/demo.py": "import numpy as np\nr = np.random.default_rng()\n"},
        )
        assert rules_hit(report) == {"RED001"}

    def test_service_tier_generator_flagged_even_with_seed(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/api/svc.py": """\
                import numpy as np

                def handle(request):
                    return np.random.default_rng(request.seed)
                """
            },
        )
        assert rules_hit(report) == {"RED001"}
        assert "service tier" in report.findings[0].message

    def test_rng_default_idiom_and_injected_seed_are_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/lib.py": """\
                import numpy as np

                def sample(n, rng=None, seed=None):
                    rng = rng or np.random.default_rng(0)
                    other = np.random.default_rng(seed)
                    spawned = np.random.default_rng(np.random.SeedSequence(seed))
                    return rng, other, spawned
                """
            },
        )
        assert report.findings == []

    def test_hard_wired_library_seed_flagged_but_benchmark_seed_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/lib.py": (
                    "import numpy as np\nr = np.random.default_rng(1234)\n"
                ),
                "benchmarks/bench_demo.py": (
                    "import numpy as np\nr = np.random.default_rng(1234)\n"
                ),
            },
        )
        assert [f.path for f in report.findings] == [
            (tmp_path / "src/repro/lib.py").as_posix()
        ]

    def test_docstring_demo_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/pkg.py": '''\
                """Quickstart::

                    x = np.random.rand(3, 3)
                """
                '''
            },
        )
        assert rules_hit(report) == {"RED001"}
        assert "docstring" in report.findings[0].message

    def test_suppression_marker(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/demo.py": (
                    "import numpy as np\n"
                    "x = np.random.rand(4)  # red: ignore[RED001]\n"
                )
            },
        )
        assert report.findings == []
        assert report.suppressed == 1


class TestSchemaRule:
    CLEAN = """\
    from dataclasses import dataclass

    SCHEMA_VERSION = 1

    class _Payload:
        pass

    @dataclass(frozen=True)
    class Request(_Payload, kind="request"):
        schema_version: int = SCHEMA_VERSION

    @dataclass(frozen=True)
    class Row(_Payload):
        value: float = 0.0

    @dataclass(frozen=True)
    class DerivedRequest(Request, kind="derived"):
        extra: int = 0
    """

    def test_clean_schema_module(self, tmp_path):
        report = run_on(tmp_path, {"src/repro/api/schema.py": self.CLEAN})
        assert report.findings == []

    def test_unfrozen_dataclass_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {"src/repro/api/schema.py": self.CLEAN.replace("frozen=True", "frozen=False", 1)},
        )
        assert rules_hit(report) == {"RED002"}
        assert "not frozen" in report.findings[0].message

    def test_dataclass_outside_the_codec_flagged(self, tmp_path):
        source = self.CLEAN.replace("class Row(_Payload):", "class Row:")
        report = run_on(tmp_path, {"src/repro/api/schema.py": source})
        assert rules_hit(report) == {"RED002"}
        assert "_Payload" in report.findings[0].message

    def test_kind_without_schema_version_flagged(self, tmp_path):
        source = self.CLEAN.replace("schema_version: int = SCHEMA_VERSION", "other: int = 0")
        report = run_on(tmp_path, {"src/repro/api/schema.py": source})
        assert rules_hit(report) == {"RED002"}
        assert {f.message.split()[1] for f in report.findings} == {"Request", "DerivedRequest"}
        assert all("schema_version" in f.message for f in report.findings)

    def test_rule_only_covers_schema_module(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/other.py": (
                    "from dataclasses import dataclass\n\n"
                    "@dataclass\nclass Mutable:\n    x: int = 0\n"
                )
            },
        )
        assert report.findings == []


class TestRegistryRule:
    DESIGN = """\
    from repro.designs.base import DeconvDesign

    class NewDesign(DeconvDesign):
        def perf_input(self, layer_name=""):
            return None
    """

    def test_unregistered_design_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/designs/new_design.py": self.DESIGN,
                "src/repro/api/registrations.py": (
                    "from repro.api.registry import register_design\n\n"
                    "register_design('other', factory=lambda spec: spec)\n"
                ),
            },
        )
        assert rules_hit(report) == {"RED003"}
        assert "NewDesign" in report.findings[0].message

    def test_registered_design_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/designs/new_design.py": self.DESIGN,
                "src/repro/api/registrations.py": """\
                from repro.api.registry import register_design

                def _build(spec):
                    from repro.designs.new_design import NewDesign

                    return NewDesign(spec)

                register_design("new", factory=_build)
                """,
            },
        )
        assert report.findings == []

    def test_silent_when_no_registering_module_in_scope(self, tmp_path):
        report = run_on(tmp_path, {"src/repro/designs/new_design.py": self.DESIGN})
        assert report.findings == []

    def test_abstract_perf_input_not_a_design(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/designs/base2.py": """\
                import abc

                from repro.designs.base import DeconvDesign

                class Intermediate(DeconvDesign):
                    @abc.abstractmethod
                    def perf_input(self, layer_name=""):
                        ...
                """,
                "src/repro/api/registrations.py": (
                    "from repro.api.registry import register_design\n"
                    "register_design('x', factory=int)\n"
                ),
            },
        )
        assert report.findings == []

    def test_hook_surface_out_of_sync_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/api/registry.py": """\
                from dataclasses import dataclass

                @dataclass(frozen=True)
                class DesignEntry:
                    name: str
                    factory: object
                    aliases: tuple = ()
                    baseline: bool = False

                def register_design(name, *, aliases=()):
                    return DesignEntry(name=name, factory=None, aliases=aliases)
                """
            },
        )
        assert rules_hit(report) == {"RED003"}
        assert any("baseline" in f.message for f in report.findings)


class TestStoreDisciplineRule:
    def test_single_entry_calls_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/runner.py": """\
                def probe(cache, store, key, value):
                    hit = cache.get(key)
                    store.put(key, value)
                    return hit
                """
            },
        )
        assert [f.rule for f in report.findings] == ["RED004", "RED004"]

    def test_batch_call_in_loop_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/runner.py": """\
                def drain(cache, batches):
                    for batch in batches:
                        cache.put_many(batch, kind="metrics")
                """
            },
        )
        assert rules_hit(report) == {"RED004"}

    def test_batch_call_in_comprehension_body_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/runner.py": (
                    "def probe(cache, keys):\n"
                    "    return [cache.get_many([k], kind='m') for k in keys]\n"
                )
            },
        )
        assert rules_hit(report) == {"RED004"}

    def test_iterator_position_and_memo_dict_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/runner.py": """\
                def run(cache, keys, jobs):
                    head_memo = {}
                    for index, value in enumerate(cache.get_many(keys, kind="m")):
                        head_memo[index] = value
                    hits = [v for v in cache.get_many(keys, kind="m") if v]
                    cache.put_many(zip(keys, hits), kind="m")
                    return head_memo.get(0), hits
                """
            },
        )
        assert report.findings == []

    def test_outside_eval_out_of_scope(self, tmp_path):
        report = run_on(
            tmp_path,
            {"src/repro/sim/mod.py": "def f(cache, k):\n    return cache.get(k)\n"},
        )
        assert report.findings == []

    def test_object_codec_imports_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/segments.py": """\
                import json
                import pickle
                import marshal as m
                from shelve import open as shelf
                from pickle import loads
                import _pickle
                """
            },
        )
        assert [f.rule for f in report.findings] == ["RED004"] * 5
        assert all("external input" in f.message for f in report.findings)

    def test_object_codec_imports_outside_eval_out_of_scope(self, tmp_path):
        report = run_on(
            tmp_path,
            {"src/repro/serving/shard.py": "import pickle\n"},
        )
        assert report.findings == []

    def test_suppression_marker(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/runner.py": (
                    "def probe(cache, key):\n"
                    "    return cache.get(key)  # red: ignore[RED004]\n"
                )
            },
        )
        assert report.findings == []
        assert report.suppressed == 1


class TestOraclePurityRule:
    def test_walk_events_outside_contract_modules_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/shortcut.py": (
                    "from repro.sim.compiler import walk_events\n\n"
                    "def cycles(schedule):\n    return walk_events(schedule)\n"
                )
            },
        )
        assert rules_hit(report) == {"RED005"}

    def test_walk_events_in_contract_module_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/sim/engine.py": (
                    "from repro.sim.compiler import walk_events\n\n"
                    "def replay(schedule):\n    return walk_events(schedule)\n"
                )
            },
        )
        assert report.findings == []

    def test_scalar_oracle_loop_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/system/mapper.py": """\
                from repro.arch.metrics import evaluate_design

                def evaluate_all(inputs, tech):
                    return [evaluate_design(i, tech) for i in inputs]
                """
            },
        )
        assert rules_hit(report) == {"RED005"}
        assert "loop" in report.findings[0].message

    def test_single_scalar_call_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/designs/one.py": """\
                from repro.arch.metrics import evaluate_design

                def evaluate(perf, tech):
                    return evaluate_design(perf, tech)
                """
            },
        )
        assert report.findings == []

    def test_batch_substrate_may_loop(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/parallel.py": (
                    "def run(jobs):\n"
                    "    return [evaluate_design_job(j) for j in jobs]\n"
                )
            },
        )
        assert report.findings == []


class TestNondeterminismRule:
    def test_clock_read_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/runner.py": (
                    "import time\n\ndef stamp():\n    return time.time()\n"
                )
            },
        )
        assert rules_hit(report) == {"RED006"}

    def test_entropy_read_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/api/tokens.py": (
                    "import os\n\ndef token():\n    return os.urandom(8)\n"
                )
            },
        )
        assert rules_hit(report) == {"RED006"}

    def test_bare_imported_clock_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/sim/mod.py": (
                    "from time import perf_counter\n\n"
                    "def stamp():\n    return perf_counter()\n"
                )
            },
        )
        assert rules_hit(report) == {"RED006"}

    def test_benchmarks_and_cli_out_of_scope(self, tmp_path):
        source = "import time\n\ndef stamp():\n    return time.time()\n"
        report = run_on(
            tmp_path,
            {
                "benchmarks/bench_mod.py": source,
                "src/repro/cli.py": source,
            },
        )
        assert report.findings == []


class TestSwallowRule:
    def test_bare_except_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/mod.py": """\
                def load(path):
                    try:
                        return open(path).read()
                    except:
                        return None
                """
            },
        )
        assert rules_hit(report) == {"RED007"}
        assert "bare" in report.findings[0].message

    def test_broad_handler_without_raise_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/utils/mod.py": """\
                def best_effort(fn):
                    try:
                        fn()
                    except Exception:
                        pass
                """
            },
        )
        assert rules_hit(report) == {"RED007"}

    def test_broad_handler_in_tuple_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/core/mod.py": """\
                def run(fn):
                    try:
                        return fn()
                    except (ValueError, BaseException):
                        return None
                """
            },
        )
        assert rules_hit(report) == {"RED007"}

    def test_routing_handler_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/mod.py": """\
                def call(fn, retryable):
                    try:
                        return fn()
                    except Exception as exc:
                        if not retryable(exc):
                            raise
                        return None
                """
            },
        )
        assert report.findings == []

    def test_narrowed_handler_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/eval/mod.py": """\
                import os

                def cleanup(path):
                    try:
                        os.unlink(path)
                    except OSError:
                        pass
                """
            },
        )
        assert report.findings == []

    def test_benchmarks_out_of_scope(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "benchmarks/bench_mod.py": """\
                def best_effort(fn):
                    try:
                        fn()
                    except Exception:
                        pass
                """
            },
        )
        assert report.findings == []


class TestBlockingAsyncRule:
    def test_time_sleep_in_coroutine_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/serving/mod.py": """\
                import time

                async def handle(request):
                    time.sleep(0.1)
                    return request
                """
            },
        )
        assert rules_hit(report) == {"RED008"}
        assert "time.sleep" in report.findings[0].message

    def test_sync_io_builtins_flagged(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/serving/mod.py": """\
                import subprocess

                async def handle(path):
                    with open(path) as fh:
                        data = fh.read()
                    subprocess.run(["true"])
                    return data
                """
            },
        )
        assert rules_hit(report) == {"RED008"}
        assert len(report.findings) == 2

    def test_executor_dispatch_and_sync_def_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/serving/mod.py": """\
                import asyncio
                import time

                def blocking_probe():
                    time.sleep(0.1)  # runs on the pool, not the loop

                async def handle(loop):
                    await asyncio.sleep(0)
                    return await loop.run_in_executor(None, blocking_probe)
                """
            },
        )
        assert report.findings == []

    def test_nested_def_inside_coroutine_clean(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "src/repro/serving/mod.py": """\
                async def handle(loop):
                    def probe():
                        import time

                        time.sleep(0.1)

                    return await loop.run_in_executor(None, probe)
                """
            },
        )
        assert report.findings == []

    def test_benchmarks_out_of_scope(self, tmp_path):
        report = run_on(
            tmp_path,
            {
                "benchmarks/bench_async.py": """\
                import time

                async def drive():
                    time.sleep(0.1)
                """
            },
        )
        assert report.findings == []
