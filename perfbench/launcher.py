"""Traced launcher for ``repro serve``.

Usage: ``python3 -m perfbench.launcher SPANS_PATH``

Installs the span wrappers of :func:`perfbench.spans.server_targets`,
then runs the ``repro serve --port 0`` entry point unchanged.  When a
SIGTERM drain makes the entry point return, the in-memory spans are
written to ``SPANS_PATH``.  Shard processes fork from this process;
their time shows up in the parent as ``serving.shard_call``.
"""

from __future__ import annotations

import sys

from perfbench.spans import Tracer, patched, server_targets


def main(argv: list[str]) -> int:
    from repro.cli import main as repro_main

    tracer = Tracer(roots=("api.decode",))
    with patched(tracer, server_targets()):
        code = repro_main(["serve", "--port", "0"])
    tracer.dump(argv[0])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
