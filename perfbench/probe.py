"""One fresh-process set-up, timed by the parent from spawn.

Usage: ``python3 -m perfbench.probe REQUEST_JSON STORE_DIR``

Imports the program, constructs a ``RedService`` over the store
directory (opening it), answers the one request in ``REQUEST_JSON``
and prints ``time.monotonic()`` at the answer.  The parent read the
same system-wide clock just before spawning this process.  The request
is either a ``grid`` call or a wire-form schema request.
"""

from __future__ import annotations

import json
import sys
import time


def main(argv: list[str]) -> int:
    from repro.api import RedService

    with open(argv[0], encoding="utf-8") as handle:
        request = json.load(handle)
    with RedService(cache=argv[1]) as service:
        if request.get("kind") == "grid":
            from perfbench.inputs import GridCall

            call = GridCall.from_dict(request["call"])
            service.grid(call.layers, call.tech)
        else:
            from perfbench.inprocess import answer

            answer(service, request)
        answered = time.monotonic()
    print(repr(answered), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
