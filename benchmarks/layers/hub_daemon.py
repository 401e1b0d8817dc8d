#!/usr/bin/env python3
"""The benchmark's own launcher for the multi-tenant hub process.

``hub_daemon.py ROOT [--trace SPANS]`` serves an ``AsyncSessionHub`` over
loopback TCP with its store under ``ROOT`` and every setting at the
shipped default, prints ``READY host port`` once it listens, and exits
on the ``shutdown`` verb.  The daemon is started through this file
rather than ``deltanet serve`` so a traced run can reach inside it:
with ``--trace`` the span recorders are installed before the hub is
built, and the spans and boundary counts are written to ``SPANS`` on the
way out.
"""

from __future__ import annotations

import asyncio
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# The script directory would put this package's trace.py in front of the
# standard library's; import it as layers.trace instead.
sys.path[0] = os.path.dirname(HERE)
sys.path.insert(1, os.path.join(os.path.dirname(os.path.dirname(HERE)), "src"))


def main(argv) -> int:
    root = argv[0]
    tracer = None
    if argv[1:2] == ["--trace"]:
        from layers.trace import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.recording = True
    from repro.serve import AsyncSessionHub, SessionManager, serve_hub_tcp

    async def serve() -> None:
        hub = AsyncSessionHub(SessionManager(root))
        await serve_hub_tcp(hub, ready=lambda host, port: print(
            f"READY {host} {port}", flush=True))

    asyncio.run(serve())
    if tracer is not None:
        with open(argv[2], "w") as handle:
            json.dump({"spans": tracer.spans,
                       "counters": tracer.counters}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
