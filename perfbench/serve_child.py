"""A default-configured ``repro.serve`` server for one serve_mixed pass.

Prints one JSON line once listening (``port``, CPU seconds so far),
serves until its standard input closes, shuts down with draining and
prints a final JSON line (CPU seconds, peak RSS, ground-cache counters).
With ``--trace PATH`` it wraps the layers' entry points first and writes
the recorded spans to ``PATH`` on exit.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import resource
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_source  # noqa: E402


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


async def serve() -> None:
    from repro.serve.server import DseServer, ServerConfig

    server = DseServer(ServerConfig())
    _host, port = await server.start()
    print(json.dumps({"port": port, "cpu_s": cpu_seconds()}), flush=True)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.buffer.read)
    await server.shutdown(drain=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", default=None, help="write spans here on exit")
    args = parser.parse_args()
    use_source()
    tracer = None
    if args.trace:
        from layers import install
        from tracer import Tracer

        tracer = Tracer()
        install(tracer)
        tracer.enabled = True
    asyncio.run(serve())
    from repro.asp.control import ground_cache_info

    final = {
        "cpu_s": cpu_seconds(),
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ground_cache": ground_cache_info(),
    }
    if tracer is not None:
        tracer.enabled = False
        tracer.dump(args.trace, {"counts": dict(tracer.counts)})
    print(json.dumps(final), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
