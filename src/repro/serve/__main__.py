"""CLI entry point: ``python -m repro.serve``.

Runs the DSE server until interrupted.  ``--selftest`` instead starts
an ephemeral server, drives a curated spec through a loopback client
(twice, to exercise the cache), checks the streamed front against a
direct in-process exploration, prints a summary and exits — the CI
smoke test for the whole serving stack.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys

from repro.serve.cache import DEFAULT_CACHE_SIZE
from repro.serve.server import DseServer, ServerConfig


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Serve exact design space exploration over TCP "
        "(JSON-lines protocol + HTTP probes; see docs/SERVING.md).",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8950)
    parser.add_argument(
        "--solve-workers",
        type=int,
        default=2,
        help="concurrent solves draining the priority queue",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="explorer parallelism per solve (1 = sequential exact path)",
    )
    parser.add_argument("--cache-size", type=int, default=DEFAULT_CACHE_SIZE)
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="default wall-clock ceiling per solve in seconds",
    )
    parser.add_argument(
        "--conflict-budget",
        type=int,
        default=None,
        help="solver conflicts allowed per explorer worker of a job",
    )
    parser.add_argument(
        "--chunk-conflicts",
        type=int,
        default=200,
        help="conflicts per solver chunk (cancellation latency; 0 disables)",
    )
    parser.add_argument(
        "--selftest",
        action="store_true",
        help="run a loopback smoke test and exit",
    )
    return parser


def _config(args: argparse.Namespace) -> ServerConfig:
    return ServerConfig(
        host=args.host,
        port=args.port,
        solve_workers=args.solve_workers,
        solve_jobs=args.jobs,
        cache_size=args.cache_size,
        default_timeout=args.timeout,
        conflict_budget=args.conflict_budget,
        chunk_conflicts=args.chunk_conflicts or None,
    )


async def _serve(config: ServerConfig) -> None:
    server = DseServer(config)
    host, port = await server.start()
    print(f"repro.serve listening on {host}:{port}", flush=True)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:
        pass
    finally:
        await server.shutdown(drain=False)


async def _selftest(config: ServerConfig) -> int:
    from repro.dse.explorer import explore
    from repro.serve.client import ServeClient
    from repro.synthesis.io import specification_to_dict
    from repro.synthesis.model import (
        Application,
        Architecture,
        Link,
        MappingOption,
        Message,
        Resource,
        Specification,
        Task,
    )

    config.port = 0  # ephemeral; never collide with a real deployment
    config.chunk_conflicts = None  # maximally faithful sequential path
    server = DseServer(config)
    host, port = await server.start()
    spec = Specification(
        Application(
            tasks=(Task("a"), Task("b")),
            messages=(Message("m", "a", "b", size=2),),
        ),
        Architecture(
            resources=(Resource("fast", cost=8), Resource("slow", cost=2)),
            links=(Link("f2s", "fast", "slow"), Link("s2f", "slow", "fast")),
        ),
        (
            MappingOption("a", "fast", wcet=2, energy=4),
            MappingOption("a", "slow", wcet=5, energy=1),
            MappingOption("b", "fast", wcet=3, energy=6),
            MappingOption("b", "slow", wcet=7, energy=2),
        ),
    )
    payload = specification_to_dict(spec)
    direct = explore(spec).to_dict()

    client = await ServeClient.connect(host, port)
    try:
        first = await client.solve(payload)
        second = await client.solve(payload)
    finally:
        await client.close()
    await server.shutdown(drain=True)

    failures = []
    if first.result is None or first.result["front"] != direct["front"]:
        failures.append("streamed front differs from direct explore()")
    if not second.cached:
        failures.append("second identical request missed the cache")
    if second.result != first.result:
        failures.append("cached result differs from the solved one")
    summary = {
        "front_size": len(direct["front"]),
        "snapshots": len(first.snapshots),
        "counters": server.counters,
        "cache": server.cache.info(),
        "ok": not failures,
        "failures": failures,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0 if not failures else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    config = _config(args)
    if args.selftest:
        return asyncio.run(_selftest(config))
    try:
        asyncio.run(_serve(config))
    except KeyboardInterrupt:
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
