"""The benchmark's workloads: curated_seq, firewall_par2, serve_mixed.

Each workload builds its inputs in ``prepare`` and runs one pass per
``run_pass`` call; ``run.py`` calls passes until ``--seconds`` have
elapsed and turns the per-pass samples into metrics.  Every front is
checked against ``golden.json`` and every witness with the untraced
``validate``; failures are counted in the shared :class:`RunResult`.

Calls into the package go through module attributes at call time
(``dse_explorer.explore``), so a traced run sees them through the
wrappers ``layers.install`` put there; the verification helpers are
bound at import and stay untraced.
"""

from __future__ import annotations

import asyncio
import json
import os
import random
import resource
import subprocess
import sys
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from common import (
    CURATED,
    HERE,
    OUT,
    child_env,
    front_key,
    load_golden,
    rename_spec,
    serve_stream,
)

import repro.dse.explorer as dse_explorer
from repro.asp.control import clear_ground_cache
from repro.serve.protocol import decode_message, encode_message
from repro.synthesis.io import specification_from_dict
from repro.synthesis.solution import Implementation, recompute_objectives, validate
from repro.workloads.curated import curated

#: Work counters of one sequential exploration that must repeat exactly.
GATED_COUNTERS = ("conflicts", "decisions", "propagations", "models_enumerated", "instantiations")
#: DseStatistics fields summed into per-pass solver/dominance counters.
STAT_FIELDS = (
    "conflicts",
    "decisions",
    "propagations",
    "restarts",
    "clause_db_bytes",
    "models_enumerated",
    "pareto_points",
    "pruned_partial",
    "pruned_total",
    "archive_comparisons",
    "instantiations",
    "cubes_executed",
    "steals",
    "resplits",
    "archive_delta_bytes",
    "archive_dedup_skips",
)
SERVE_CLIENTS = 2


@dataclass
class Pass:
    """Samples of one pass."""

    wall_s: float
    cpu_s: float
    traced: bool = False
    #: (input, latency ms) of each operation that computed a front.
    solve_ms: List[Tuple[str, float]] = field(default_factory=list)
    #: serve_mixed only: latency of cache hits / coalesced joins (ms),
    #: send-to-accepted (ms) and accepted-to-result for misses (ms).
    hit_ms: List[float] = field(default_factory=list)
    accept_ms: List[float] = field(default_factory=list)
    queue_solve_ms: List[float] = field(default_factory=list)
    #: Summed work counters and per-layer numbers of this pass.
    counters: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    #: Measurement window (perf_counter interval) the trace is cut to.
    window: Tuple[float, float] = (0.0, 0.0)
    #: serve_mixed traced passes: the server's span file.
    trace_path: Optional[str] = None


@dataclass
class RunResult:
    passes: List[Pass] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Seconds of set-up done inside this process (serve: server starts).
    server_start_s: List[float] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    #: curated_seq: per-instance gated counters of the first pass.
    instance_counters: Dict[str, Dict[str, int]] = field(default_factory=dict)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)


def cpu_seconds(children: bool = True) -> float:
    """CPU seconds of this process (plus its reaped children)."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    if children:
        usage = resource.getrusage(resource.RUSAGE_CHILDREN)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest reaped child (MB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def check_front(result, spec, golden_front, label: str, run: RunResult) -> bool:
    """Front equals the golden one; every witness validates."""
    vectors = front_key(point.vector for point in result.front)
    if result.statistics.interrupted:
        run.fail(f"{label}: interrupted")
        return False
    if vectors != golden_front:
        run.fail(f"{label}: front {vectors} != golden {golden_front}")
        return False
    names = result.objectives
    for point in result.front:
        problems = validate(spec, point.implementation)
        recomputed = recompute_objectives(spec, point.implementation)
        if problems or tuple(recomputed[name] for name in names) != tuple(point.vector):
            run.fail(f"{label}: witness of {point.vector} invalid: {problems}")
            return False
    return True


def add_stats(counters: Dict[str, float], stats) -> None:
    for name in STAT_FIELDS:
        counters[name] = counters.get(name, 0) + getattr(stats, name)


# ---------------------------------------------------------------------------
# Batch workloads
# ---------------------------------------------------------------------------


class CuratedSeq:
    """Sequential exact DSE over the five curated instances per pass."""

    name = "curated_seq"

    def prepare(self, seed: int) -> None:
        golden = load_golden()["curated"]
        self.specs = {name: curated(name) for name in CURATED}
        self.golden = {name: front_key(golden[name]["front"]) for name in CURATED}
        self.reference = {name: golden[name]["reference_counters"] for name in CURATED}
        self.rng = random.Random(f"perfbench-curated-{seed}")

    def run_pass(self, run: RunResult, tracer) -> Pass:
        order = list(CURATED)
        self.rng.shuffle(order)
        clear_ground_cache()
        wall0, cpu0 = perf_counter(), cpu_seconds()
        sample = Pass(0.0, 0.0)
        for name in order:
            run.attempted += 1
            started = perf_counter()
            try:
                result = dse_explorer.explore(self.specs[name])
            except Exception as error:  # one failed operation, keep measuring
                run.fail(f"{name}: {type(error).__name__}: {error}")
                continue
            sample.solve_ms.append((name, (perf_counter() - started) * 1000.0))
            with tracer.span("bench.verify"):
                ok = check_front(result, self.specs[name], self.golden[name], name, run)
            stats = result.statistics
            add_stats(sample.counters, stats)
            counters = {key: getattr(stats, key) for key in GATED_COUNTERS}
            first = run.instance_counters.setdefault(name, counters)
            if ok and counters != first:
                run.fail(f"{name}: counters drifted between passes: {first} -> {counters}")
        sample.window = (wall0, perf_counter())
        sample.wall_s = sample.window[1] - wall0
        sample.cpu_s = cpu_seconds() - cpu0
        return sample

    def finish(self, run: RunResult) -> None:
        run.peak_rss_mb = peak_rss_mb()


class FirewallPar2:
    """network_firewall with two process workers (stealing scheduler)."""

    name = "firewall_par2"
    jobs = 2

    def prepare(self, seed: int) -> None:
        self.spec = curated("network_firewall")
        self.golden = front_key(load_golden()["curated"]["network_firewall"]["front"])

    def run_pass(self, run: RunResult, tracer) -> Pass:
        clear_ground_cache()
        run.attempted += 1
        wall0, cpu0 = perf_counter(), cpu_seconds()
        sample = Pass(0.0, 0.0)
        try:
            result = dse_explorer.explore(self.spec, jobs=self.jobs)
        except Exception as error:
            run.fail(f"network_firewall jobs=2: {type(error).__name__}: {error}")
            result = None
        if result is not None:
            sample.solve_ms.append(("network_firewall", (perf_counter() - wall0) * 1000.0))
            with tracer.span("bench.verify"):
                check_front(result, self.spec, self.golden, "network_firewall jobs=2", run)
            stats = result.statistics
            add_stats(sample.counters, stats)
            workers = stats.per_worker
            busy = sum(worker["wall_time"] for worker in workers)
            sample.counters["worker_busy_s"] = busy
            sample.counters["worker_idle_s"] = max(0.0, self.jobs * stats.wall_time - busy)
            sample.counters["worker_bool_s"] = sum(w["time_boolean_propagation"] for w in workers)
            sample.counters["worker_dominance_s"] = sum(w["time_dominance"] for w in workers)
            sample.counters["worker_theory_s"] = sum(
                w["time_theory_propagation"] - w["time_dominance"] for w in workers
            )
        sample.window = (wall0, perf_counter())
        sample.wall_s = sample.window[1] - wall0
        sample.cpu_s = cpu_seconds() - cpu0
        return sample

    def finish(self, run: RunResult) -> None:
        run.peak_rss_mb = peak_rss_mb()


# ---------------------------------------------------------------------------
# serve_mixed
# ---------------------------------------------------------------------------


class _Request:
    __slots__ = ("index", "line", "spec", "sent", "accepted", "done", "kind", "result", "error")

    def __init__(self, index: int, line: bytes, spec) -> None:
        self.index = index
        self.line = line
        self.spec = spec
        self.sent = self.accepted = self.done = 0.0
        self.kind = ""
        self.result = None
        self.error = None


class ServeMixed:
    """Closed loop of two clients against a fresh ``repro.serve`` child."""

    name = "serve_mixed"

    def prepare(self, seed: int) -> None:
        golden = load_golden()
        self.pool = golden["serve_pool"]
        self.items = []
        for position, (index, tag) in enumerate(serve_stream(golden, seed)):
            entry = self.pool[index]
            data = entry["spec"] if tag is None else rename_spec(entry["spec"], tag)
            spec = specification_from_dict(data)
            message = {
                "id": position,
                "action": "solve",
                "spec": data,
                "objectives": entry["objectives"],
                "options": entry["options"],
                "subscribe": True,
            }
            self.items.append((index, encode_message(message), spec))

    def _start_server(self, trace_path: Optional[str]):
        command = [sys.executable, str(HERE / "serve_child.py")]
        if trace_path is not None:
            command += ["--trace", trace_path]
        started = perf_counter()
        child = subprocess.Popen(
            command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=str(HERE.parent),
        )
        line = child.stdout.readline()
        if not line:
            child.kill()
            child.wait()
            raise RuntimeError("server child exited before listening")
        ready = json.loads(line)
        return child, ready, started

    @staticmethod
    def _stop_server(child) -> dict:
        child.stdin.close()
        try:
            line = child.stdout.readline()
            child.wait(timeout=60)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise
        finally:
            child.stdout.close()
        return json.loads(line) if line else {}

    async def _drive(self, port: int, requests: List[_Request], spawned: float, start_times: list):
        pending = deque(requests)
        snapshots = [0]

        async def client(connection) -> None:
            reader, writer = connection
            try:
                while pending:
                    request = pending.popleft()
                    request.sent = perf_counter()
                    writer.write(request.line)
                    await writer.drain()
                    while True:
                        line = await reader.readline()
                        if not line:
                            request.error = "connection closed"
                            return
                        event = decode_message(line.strip())
                        kind = event.get("event")
                        if kind == "snapshot":
                            snapshots[0] += 1
                        elif kind == "accepted":
                            request.accepted = perf_counter()
                            if event.get("cached"):
                                request.kind = "hit"
                            elif event.get("coalesced"):
                                request.kind = "coalesced"
                            else:
                                request.kind = "miss"
                        elif kind == "result":
                            request.done = perf_counter()
                            request.result = event["result"]
                            break
                        elif kind in ("rejected", "error", "cancelled"):
                            request.done = perf_counter()
                            request.error = f"{kind}: {event.get('message') or event.get('reason') or event.get('diagnostics')}"
                            break
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass

        connections = [await asyncio.open_connection("127.0.0.1", port)]
        start_times.append(perf_counter() - spawned)
        for _client in range(SERVE_CLIENTS - 1):
            connections.append(await asyncio.open_connection("127.0.0.1", port))
        window0 = perf_counter()
        await asyncio.gather(*(client(connection) for connection in connections))
        window1 = perf_counter()
        return window0, window1, snapshots[0]

    async def _stats(self, port: int) -> dict:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(encode_message({"id": "stats", "action": "stats"}))
            await writer.drain()
            while True:
                event = decode_message((await reader.readline()).strip())
                if event.get("event") == "stats":
                    return event["stats"]
        finally:
            writer.close()
            await writer.wait_closed()

    def run_pass(self, run: RunResult, tracer) -> Pass:
        trace_path = None
        if tracer.enabled:
            trace_path = str(OUT / f"serve-trace-{os.getpid()}-{len(run.passes)}.json.gz")
        requests = [_Request(index, line, spec) for index, line, spec in self.items]
        child, ready, spawned = self._start_server(trace_path)
        cpu0 = cpu_seconds(children=False)
        start_times: list = []
        try:
            window0, window1, snapshots = asyncio.run(
                self._drive(ready["port"], requests, spawned, start_times)
            )
            server_stats = asyncio.run(self._stats(ready["port"]))
        finally:
            final = self._stop_server(child)
        run.server_start_s.extend(start_times)
        sample = Pass(window1 - window0, 0.0, window=(window0, window1), trace_path=trace_path)
        # Client CPU plus the server's CPU after it started listening.
        sample.cpu_s = cpu_seconds(children=False) - cpu0 + final["cpu_s"] - ready["cpu_s"]
        self._account(run, sample, requests, server_stats, snapshots)
        sample.counters["ground_cache_hits"] = final["ground_cache"]["hits"]
        return sample

    def _account(self, run, sample, requests, server_stats, snapshots) -> None:
        for request in requests:
            run.attempted += 1
            entry = self.pool[request.index]
            label = f"serve pool[{request.index}]"
            if request.error is not None or request.result is None:
                run.fail(f"{label}: {request.error}")
                continue
            latency = (request.done - request.sent) * 1000.0
            sample.accept_ms.append((request.accepted - request.sent) * 1000.0)
            if request.kind == "miss":
                sample.solve_ms.append((str(request.index), latency))
                sample.queue_solve_ms.append((request.done - request.accepted) * 1000.0)
                statistics = request.result["statistics"]
                for name in STAT_FIELDS:
                    sample.counters[name] = sample.counters.get(name, 0) + statistics[name]
            else:
                sample.hit_ms.append(latency)
            self._check(run, label, request, entry)
        counters = server_stats["counters"]
        sample.counters["requests"] = counters["requests"]
        sample.counters["hits"] = counters["cache_hits"] + counters["coalesced"]
        sample.counters["solves"] = counters["solves_started"]
        sample.counters["snapshots"] = snapshots

    @staticmethod
    def _check(run, label, request, entry) -> None:
        front = request.result["front"]
        vectors = front_key(point["vector"] for point in front)
        if request.result["statistics"]["interrupted"]:
            run.fail(f"{label}: interrupted result")
            return
        if vectors != entry["front"]:
            run.fail(f"{label}: front {vectors} != golden {entry['front']}")
            return
        names = entry["objectives"]
        for point in front:
            implementation = Implementation(
                binding=dict(point["binding"]),
                routes={m: list(r) for m, r in point["routes"].items()},
                schedule=dict(point["schedule"]),
            )
            problems = validate(request.spec, implementation)
            recomputed = recompute_objectives(request.spec, implementation)
            if problems or [recomputed[name] for name in names] != list(point["vector"]):
                run.fail(f"{label}: witness of {point['vector']} invalid: {problems}")
                return

    def finish(self, run: RunResult) -> None:
        run.peak_rss_mb = peak_rss_mb()


WORKLOADS = {cls.name: cls for cls in (CuratedSeq, FirewallPar2, ServeMixed)}
