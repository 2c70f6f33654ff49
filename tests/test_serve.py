"""End-to-end tests for the DSE serving layer (`repro.serve`).

All tests drive a real :class:`DseServer` over a loopback socket with
:class:`ServeClient`.  The event loop is owned per-test via
``asyncio.run`` (no pytest-asyncio dependency).  Deterministic overload
and cancellation scenarios monkeypatch ``DseServer._solve_blocking``
with a cooperative fake that honours the job contract (cancel event,
timeout flag, interrupted statistics) without burning solver time.
"""

import asyncio
import time

import pytest

from repro.dse.explorer import DseResult, DseStatistics, explore
from repro.serve import DseServer, ServeClient, ServerConfig
from repro.serve.admission import estimate_work
from repro.serve.cache import ResultCache, make_cache_key
from repro.serve.protocol import ProtocolError, decode_message, encode_message
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
from repro.synthesis.solution import Implementation, validate
from repro.workloads.curated import curated


def tradeoff_spec() -> Specification:
    """Two tasks, fast-but-costly vs slow-but-cheap resources."""
    application = Application(
        tasks=(Task("a"), Task("b")),
        messages=(Message("m", "a", "b", size=2),),
    )
    architecture = Architecture(
        resources=(Resource("fast", cost=8), Resource("slow", cost=2)),
        links=(Link("f2s", "fast", "slow"), Link("s2f", "slow", "fast")),
    )
    mappings = (
        MappingOption("a", "fast", wcet=2, energy=4),
        MappingOption("a", "slow", wcet=5, energy=1),
        MappingOption("b", "fast", wcet=3, energy=6),
        MappingOption("b", "slow", wcet=7, energy=2),
    )
    return Specification(application, architecture, mappings)


def single_task_spec(wcet: int = 3) -> Specification:
    application = Application(tasks=(Task("t"),), messages=())
    architecture = Architecture(
        resources=(Resource("r1", cost=1), Resource("r2", cost=2)), links=()
    )
    mappings = (
        MappingOption("t", "r1", wcet=wcet, energy=2),
        MappingOption("t", "r2", wcet=wcet + 1, energy=1),
    )
    return Specification(application, architecture, mappings)


def unroutable_spec() -> Specification:
    """Message between tasks pinned to unconnected resources."""
    application = Application(
        tasks=(Task("a"), Task("b")),
        messages=(Message("m", "a", "b"),),
    )
    architecture = Architecture(
        resources=(Resource("r1", cost=1), Resource("r2", cost=1)),
        links=(),  # no path between r1 and r2
    )
    mappings = (
        MappingOption("a", "r1", wcet=1, energy=1),
        MappingOption("b", "r2", wcet=1, energy=1),
    )
    return Specification(application, architecture, mappings)


def witness(entry) -> Implementation:
    """The implementation of one serialized front entry."""
    return Implementation(
        binding=dict(entry["binding"]),
        routes={m: list(r) for m, r in entry["routes"].items()},
        schedule=dict(entry["schedule"]),
        objectives=dict(entry["objective_values"]),
    )


def run(coro):
    return asyncio.run(coro)


async def started_server(**overrides) -> DseServer:
    config = ServerConfig(port=0, **overrides)
    server = DseServer(config)
    await server.start()
    return server


def fake_slow_solve(duration: float = 0.3):
    """A _solve_blocking stand-in: cooperative sleep, exact empty result."""

    def solve(self, job):
        deadline = time.monotonic() + duration
        hard_stop = (
            None
            if job.timeout is None
            else time.monotonic() + job.timeout
        )
        while time.monotonic() < deadline:
            if job.cancel_event.is_set():
                break
            if hard_stop is not None and time.monotonic() > hard_stop:
                job.timed_out = True
                break
            time.sleep(0.005)
        stats = DseStatistics()
        stats.interrupted = job.cancel_event.is_set() or job.timed_out
        return DseResult(tuple(job.objectives), [], stats)

    return solve


# ---------------------------------------------------------------------------
# Round trips and exactness
# ---------------------------------------------------------------------------


def test_round_trip_streams_exact_front():
    spec = tradeoff_spec()
    direct = explore(spec).to_dict()

    async def scenario():
        server = await started_server(chunk_conflicts=None)
        host, port = server.address
        client = await ServeClient.connect(host, port)
        try:
            outcome = await client.solve(specification_to_dict(spec))
        finally:
            await client.close()
        await server.shutdown()
        return outcome

    outcome = run(scenario())
    assert outcome.ok and not outcome.cached
    # The acceptance bar: the streamed final front is bit-identical to a
    # direct sequential explore() — vectors AND witnesses, same order.
    assert outcome.result["front"] == direct["front"]
    assert outcome.result["objectives"] == direct["objectives"]
    assert outcome.result["statistics"]["models_enumerated"] > 0
    # Anytime guarantee: every final front vector was streamed as a
    # snapshot before the terminal result arrived.
    streamed = {tuple(v) for batch in outcome.snapshots for v in batch}
    final = {tuple(entry["vector"]) for entry in outcome.result["front"]}
    assert final <= streamed


@pytest.mark.parametrize("chunk", [None, 5])
def test_exactness_on_curated_workloads(chunk):
    """Vectors match a direct explore() for every curated workload."""
    specs = [tradeoff_spec(), single_task_spec()]

    async def scenario():
        server = await started_server(chunk_conflicts=chunk)
        host, port = server.address
        outcomes = []
        for spec in specs:
            client = await ServeClient.connect(host, port)
            try:
                outcomes.append(
                    await client.solve(specification_to_dict(spec))
                )
            finally:
                await client.close()
        await server.shutdown()
        return outcomes

    for spec, outcome in zip(specs, run(scenario())):
        direct = explore(spec)
        assert outcome.ok
        served = sorted(tuple(e["vector"]) for e in outcome.result["front"])
        assert served == direct.vectors()
        if chunk is None:
            assert outcome.result["front"] == direct.to_dict()["front"]


def test_subscribe_false_suppresses_snapshots():
    async def scenario():
        server = await started_server()
        host, port = server.address
        client = await ServeClient.connect(host, port)
        try:
            outcome = await client.solve(
                specification_to_dict(tradeoff_spec()), subscribe=False
            )
        finally:
            await client.close()
        await server.shutdown()
        return outcome

    outcome = run(scenario())
    assert outcome.ok
    assert outcome.snapshots == []


# ---------------------------------------------------------------------------
# Cache and coalescing
# ---------------------------------------------------------------------------


def test_identical_request_hits_cache():
    async def scenario():
        server = await started_server()
        host, port = server.address
        payload = specification_to_dict(tradeoff_spec())
        client = await ServeClient.connect(host, port)
        try:
            first = await client.solve(payload)
            second = await client.solve(payload)
        finally:
            await client.close()
        await server.shutdown()
        return server, first, second

    server, first, second = run(scenario())
    assert first.ok and not first.cached
    assert second.ok and second.cached
    assert second.result == first.result
    assert server.counters["solves_started"] == 1
    assert server.counters["cache_hits"] == 1


def test_renamed_twin_hits_cache_with_valid_witnesses():
    from repro.fuzz.oracles import _rename_spec

    spec = tradeoff_spec()
    renamed = _rename_spec(spec, "z")

    async def scenario():
        server = await started_server()
        host, port = server.address
        client = await ServeClient.connect(host, port)
        try:
            first = await client.solve(specification_to_dict(spec))
            second = await client.solve(specification_to_dict(renamed))
        finally:
            await client.close()
        await server.shutdown()
        return server, first, second

    server, first, second = run(scenario())
    assert second.cached, "isomorphic twin must dedup onto the same entry"
    assert server.counters["solves_started"] == 1
    assert [e["vector"] for e in second.result["front"]] == [
        e["vector"] for e in first.result["front"]
    ]
    # The cached witnesses were remapped into the twin's namespace and
    # must be valid implementations of the twin.
    for entry in second.result["front"]:
        assert validate(renamed, witness(entry)) == []


def test_inexact_canonical_form_still_serves_exact_fronts(monkeypatch):
    """Past the canonicalizer's leaf budget (``exact=False``) a request
    and its renamed twin both get explore()'s vectors, each with
    witnesses valid in its own names."""
    import repro.serve.server as server_module
    from repro.analysis.canonical import canonicalize_specification
    from repro.fuzz.oracles import _rename_spec

    exact = []

    def capped(spec):
        canonical = canonicalize_specification(spec, max_leaves=1)
        exact.append(canonical.exact)
        return canonical

    monkeypatch.setattr(server_module, "canonicalize_specification", capped)
    # Two interchangeable pairs a->b and c->d, each task fast on one of
    # two identical resources: the search needs more than one leaf.
    options = []
    for task, fast in (("a", "p"), ("b", "q"), ("c", "p"), ("d", "q")):
        for resource in ("p", "q"):
            wcet = 2 if resource == fast else 5
            options.append(
                MappingOption(task, resource, wcet=wcet, energy=7 - wcet)
            )
    spec = Specification(
        Application(
            tasks=(Task("a"), Task("b"), Task("c"), Task("d")),
            messages=(Message("m1", "a", "b"), Message("m2", "c", "d")),
        ),
        Architecture(
            resources=(Resource("p", cost=3), Resource("q", cost=3)),
            links=(Link("pq", "p", "q"), Link("qp", "q", "p")),
        ),
        tuple(options),
    )
    twin = _rename_spec(spec, "z")

    async def scenario():
        server = await started_server()
        host, port = server.address
        client = await ServeClient.connect(host, port)
        try:
            first = await client.solve(specification_to_dict(spec))
            second = await client.solve(specification_to_dict(twin))
        finally:
            await client.close()
        await server.shutdown()
        return first, second

    first, second = run(scenario())
    assert exact == [False, False]
    direct = explore(spec).vectors()
    assert len(direct) == 3
    for outcome, served_spec in ((first, spec), (second, twin)):
        assert outcome.ok
        front = outcome.result["front"]
        assert sorted(tuple(e["vector"]) for e in front) == direct
        for entry in front:
            assert validate(served_spec, witness(entry)) == []


def test_concurrent_identical_specs_coalesce_to_one_solve(monkeypatch):
    calls = []
    original = DseServer._solve_blocking

    def slow(self, job):
        calls.append(job.job_id)
        time.sleep(0.2)
        return original(self, job)

    monkeypatch.setattr(DseServer, "_solve_blocking", slow)
    payload = specification_to_dict(tradeoff_spec())

    async def scenario():
        server = await started_server(solve_workers=4)
        host, port = server.address
        clients = [await ServeClient.connect(host, port) for _ in range(5)]
        try:
            outcomes = await asyncio.gather(
                *(client.solve(payload) for client in clients)
            )
        finally:
            for client in clients:
                await client.close()
        await server.shutdown()
        return server, outcomes

    server, outcomes = run(scenario())
    assert len(calls) == 1, "N identical concurrent specs -> one solve"
    assert server.counters["solves_started"] == 1
    assert server.counters["requests"] == 5
    assert sum(1 for o in outcomes if o.coalesced) == 4
    fronts = [o.result["front"] for o in outcomes]
    assert all(front == fronts[0] for front in fronts)


def duplicate_heavy_stream():
    """80 seeded requests over 6 admissible generated specs.

    Half the repeats are renamed isomorphic twins, the way clients
    resubmit one design under their own names.
    """
    import random

    from repro.fuzz.generators import generate_spec
    from repro.fuzz.oracles import _rename_spec
    from repro.serve.admission import admit

    pool = []
    candidate = 0
    while len(pool) < 6:
        spec_input = generate_spec(candidate)
        candidate += 1
        spec = spec_input.specification
        # Small binding spaces keep the solves short: this is a test of
        # the serving layer, not the solver.
        if spec.binding_space_size() > 64:
            continue
        if admit(spec, spec_input.objectives).admitted:
            pool.append(spec_input)
    rng = random.Random("bench-serve-0")
    stream = []
    for _ in range(80):
        spec_input = rng.choice(pool)
        spec = spec_input.specification
        if rng.random() < 0.5:
            spec = _rename_spec(spec, f"x{rng.randrange(3)}")
        stream.append(
            {
                "spec": specification_to_dict(spec),
                "objectives": list(spec_input.objectives),
                "options": {"latency_bound": spec_input.latency_bound},
            }
        )
    return stream


def test_duplicate_heavy_stream_solves_each_spec_once():
    """80 requests over 6 specs from 8 clients: 6 solves, the rest reuse."""
    stream = duplicate_heavy_stream()

    async def drive(server):
        host, port = server.address
        pending = list(reversed(stream))
        failures = []

        async def client_loop():
            client = await ServeClient.connect(host, port)
            try:
                while pending:
                    request = pending.pop()
                    outcome = await client.solve(
                        request["spec"],
                        objectives=request["objectives"],
                        options=request["options"],
                    )
                    if not outcome.ok:
                        failures.append(outcome.cancelled or outcome.error)
            finally:
                await client.close()

        await asyncio.gather(*(client_loop() for _ in range(8)))
        return failures, dict(server.counters)

    async def scenario():
        server = await started_server()
        first = await drive(server)
        replay = await drive(server)
        await server.shutdown()
        return first, replay

    (failures, first), (replay_failures, replay) = run(scenario())
    assert failures == [] and replay_failures == []
    assert first["requests"] == len(stream) == 80
    assert first["protocol_errors"] == 0
    assert first["solves_started"] == 6
    assert first["cache_hits"] + first["coalesced"] == 74
    # Replaying the stream is served from the cache alone.
    assert replay["cache_hits"] - first["cache_hits"] == 80
    assert replay["solves_started"] == 6
    assert replay["coalesced"] == first["coalesced"]
    assert replay["protocol_errors"] == 0


def test_result_cache_is_bounded_lru():
    cache = ResultCache(capacity=2)
    exact = {"front": [], "statistics": {"interrupted": False}}
    for digest in ("d1", "d2", "d3"):
        cache.put(make_cache_key(digest, ("latency",)), dict(exact))
    assert len(cache) == 2
    assert cache.stats.evictions == 1
    assert cache.get(make_cache_key("d1", ("latency",))) is None  # evicted


def test_cache_refuses_interrupted_results():
    cache = ResultCache(capacity=4)
    key = make_cache_key("digest", ("latency",))
    assert not cache.put(key, {"front": [], "statistics": {"interrupted": True}})
    assert cache.get(key) is None
    assert cache.stats.rejected_inexact == 1


def test_execution_knobs_stay_out_of_cache_key():
    base = make_cache_key("d", ("latency", "cost"), {"routing": "free"})
    same = make_cache_key("d", ("latency", "cost"), {})
    other = make_cache_key("d", ("latency", "cost"), {"routing": "fixed"})
    reordered = make_cache_key("d", ("cost", "latency"), {})
    assert base == same  # defaults normalize
    assert base != other  # semantics participate
    assert base != reordered  # objective order defines the vector layout


# ---------------------------------------------------------------------------
# Admission, priorities, errors
# ---------------------------------------------------------------------------


def test_lint_rejection_never_reaches_the_queue():
    async def scenario():
        server = await started_server()
        host, port = server.address
        client = await ServeClient.connect(host, port)
        try:
            with pytest.raises(ProtocolError) as excinfo:
                await client.solve(specification_to_dict(unroutable_spec()))
        finally:
            await client.close()
        await server.shutdown()
        return server, str(excinfo.value)

    server, message = run(scenario())
    assert "unroutable" in message
    assert server.counters["rejected"] == 1
    assert server.counters["solves_started"] == 0
    assert server._queue.qsize() == 0


def test_malformed_requests_get_error_events():
    async def scenario():
        server = await started_server()
        host, port = server.address
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(b"this is not json\n")
        writer.write(encode_message({"id": 7, "action": "frobnicate"}))
        writer.write(
            encode_message({"id": 8, "action": "solve", "spec": {"nope": 1}})
        )
        await writer.drain()
        events = [decode_message((await reader.readline()).strip()) for _ in range(3)]
        writer.close()
        await writer.wait_closed()
        await server.shutdown()
        return server, events

    server, events = run(scenario())
    assert [event["event"] for event in events] == ["error"] * 3
    assert "unknown action" in events[1]["message"]
    assert "bad spec" in events[2]["message"]
    assert server.counters["protocol_errors"] >= 2
    assert server.counters["solves_started"] == 0


def test_unknown_options_are_rejected():
    # symmetry and domain_bounds are not in the cache key, so accepting
    # them would let one setting's cached front answer the other's.
    async def scenario():
        server = await started_server()
        host, port = server.address
        client = await ServeClient.connect(host, port)
        messages = []
        try:
            for name, value in (
                ("jobz", 4),
                ("symmetry", "off"),
                ("domain_bounds", "auto"),
            ):
                with pytest.raises(ProtocolError) as excinfo:
                    await client.solve(
                        specification_to_dict(tradeoff_spec()),
                        options={name: value},
                    )
                messages.append(str(excinfo.value))
        finally:
            await client.close()
        await server.shutdown()
        return messages

    messages = run(scenario())
    assert len(messages) == 3
    for name, message in zip(("jobz", "symmetry", "domain_bounds"), messages):
        assert "unknown options" in message and name in message


def test_priority_queue_orders_by_estimated_work(monkeypatch):
    """With one busy worker, the smaller queued job is solved first."""
    solved = []
    original = DseServer._solve_blocking

    def recording(self, job):
        solved.append(len(job.spec.application.tasks))
        time.sleep(0.15)
        return original(self, job)

    monkeypatch.setattr(DseServer, "_solve_blocking", recording)
    blocker = single_task_spec(wcet=9)  # occupies the only worker
    big = tradeoff_spec()  # 2 tasks, larger estimate
    small = single_task_spec(wcet=2)  # 1 task, smaller estimate

    async def scenario():
        server = await started_server(solve_workers=1)
        host, port = server.address
        clients = [await ServeClient.connect(host, port) for _ in range(3)]
        try:
            first = asyncio.ensure_future(
                clients[0].solve(specification_to_dict(blocker))
            )
            while not solved:  # the blocker is on the worker
                await asyncio.sleep(0.01)
            outcomes = await asyncio.gather(
                clients[1].solve(specification_to_dict(big)),
                clients[2].solve(specification_to_dict(small)),
                first,
            )
        finally:
            for client in clients:
                await client.close()
        await server.shutdown()
        return outcomes

    run(scenario())
    # Submission order was big-then-small; service order must flip.
    assert solved[1:] == [1, 2]
    assert estimate_work(single_task_spec()) < estimate_work(tradeoff_spec())


def test_estimate_is_exact_past_the_float_range():
    """600 tasks x 4 options: 4**600 ~ 1e361 overflows a float."""
    tasks = tuple(Task(f"t{index}") for index in range(600))
    resources = tuple(Resource(f"r{index}", cost=index + 1) for index in range(4))
    mappings = tuple(
        MappingOption(task.name, resource.name, wcet=1, energy=1)
        for task in tasks
        for resource in resources
    )
    huge = Specification(
        Application(tasks=tasks, messages=()),
        Architecture(resources=resources, links=()),
        mappings,
    )
    estimate = estimate_work(huge)
    assert estimate == 4**600
    assert estimate_work(tradeoff_spec()) < estimate


# ---------------------------------------------------------------------------
# Timeouts, cancellation, shutdown
# ---------------------------------------------------------------------------


def test_timeout_returns_partial_and_is_never_cached():
    async def scenario():
        server = await started_server()
        host, port = server.address
        payload = specification_to_dict(tradeoff_spec())
        client = await ServeClient.connect(host, port)
        try:
            timed_out = await client.solve(payload, timeout=0.0)
            fresh = await client.solve(payload)
        finally:
            await client.close()
        await server.shutdown()
        return server, timed_out, fresh

    server, timed_out, fresh = run(scenario())
    assert timed_out.cancelled is not None
    assert timed_out.cancelled["reason"] == "timeout"
    assert server.counters["solves_timeout"] == 1
    # The interrupted run never populated the cache: the retry solved.
    assert fresh.ok and not fresh.cached
    assert server.counters["solves_started"] == 2
    assert server.cache.stats.insertions == 1


def solve_network_firewall(**config):
    """Solve curated network_firewall (1915 conflicts unchunked) once."""

    async def scenario():
        server = await started_server(**config)
        host, port = server.address
        client = await ServeClient.connect(host, port)
        try:
            outcome = await client.solve(
                specification_to_dict(curated("network_firewall"))
            )
        finally:
            await client.close()
        await server.shutdown()
        return server, outcome

    return run(scenario())


def test_conflict_budget_counts_conflicts_not_polls():
    # The budget caps the conflicts of the job's one worker; polling
    # should_stop once per model and per chunk must not spend it.
    server, outcome = solve_network_firewall(conflict_budget=5000)
    assert outcome.ok, outcome.cancelled
    assert outcome.result["statistics"]["conflicts"] <= 5000
    served = sorted(tuple(e["vector"]) for e in outcome.result["front"])
    assert served == explore(curated("network_firewall")).vectors()
    assert server.cache.stats.insertions == 1


def test_unchunked_conflict_budget_still_binds():
    server, outcome = solve_network_firewall(
        conflict_budget=1000, chunk_conflicts=None
    )
    assert outcome.cancelled is not None
    assert outcome.cancelled["reason"] == "conflict-budget"
    assert outcome.cancelled["partial"]["statistics"]["conflicts"] <= 1000
    assert len(server.cache) == 0


def test_client_cancellation(monkeypatch):
    monkeypatch.setattr(DseServer, "_solve_blocking", fake_slow_solve(5.0))

    async def scenario():
        server = await started_server()
        host, port = server.address
        client = await ServeClient.connect(host, port)
        try:
            task = asyncio.ensure_future(
                client.solve(specification_to_dict(tradeoff_spec()))
            )
            while not server._inflight:
                await asyncio.sleep(0.01)
            job = next(iter(server._inflight.values()))
            await client.cancel(job.job_id)
            outcome = await asyncio.wait_for(task, timeout=5)
        finally:
            await client.close()
        await server.shutdown()
        return server, outcome

    server, outcome = run(scenario())
    assert outcome.cancelled is not None
    assert outcome.cancelled["reason"] == "cancelled"
    assert server.counters["solves_cancelled"] == 1
    assert len(server.cache) == 0


def test_disconnect_abandons_the_job(monkeypatch):
    monkeypatch.setattr(DseServer, "_solve_blocking", fake_slow_solve(5.0))

    async def scenario():
        server = await started_server()
        host, port = server.address
        client = await ServeClient.connect(host, port)
        task = asyncio.ensure_future(
            client.solve(specification_to_dict(tradeoff_spec()))
        )
        while not server._inflight:
            await asyncio.sleep(0.01)
        job = next(iter(server._inflight.values()))
        await client.close()  # subscriber walks away mid-solve
        task.cancel()
        await asyncio.wait_for(job.finished.wait(), timeout=5)
        await server.shutdown()
        return server

    server = run(scenario())
    assert server.counters["solves_cancelled"] == 1
    assert len(server.cache) == 0


def test_graceful_shutdown_drains_queued_jobs(monkeypatch):
    original = DseServer._solve_blocking

    def slow(self, job):
        time.sleep(0.15)
        return original(self, job)

    monkeypatch.setattr(DseServer, "_solve_blocking", slow)
    specs = [tradeoff_spec(), single_task_spec(2), single_task_spec(5)]

    async def scenario():
        server = await started_server(solve_workers=1)
        host, port = server.address
        clients = [await ServeClient.connect(host, port) for _ in specs]
        try:
            tasks = [
                asyncio.ensure_future(
                    client.solve(specification_to_dict(spec))
                )
                for client, spec in zip(clients, specs)
            ]
            while len(server._inflight) < len(specs):
                await asyncio.sleep(0.01)
            await server.shutdown(drain=True)  # must deliver, not drop
            outcomes = await asyncio.gather(*tasks)
        finally:
            for client in clients:
                await client.close()
        return server, outcomes

    server, outcomes = run(scenario())
    assert all(outcome.ok for outcome in outcomes)
    assert server.counters["solves_completed"] == len(specs)
    assert server.counters["solves_cancelled"] == 0


# ---------------------------------------------------------------------------
# HTTP facade and observability
# ---------------------------------------------------------------------------


async def _http_request(host, port, raw: bytes):
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(raw)
    await writer.drain()
    response = await reader.read()
    writer.close()
    await writer.wait_closed()
    head, _sep, body = response.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    import json

    return status, json.loads(body.decode("utf-8"))


def test_http_facade():
    import json

    spec_body = json.dumps(
        {"spec": specification_to_dict(tradeoff_spec())}
    ).encode("utf-8")

    async def scenario():
        server = await started_server()
        host, port = server.address
        health = await _http_request(
            host, port, b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        solve = await _http_request(
            host,
            port,
            b"POST /solve HTTP/1.1\r\nHost: x\r\nContent-Length: "
            + str(len(spec_body)).encode()
            + b"\r\n\r\n"
            + spec_body,
        )
        stats = await _http_request(
            host, port, b"GET /stats HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        missing = await _http_request(
            host, port, b"GET /nope HTTP/1.1\r\nHost: x\r\n\r\n"
        )
        await server.shutdown()
        return health, solve, stats, missing

    health, solve, stats, missing = run(scenario())
    assert health == (200, {"status": "ok"})
    assert solve[0] == 200
    direct = explore(tradeoff_spec())
    assert (
        sorted(tuple(e["vector"]) for e in solve[1]["result"]["front"])
        == direct.vectors()
    )
    assert stats[0] == 200
    assert stats[1]["counters"]["solves_started"] == 1
    assert missing[0] == 404


def test_stats_and_ping_actions():
    async def scenario():
        server = await started_server()
        host, port = server.address
        client = await ServeClient.connect(host, port)
        try:
            pong = await client.ping()
            stats = await client.stats()
        finally:
            await client.close()
        await server.shutdown()
        return pong, stats

    pong, stats = run(scenario())
    assert pong["event"] == "pong"
    assert stats["counters"]["requests"] == 0
    assert stats["cache"]["capacity"] == 128
