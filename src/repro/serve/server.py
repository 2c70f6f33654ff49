"""The asyncio DSE server.

One :class:`DseServer` owns a TCP listener speaking the JSON-lines
protocol (with an HTTP facade for probes), a bounded LRU result cache
keyed by canonical spec digests, an admission gate, a priority solve
queue (shortest estimated work first) and a pool of solve workers that
run the exact explorers in a thread executor.  See ``docs/SERVING.md``
for the protocol walkthrough and the cache/exactness guarantees.

Life of a request::

    line -> decode -> spec -> lint triage -> canonicalize
         -> cache hit?      -> remap witnesses -> result
         -> in flight?      -> attach subscriber (coalesce)
         -> else            -> encode + estimate -> priority queue
    worker: dequeue -> solve (thread) -> snapshots stream back
         -> exact?  cache (canonical namespace) + result to subscribers
         -> else    cancelled/timeout event (never cached)

Every mutation of the job tables happens on the event loop (the solver
thread reaches back only via ``call_soon_threadsafe``), so the
check-then-register sequences below are race-free without locks.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass, field
from threading import Event as ThreadEvent
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.canonical import (
    CanonicalSpec,
    canonicalize_specification,
    invert_name_map,
    remap_front_entry,
)
from repro.serve.admission import admit, estimate_work
from repro.serve.cache import ResultCache, make_cache_key
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_message,
    encode_message,
    encode_snapshot,
)
from repro.synthesis.io import specification_from_dict
from repro.synthesis.model import Specification, SpecificationError

__all__ = ["ServerConfig", "DseServer", "DEFAULT_OBJECTIVES"]

DEFAULT_OBJECTIVES: Tuple[str, ...] = ("latency", "energy", "cost")

#: Request options forwarded to :func:`repro.synthesis.encoding.encode`.
#: Anything else in the ``options`` object is rejected, so typos cannot
#: silently solve a different problem than the client asked for.
ENCODE_OPTIONS = ("serialize", "routing", "link_contention", "latency_bound")


@dataclass
class ServerConfig:
    """Deployment knobs (see ``python -m repro.serve --help``)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; the bound port is in server.address
    #: Concurrent solves (threads draining the priority queue).
    solve_workers: int = 2
    #: Explorer workers per solve: 1 = the sequential exact explorer
    #: (identical vectors vs. a direct ``explore()``, and identical
    #: witnesses too when ``chunk_conflicts`` is None), >1 = parallel
    #: cube workers (identical vectors).
    solve_jobs: int = 1
    #: Backend for ``solve_jobs > 1``.
    parallel_backend: str = "process"
    cache_size: int = 128
    #: Wall-clock ceiling per solve (seconds); None = unlimited.  A
    #: request may *lower* it, never raise it.
    default_timeout: Optional[float] = None
    #: Conflict budget of each explorer worker of a job (the job's
    #: total when ``solve_jobs`` is 1); None = unlimited.
    conflict_budget: Optional[int] = None
    #: Conflicts per solver chunk — the cancellation/timeout latency
    #: knob.  None disables chunking (maximally faithful to a direct
    #: ``explore()`` run, but a job only notices cancellation between
    #: enumerated models).
    chunk_conflicts: Optional[int] = 200


@dataclass
class _Subscriber:
    writer: Optional[asyncio.StreamWriter]
    request_id: object
    subscribe: bool
    #: canonical -> this client's names (four maps).
    inverse_maps: Tuple[Dict[str, str], Dict[str, str], Dict[str, str], Dict[str, str]]
    #: Set for HTTP waiters instead of streaming events.
    future: Optional[asyncio.Future] = None


@dataclass
class _Job:
    job_id: int
    key: Tuple
    spec: Specification
    canonical: CanonicalSpec
    objectives: Tuple[str, ...]
    options: Dict[str, object]
    timeout: Optional[float]
    subscribers: List[_Subscriber] = field(default_factory=list)
    cancel_event: ThreadEvent = field(default_factory=ThreadEvent)
    finished: asyncio.Event = field(default_factory=asyncio.Event)
    instance: object = None
    estimate: float = 0.0
    timed_out: bool = False
    budget_exhausted: bool = False
    cancel_reason: str = "cancelled"


def _forward_maps(canonical: CanonicalSpec):
    return (
        canonical.task_map,
        canonical.resource_map,
        canonical.message_map,
        canonical.link_map,
    )


def _inverse_maps(canonical: CanonicalSpec):
    return (
        invert_name_map(canonical.task_map),
        invert_name_map(canonical.resource_map),
        invert_name_map(canonical.message_map),
        invert_name_map(canonical.link_map),
    )


def _remap_result(payload: Dict[str, object], maps) -> Dict[str, object]:
    """Rename every front witness of a serialized result through maps."""
    remapped = dict(payload)
    remapped["front"] = [
        remap_front_entry(entry, *maps) for entry in payload.get("front", [])
    ]
    return remapped


class DseServer:
    """Serve exact design space exploration over TCP."""

    def __init__(self, config: Optional[ServerConfig] = None) -> None:
        self.config = config or ServerConfig()
        self.cache = ResultCache(self.config.cache_size)
        self.counters: Dict[str, int] = {
            "requests": 0,
            "admitted": 0,
            "rejected": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "solves_started": 0,
            "solves_completed": 0,
            "solves_cancelled": 0,
            "solves_timeout": 0,
            "errors": 0,
            "protocol_errors": 0,
        }
        self._inflight: Dict[Tuple, _Job] = {}
        self._queue: "asyncio.PriorityQueue" = None  # created in start()
        self._workers: List[asyncio.Task] = []
        self._server: Optional[asyncio.AbstractServer] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._executor = None
        self._accepting = False
        self._sequence = 0
        self._next_job = 0

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        sockets = self._server.sockets if self._server else ()
        if not sockets:
            raise RuntimeError("server is not listening")
        host, port = sockets[0].getsockname()[:2]
        return host, port

    async def start(self) -> Tuple[str, int]:
        from concurrent.futures import ThreadPoolExecutor

        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.PriorityQueue()
        self._executor = ThreadPoolExecutor(
            max_workers=max(2, self.config.solve_workers + 1),
            thread_name_prefix="repro-serve",
        )
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            limit=MAX_LINE_BYTES,
        )
        self._accepting = True
        self._workers = [
            asyncio.ensure_future(self._worker_loop())
            for _ in range(max(1, self.config.solve_workers))
        ]
        return self.address

    async def shutdown(self, drain: bool = True) -> None:
        """Stop accepting, then drain (default) or cancel open jobs.

        ``drain=True`` lets every queued and running job finish and
        deliver its result before the server closes — the graceful
        path.  ``drain=False`` cancels everything cooperatively first.
        """
        self._accepting = False
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        jobs = list(self._inflight.values())
        if not drain:
            for job in jobs:
                job.cancel_reason = "shutdown"
                job.cancel_event.set()
        for job in jobs:
            await job.finished.wait()
        for worker in self._workers:
            worker.cancel()
        for worker in self._workers:
            try:
                await worker
            except asyncio.CancelledError:
                pass
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    async def serve_forever(self) -> None:
        await self._server.serve_forever()

    # -- connection handling ----------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        subscriptions: List[Tuple[_Job, _Subscriber]] = []
        try:
            first = await reader.readline()
            if not first:
                return
            if first.split(b" ", 1)[0] in (b"GET", b"POST", b"HEAD"):
                await self._handle_http(first, reader, writer)
                return
            line: Optional[bytes] = first
            while line:
                stripped = line.strip()
                if stripped:
                    await self._dispatch(stripped, writer, subscriptions)
                try:
                    line = await reader.readline()
                except (ValueError, ConnectionError):
                    self.counters["protocol_errors"] += 1
                    break
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            self._detach(subscriptions)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _detach(self, subscriptions: List[Tuple[_Job, _Subscriber]]) -> None:
        """Drop a closed connection's subscribers; cancel orphaned jobs."""
        for job, subscriber in subscriptions:
            if subscriber in job.subscribers:
                job.subscribers.remove(subscriber)
            if not job.subscribers and not job.finished.is_set():
                job.cancel_reason = "abandoned"
                job.cancel_event.set()
        subscriptions.clear()

    async def _dispatch(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        subscriptions: List[Tuple[_Job, _Subscriber]],
    ) -> None:
        try:
            message = decode_message(line)
        except ProtocolError as error:
            self.counters["protocol_errors"] += 1
            await self._send(writer, {"event": "error", "message": str(error)})
            return
        request_id = message.get("id")
        action = message.get("action")
        try:
            if action == "solve":
                await self._handle_solve(message, writer, subscriptions)
            elif action == "cancel":
                self._handle_cancel(message, subscriptions)
                await self._send(
                    writer, {"id": request_id, "event": "cancel-requested"}
                )
            elif action == "stats":
                await self._send(
                    writer,
                    {"id": request_id, "event": "stats", "stats": self.stats()},
                )
            elif action == "ping":
                await self._send(
                    writer,
                    {
                        "id": request_id,
                        "event": "pong",
                        "protocol": PROTOCOL_VERSION,
                    },
                )
            else:
                self.counters["protocol_errors"] += 1
                await self._send(
                    writer,
                    {
                        "id": request_id,
                        "event": "error",
                        "message": f"unknown action {action!r}",
                    },
                )
        except ConnectionError:
            raise
        except Exception as error:  # defensive: one bad request, one error
            self.counters["errors"] += 1
            await self._send(
                writer,
                {"id": request_id, "event": "error", "message": str(error)},
            )

    # -- the solve path ----------------------------------------------------

    async def _handle_solve(
        self,
        message: Dict[str, object],
        writer: Optional[asyncio.StreamWriter],
        subscriptions: List[Tuple[_Job, _Subscriber]],
        future: Optional[asyncio.Future] = None,
    ) -> None:
        self.counters["requests"] += 1
        request_id = message.get("id")

        async def reply(payload: Dict[str, object]) -> None:
            payload["id"] = request_id
            if writer is not None:
                await self._send(writer, payload)

        spec_data = message.get("spec")
        if not isinstance(spec_data, dict):
            self.counters["errors"] += 1
            await reply({"event": "error", "message": "missing spec object"})
            self._fail_future(future, "missing spec object")
            return
        objectives = tuple(message.get("objectives") or DEFAULT_OBJECTIVES)
        options = message.get("options") or {}
        unknown = sorted(set(options) - set(ENCODE_OPTIONS))
        if unknown:
            self.counters["errors"] += 1
            await reply(
                {"event": "error", "message": f"unknown options: {unknown}"}
            )
            self._fail_future(future, f"unknown options: {unknown}")
            return
        try:
            spec = specification_from_dict(spec_data)
        except (SpecificationError, KeyError, TypeError, ValueError) as error:
            self.counters["errors"] += 1
            await reply({"event": "error", "message": f"bad spec: {error}"})
            self._fail_future(future, f"bad spec: {error}")
            return

        # Admission: lint triage before anything touches the queue.
        decision = admit(spec, objectives)
        diagnostics = [d.to_dict() for d in decision.diagnostics]
        if not decision.admitted:
            self.counters["rejected"] += 1
            await reply({"event": "rejected", "diagnostics": diagnostics})
            self._fail_future(future, "rejected by admission")
            return
        self.counters["admitted"] += 1

        # Canonicalize off the loop (pure CPU), then check cache and
        # in-flight tables back on the loop — atomically, no awaits.
        canonical = await self._loop.run_in_executor(
            self._executor, canonicalize_specification, spec
        )
        key = make_cache_key(canonical.digest, objectives, options)
        subscribe = bool(message.get("subscribe", True))
        inverse = _inverse_maps(canonical)

        cached = self.cache.get(key)
        if cached is not None:
            self.counters["cache_hits"] += 1
            payload = _remap_result(cached, inverse)
            await reply(
                {
                    "event": "accepted",
                    "cached": True,
                    "coalesced": False,
                    "diagnostics": diagnostics,
                }
            )
            await reply({"event": "result", "cached": True, "result": payload})
            if future is not None and not future.done():
                future.set_result(payload)
            return

        subscriber = _Subscriber(
            writer=writer,
            request_id=request_id,
            subscribe=subscribe,
            inverse_maps=inverse,
            future=future,
        )
        existing = self._inflight.get(key)
        if existing is not None:
            self.counters["coalesced"] += 1
            existing.subscribers.append(subscriber)
            subscriptions.append((existing, subscriber))
            await reply(
                {
                    "event": "accepted",
                    "cached": False,
                    "coalesced": True,
                    "job": existing.job_id,
                    "diagnostics": diagnostics,
                }
            )
            return

        if not self._accepting:
            self.counters["errors"] += 1
            await reply({"event": "error", "message": "server is shutting down"})
            self._fail_future(future, "server is shutting down")
            return

        timeout = self.config.default_timeout
        requested = message.get("timeout")
        if requested is not None:
            requested = float(requested)
            timeout = (
                requested if timeout is None else min(timeout, requested)
            )
        self._next_job += 1
        job = _Job(
            job_id=self._next_job,
            key=key,
            spec=spec,
            canonical=canonical,
            objectives=objectives,
            options=dict(options),
            timeout=timeout,
        )
        job.subscribers.append(subscriber)
        subscriptions.append((job, subscriber))
        self._inflight[key] = job
        await reply(
            {
                "event": "accepted",
                "cached": False,
                "coalesced": False,
                "job": job.job_id,
                "diagnostics": diagnostics,
            }
        )
        try:
            job.instance, job.estimate = await self._loop.run_in_executor(
                self._executor, self._encode_blocking, job
            )
        except Exception as error:
            self.counters["errors"] += 1
            self._inflight.pop(key, None)
            job.finished.set()
            await self._notify(
                job, {"event": "error", "message": f"encode failed: {error}"}
            )
            return
        self._sequence += 1
        self._queue.put_nowait((job.estimate, self._sequence, job))

    def _encode_blocking(self, job: _Job):
        from repro.synthesis.encoding import encode

        instance = encode(job.spec, objectives=job.objectives, **job.options)
        return instance, estimate_work(job.spec, instance.program)

    def _handle_cancel(
        self,
        message: Dict[str, object],
        subscriptions: List[Tuple[_Job, _Subscriber]],
    ) -> None:
        """Cancel by job id — only jobs this connection subscribed to."""
        target = message.get("job")
        for job, _subscriber in subscriptions:
            if job.job_id == target and not job.finished.is_set():
                job.cancel_reason = "cancelled"
                job.cancel_event.set()

    # -- solve workers -----------------------------------------------------

    async def _worker_loop(self) -> None:
        while True:
            _estimate, _seq, job = await self._queue.get()
            if job.cancel_event.is_set():
                await self._finalize_cancelled(job, None)
                continue
            self.counters["solves_started"] += 1
            try:
                result = await self._loop.run_in_executor(
                    self._executor, self._solve_blocking, job
                )
            except Exception as error:
                self.counters["errors"] += 1
                self._inflight.pop(job.key, None)
                job.finished.set()
                await self._notify(
                    job, {"event": "error", "message": f"solve failed: {error}"}
                )
                continue
            payload = result.to_dict()
            if payload["statistics"]["interrupted"]:
                await self._finalize_cancelled(job, payload)
            else:
                await self._finalize_exact(job, payload)

    def _solve_blocking(self, job: _Job):
        """Run one exact exploration (executor thread).

        ``should_stop`` is polled before every solver call, and each call
        spends at most ``chunk_conflicts`` conflicts, so cancellation and
        timeouts take effect within one chunk.  ``conflict_budget`` caps
        the conflicts each worker spends; a run that hits it ends
        interrupted without ``should_stop`` having fired.
        """
        from repro.dse.parallel import ParallelParetoExplorer

        deadline = (
            None if job.timeout is None else time.monotonic() + job.timeout
        )
        stopped = False

        def should_stop() -> bool:
            nonlocal stopped
            if job.cancel_event.is_set():
                stopped = True
            elif deadline is not None and time.monotonic() > deadline:
                job.timed_out = stopped = True
            return stopped

        def publish(vectors: Sequence[Tuple[int, ...]]) -> None:
            self._loop.call_soon_threadsafe(
                self._broadcast_snapshot, job, list(vectors)
            )

        result = ParallelParetoExplorer(
            job.instance,
            jobs=self.config.solve_jobs,
            backend=self.config.parallel_backend,
            chunk_conflicts=self.config.chunk_conflicts,
            conflict_limit=self.config.conflict_budget,
        ).run(on_points=publish, should_stop=should_stop)
        job.budget_exhausted = result.statistics.interrupted and not stopped
        return result

    # -- delivery ----------------------------------------------------------

    def _broadcast_snapshot(
        self, job: _Job, vectors: List[Tuple[int, ...]]
    ) -> None:
        """Stream an anytime archive delta (loop thread, sync)."""
        if not vectors or job.finished.is_set():
            return
        blob = encode_snapshot(vectors)
        frame = {"event": "snapshot", "job": job.job_id, "delta": blob}
        for subscriber in list(job.subscribers):
            if not subscriber.subscribe or subscriber.writer is None:
                continue
            if subscriber.writer.is_closing():
                continue
            frame["id"] = subscriber.request_id
            subscriber.writer.write(encode_message(frame))

    async def _finalize_exact(self, job: _Job, payload: Dict) -> None:
        self.counters["solves_completed"] += 1
        canonical_payload = _remap_result(payload, _forward_maps(job.canonical))
        self.cache.put(job.key, canonical_payload)
        self._inflight.pop(job.key, None)
        job.finished.set()
        for subscriber in list(job.subscribers):
            client_payload = _remap_result(
                canonical_payload, subscriber.inverse_maps
            )
            if subscriber.future is not None and not subscriber.future.done():
                subscriber.future.set_result(client_payload)
            if subscriber.writer is not None:
                await self._send(
                    subscriber.writer,
                    {
                        "id": subscriber.request_id,
                        "event": "result",
                        "job": job.job_id,
                        "cached": False,
                        "result": client_payload,
                    },
                )

    async def _finalize_cancelled(
        self, job: _Job, payload: Optional[Dict]
    ) -> None:
        """Terminal path for cancelled / timed-out / over-budget jobs.

        The partial front still ships to subscribers (it is a valid
        lower archive) but is **never cached**.
        """
        if job.timed_out:
            reason = "timeout"
            self.counters["solves_timeout"] += 1
        elif job.budget_exhausted:
            reason = "conflict-budget"
            self.counters["solves_cancelled"] += 1
        else:
            reason = job.cancel_reason
            self.counters["solves_cancelled"] += 1
        canonical_payload = (
            None
            if payload is None
            else _remap_result(payload, _forward_maps(job.canonical))
        )
        self._inflight.pop(job.key, None)
        job.finished.set()
        for subscriber in list(job.subscribers):
            partial = (
                None
                if canonical_payload is None
                else _remap_result(canonical_payload, subscriber.inverse_maps)
            )
            self._fail_future(subscriber.future, f"job {reason}")
            if subscriber.writer is not None:
                await self._send(
                    subscriber.writer,
                    {
                        "id": subscriber.request_id,
                        "event": "cancelled",
                        "job": job.job_id,
                        "reason": reason,
                        "partial": partial,
                    },
                )

    async def _notify(self, job: _Job, frame: Dict[str, object]) -> None:
        for subscriber in list(job.subscribers):
            self._fail_future(
                subscriber.future, str(frame.get("message", "failed"))
            )
            if subscriber.writer is not None:
                frame["id"] = subscriber.request_id
                await self._send(subscriber.writer, dict(frame))

    @staticmethod
    def _fail_future(future: Optional[asyncio.Future], message: str) -> None:
        if future is not None and not future.done():
            future.set_exception(RuntimeError(message))

    async def _send(
        self, writer: asyncio.StreamWriter, message: Dict[str, object]
    ) -> None:
        if writer.is_closing():
            return
        writer.write(encode_message(message))
        try:
            await writer.drain()
        except (ConnectionError, OSError):
            pass

    # -- observability -----------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "protocol": PROTOCOL_VERSION,
            "counters": dict(self.counters),
            "cache": self.cache.info(),
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "inflight": len(self._inflight),
            "config": {
                "solve_workers": self.config.solve_workers,
                "solve_jobs": self.config.solve_jobs,
                "cache_size": self.config.cache_size,
                "default_timeout": self.config.default_timeout,
                "conflict_budget": self.config.conflict_budget,
                "chunk_conflicts": self.config.chunk_conflicts,
            },
        }

    # -- HTTP facade -------------------------------------------------------

    async def _handle_http(
        self,
        request_line: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            method, path, _version = request_line.decode("latin-1").split(" ", 2)
        except ValueError:
            await self._http_response(writer, 400, {"error": "bad request"})
            return
        headers: Dict[str, str] = {}
        while True:
            line = await reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _sep, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        if method == "GET" and path in ("/healthz", "/health"):
            await self._http_response(writer, 200, {"status": "ok"})
        elif method == "GET" and path == "/stats":
            await self._http_response(writer, 200, self.stats())
        elif method == "POST" and path == "/solve":
            length = int(headers.get("content-length", "0"))
            if length <= 0 or length > MAX_LINE_BYTES:
                await self._http_response(
                    writer, 400, {"error": "missing or oversized body"}
                )
                return
            body = await reader.readexactly(length)
            try:
                request = json.loads(body.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                self.counters["protocol_errors"] += 1
                await self._http_response(
                    writer, 400, {"error": f"bad JSON body: {error}"}
                )
                return
            if not isinstance(request, dict):
                request = {}
            request.setdefault("action", "solve")
            request.setdefault("subscribe", False)
            future = self._loop.create_future()
            subscriptions: List[Tuple[_Job, _Subscriber]] = []
            await self._handle_solve(request, None, subscriptions, future)
            try:
                result = await future
                await self._http_response(writer, 200, {"result": result})
            except RuntimeError as error:
                await self._http_response(writer, 422, {"error": str(error)})
            finally:
                self._detach(subscriptions)
        else:
            await self._http_response(
                writer, 404, {"error": f"no route {method} {path}"}
            )

    async def _http_response(
        self, writer: asyncio.StreamWriter, status: int, payload: Dict
    ) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 422: "Unprocessable Entity"}.get(
            status, "Error"
        )
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: close\r\n\r\n"
        ).encode("latin-1")
        if not writer.is_closing():
            writer.write(head + body)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                pass
