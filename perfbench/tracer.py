"""Span tracing from outside the program.

:class:`Tracer` wraps public functions and methods of the package at run
time: each call into a wrapped entry point records one span (name,
start, end, parent, thread) in memory, plus optional counters taken from
the call's arguments and result.  Nothing under ``src/`` is edited; the
wrappers live only in the process that installed them (and in processes
forked from it, whose spans are not collected).

:func:`attribute` turns spans into per-layer *self* time: every instant
of a measurement window goes to the innermost span active on each
thread, split evenly when several threads are inside spans at once, and
to ``unattributed`` when none is.  Layer times plus ``unattributed``
therefore add up to the window's wall time exactly.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import sys
import threading
from array import array
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

UNATTRIBUTED = "unattributed"


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._sid = array("q")
        self._nid = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("q")
        self._tid = array("q")
        self._mark = 0
        self.counts: Counter = Counter()
        self.enabled = False

    # -- recording ---------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _stack(self) -> List[int]:
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = [-1]
            local.tid = threading.get_ident()
            return local.stack

    def _record(self, sid, nid, start, end, parent, tid) -> None:
        with self._lock:
            self._sid.append(sid)
            self._nid.append(nid)
            self._start.append(start)
            self._end.append(end)
            self._parent.append(parent)
            self._tid.append(tid)

    def wrap(self, name: str, func: Callable, hook: Optional[Callable] = None):
        """``func`` recording a ``name`` span per call while enabled.

        ``hook(tracer, result, args)`` runs after a traced call returns,
        outside the span, to take counters from the call.
        """
        nid = self.name_id(name)
        tracer = self
        ids = self._ids
        clock = perf_counter

        @wraps(func)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return func(*args, **kwargs)
            stack = tracer._stack()
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                tracer._record(sid, nid, start, end, parent, tracer._local.tid)
            if hook is not None:
                hook(tracer, result, args)
            return result

        return traced

    def span(self, name: str):
        """Context manager recording one ``name`` span while enabled."""
        return _Span(self, name)

    # -- installing --------------------------------------------------------

    def patch_function(self, module: str, attr: str, name: str, hook=None) -> None:
        """Wrap ``module.attr`` and every already-imported alias of it.

        Modules that did ``from module import attr`` hold their own
        reference, so each ``repro`` module attribute bound to the same
        function object is replaced too.
        """
        owner = importlib.import_module(module)
        original = getattr(owner, attr)
        traced = self.wrap(name, original, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, traced)

    def patch_method(self, cls: type, attr: str, name: str, hook=None) -> None:
        setattr(cls, attr, self.wrap(name, cls.__dict__[attr], hook))

    # -- reading -----------------------------------------------------------

    def take(self) -> List[Tuple[str, float, float, int, int, int]]:
        """Spans recorded since the last ``take()``: (name, start, end,
        id, parent, thread)."""
        with self._lock:
            low, high = self._mark, len(self._sid)
            self._mark = high
        return [
            (
                self.names[self._nid[i]],
                self._start[i],
                self._end[i],
                self._sid[i],
                self._parent[i],
                self._tid[i],
            )
            for i in range(low, high)
        ]

    def take_counts(self) -> Dict[str, float]:
        counts = dict(self.counts)
        self.counts.clear()
        return counts

    def dump(self, path, extra: Optional[dict] = None) -> None:
        """Write every recorded span (and ``extra``) as gzipped JSON."""
        with self._lock:
            payload = {
                "names": self.names,
                "id": self._sid.tolist(),
                "name": self._nid.tolist(),
                "start": self._start.tolist(),
                "end": self._end.tolist(),
                "parent": self._parent.tolist(),
                "thread": self._tid.tolist(),
            }
        if extra:
            payload.update(extra)
        with gzip.open(path, "wt") as handle:
            json.dump(payload, handle)


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer = tracer
        self.name = name
        self.active = False

    def __enter__(self):
        tracer = self.tracer
        self.active = tracer.enabled
        if not self.active:
            return self
        stack = tracer._stack()
        self.sid = next(tracer._ids)
        self.parent = stack[-1]
        stack.append(self.sid)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if not self.active:
            return
        tracer = self.tracer
        self.end = perf_counter()
        tracer._stack().pop()
        tracer._record(
            self.sid,
            tracer.name_id(self.name),
            self.start,
            self.end,
            self.parent,
            tracer._local.tid,
        )


def load_spans(path) -> Tuple[List[Tuple[str, float, float, int, int, int]], dict]:
    """Spans and extra fields of a :meth:`Tracer.dump` file."""
    with gzip.open(path, "rt") as handle:
        payload = json.load(handle)
    names = payload.pop("names")
    columns = [payload.pop(key) for key in ("name", "start", "end", "id", "parent", "thread")]
    spans = [
        (names[n], s, e, i, p, t) for n, s, e, i, p, t in zip(*columns)
    ]
    return spans, payload


# ---------------------------------------------------------------------------
# Self-time attribution
# ---------------------------------------------------------------------------


def _innermost_segments(spans: Sequence[Tuple[float, float, str]]):
    """(start, end, name) pieces where ``name`` is the innermost span.

    ``spans`` come from one thread and nest properly.
    """
    out = []
    stack: List[Tuple[float, float, str]] = []
    cursor = 0.0
    for span in sorted(spans, key=lambda s: (s[0], -s[1])):
        start = span[0]
        while stack and stack[-1][1] <= start:
            top = stack.pop()
            out.append((cursor, top[1], top[2]))
            cursor = top[1]
        if stack:
            out.append((cursor, start, stack[-1][2]))
        cursor = start
        stack.append(span)
    while stack:
        top = stack.pop()
        out.append((cursor, top[1], top[2]))
        cursor = top[1]
    return [segment for segment in out if segment[1] > segment[0]]


def attribute(
    spans: Iterable[Tuple[str, float, float, int, int, int]],
    windows: Sequence[Tuple[float, float]],
) -> Tuple[Dict[str, float], Dict[str, int], float]:
    """Per-layer self seconds inside ``windows``, call counts, wall.

    ``spans`` may come from several threads (and processes sharing the
    monotonic clock).  The result's ``unattributed`` entry holds window
    time during which no thread was inside a traced call.
    """
    by_thread: Dict[int, List[Tuple[float, float, str]]] = defaultdict(list)
    calls: Counter = Counter()
    for name, start, end, _sid, _parent, thread in spans:
        calls[name] += 1
        by_thread[thread].append((start, end, name))
    events = []
    for thread_spans in by_thread.values():
        for start, end, name in _innermost_segments(thread_spans):
            events.append((start, 1, name))
            events.append((end, -1, name))
    for start, end in windows:
        events.append((start, 2, None))
        events.append((end, -2, None))
    events.sort(key=lambda event: (event[0], event[1]))
    seconds: Dict[str, float] = defaultdict(float)
    active: Counter = Counter()
    depth = 0
    in_window = 0
    previous = None
    for time, kind, name in events:
        if previous is not None and in_window and time > previous:
            dt = time - previous
            if depth:
                share = dt / depth
                for layer, count in active.items():
                    if count:
                        seconds[layer] += share * count
            else:
                seconds[UNATTRIBUTED] += dt
        previous = time
        if kind == 1:
            active[name] += 1
            depth += 1
        elif kind == -1:
            active[name] -= 1
            depth -= 1
        elif kind == 2:
            in_window += 1
        else:
            in_window -= 1
    wall = sum(end - start for start, end in windows)
    return dict(seconds), dict(calls), wall
