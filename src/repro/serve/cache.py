"""Bounded LRU cache of finished DSE results.

This lifts the ground-program LRU of :mod:`repro.asp.control` (PR 2) to
whole solve results.  Keys are *semantic*: the renaming-invariant
canonical digest of the specification (:mod:`repro.analysis.canonical`)
plus everything that changes the Pareto front — the ordered objective
tuple and the encoding semantics (``serialize`` / ``routing`` /
``link_contention`` / ``latency_bound``).  Execution knobs (worker
count, conflict budgets, timeouts) are deliberately *excluded*: they
never change the exact front, only the effort and the witness
implementations, so runs that differ only in them share one entry.

Entries store the serialized result **in the canonical namespace**
(entity names remapped through the spec's canonical maps), so two
clients submitting isomorphic specs under different names hit the same
slot; the server translates witnesses back into each client's own names
on the way out.  Only *exact* results are admitted — interrupted,
timed-out or cancelled runs must never populate the cache.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from threading import Lock
from typing import Dict, Mapping, Optional, Sequence, Tuple

__all__ = ["DEFAULT_CACHE_SIZE", "CacheStats", "ResultCache", "make_cache_key"]

DEFAULT_CACHE_SIZE = 128

#: The request options, mapped to their :func:`repro.synthesis.encoding.encode`
#: defaults.  Each changes the design space (and with it the front), so
#: all of them are part of the cache key; the server rejects any other
#: option, and execution knobs must stay out of the key.
SEMANTIC_OPTIONS = {
    "serialize": False,
    "routing": "free",
    "link_contention": False,
    "latency_bound": None,
}


def make_cache_key(
    digest: str,
    objectives: Sequence[str],
    options: Optional[Mapping[str, object]] = None,
) -> Tuple:
    """Semantic identity of a solve request.

    ``digest`` is the canonical spec digest; ``objectives`` keep their
    order (the front's vector layout depends on it); ``options`` may
    carry any mix of knobs — only the semantic ones participate.
    """
    options = options or {}
    semantics = tuple(
        (name, options.get(name, default))
        for name, default in SEMANTIC_OPTIONS.items()
    )
    return (digest, tuple(objectives), semantics)


@dataclass
class CacheStats:
    """Observable counters (exposed by the server's ``stats`` action)."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    rejected_inexact: int = 0

    def to_dict(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "insertions": self.insertions,
            "evictions": self.evictions,
            "rejected_inexact": self.rejected_inexact,
        }


class ResultCache:
    """A bounded, thread-safe LRU mapping cache keys to result dicts.

    The stored value is opaque to the cache (the server keeps
    ``DseResult.to_dict()`` payloads in canonical namespace).  ``put``
    refuses results flagged as interrupted — a timed-out or cancelled
    run has an *incomplete* front and caching it would poison every
    future hit.
    """

    def __init__(self, capacity: int = DEFAULT_CACHE_SIZE) -> None:
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: "OrderedDict[Tuple, Dict[str, object]]" = OrderedDict()
        self._lock = Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Tuple) -> Optional[Dict[str, object]]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return entry

    def put(self, key: Tuple, result: Dict[str, object]) -> bool:
        """Insert an exact result; returns False (and skips) otherwise."""
        statistics = result.get("statistics") or {}
        if statistics.get("interrupted"):
            with self._lock:
                self.stats.rejected_inexact += 1
            return False
        with self._lock:
            self._entries[key] = result
            self._entries.move_to_end(key)
            self.stats.insertions += 1
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
        return True

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def info(self) -> Dict[str, object]:
        with self._lock:
            return {
                "capacity": self.capacity,
                "entries": len(self._entries),
                **self.stats.to_dict(),
            }
