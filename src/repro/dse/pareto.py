"""Pareto dominance and the linear-scan archive.

All objectives are minimized.  A vector ``a`` *weakly dominates* ``b``
when ``a_i <= b_i`` for every component; it *dominates* ``b`` when it
weakly dominates and differs in at least one component.

The archive keeps a mutually non-dominated set of points with payloads.
Both archive implementations (this list and the quad-tree) count their
pairwise comparisons so the benchmark harness can contrast them
(Fig. 4).
"""

from __future__ import annotations

from itertools import chain
from typing import Dict, Generic, Iterable, Iterator, List, Optional, Sequence, Tuple, TypeVar

from repro.dse.indicators import hypervolume

__all__ = [
    "dominates",
    "weakly_dominates",
    "pareto_filter",
    "non_dominated_union",
    "hypervolume_box",
    "ListArchive",
]

Vector = Tuple[int, ...]
Payload = TypeVar("Payload")


def weakly_dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """``a_i <= b_i`` in every component (minimization)."""
    return all(x <= y for x, y in zip(a, b))


def dominates(a: Sequence[int], b: Sequence[int]) -> bool:
    """Weak dominance plus strict improvement somewhere."""
    return weakly_dominates(a, b) and any(x < y for x, y in zip(a, b))


def pareto_filter(points: Iterable[Tuple[Vector, Payload]]) -> List[Tuple[Vector, Payload]]:
    """Non-dominated subset of ``points`` (first payload per vector kept)."""
    unique: Dict[Vector, Payload] = {}
    for vector, payload in points:
        unique.setdefault(tuple(vector), payload)
    kept: List[Tuple[Vector, Payload]] = []
    for vector, payload in unique.items():
        if any(dominates(other, vector) for other in unique):
            continue
        kept.append((vector, payload))
    kept.sort(key=lambda item: item[0])
    return kept


def non_dominated_union(
    *fronts: Iterable[Tuple[Vector, Payload]]
) -> List[Tuple[Vector, Payload]]:
    """Non-dominated union of several fronts (the subspace-merge reduction).

    For any partition of a design space into disjoint subspaces, the
    union of the per-subspace Pareto fronts filtered for dominance is the
    exact global front — this is the merge step of the parallel explorer.
    Accepts any iterables of ``(vector, payload)`` pairs (archives
    iterate that way); for duplicate vectors the payload from the
    earliest front wins, so pass fronts in a deterministic order.
    """
    return pareto_filter(chain.from_iterable(fronts))


def hypervolume_box(
    lower: Sequence[int],
    upper: Sequence[int],
    points: Iterable[Sequence[int]],
) -> int:
    """Volume of ``[lower, upper)`` *not* weakly dominated by ``points``.

    The elastic cube scheduler uses this as the priority of a cube: with
    ``lower`` the cube's objective lower-bound corner and ``upper`` the
    reference point, the result is the hypervolume the cube could still
    contribute to the current archive — fat, unexplored objective regions
    first.  Exact (no sampling), deterministic, and monotone: adding
    archive points never increases the value.  Returns 0 for an empty or
    fully dominated box.  The dominated part is the hypervolume of the
    points clipped up into the box (:func:`~repro.dse.indicators.hypervolume`).
    """
    box = 1
    for low, up in zip(lower, upper):
        if up <= low:
            return 0
        box *= up - low
    corners = [tuple(max(p, low) for p, low in zip(point, lower)) for point in points]
    return box - hypervolume(corners, upper)


class ListArchive(Generic[Payload]):
    """Linear-scan Pareto archive."""

    def __init__(self) -> None:
        self._points: List[Tuple[Vector, Payload]] = []
        #: Number of pairwise vector comparisons performed (benchmarking).
        self.comparisons = 0

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[Tuple[Vector, Payload]]:
        return iter(self._points)

    def vectors(self) -> List[Vector]:
        return [vector for vector, _payload in self._points]

    def find_weak_dominator(self, vector: Sequence[int]) -> Optional[Vector]:
        """An archive vector that weakly dominates ``vector``, if any."""
        vector = tuple(vector)
        for point, _payload in self._points:
            self.comparisons += 1
            if weakly_dominates(point, vector):
                return point
        return None

    def add(self, vector: Sequence[int], payload: Payload) -> bool:
        """Insert a point; returns False when it is weakly dominated.

        On insertion, archive points dominated by the new vector are
        evicted, so the archive stays mutually non-dominated.
        """
        vector = tuple(vector)
        if self.find_weak_dominator(vector) is not None:
            return False
        survivors = []
        for point, point_payload in self._points:
            self.comparisons += 1
            if not weakly_dominates(vector, point):
                survivors.append((point, point_payload))
        survivors.append((vector, payload))
        self._points = survivors
        return True
