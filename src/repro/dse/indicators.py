"""Front quality indicators: hypervolume and (additive) epsilon.

Used by the benchmark harness to quantify how close a heuristic or
approximate front is to the exact one (Fig. 1 companion numbers).

* :func:`hypervolume` — the volume of objective space weakly dominated
  by a front, bounded by a reference point (minimization).  Implemented
  with the classic dimension-sweep recursion (exact in any dimension;
  exponential in the number of objectives, which is <= 3 here).
* :func:`additive_epsilon` — the smallest ``e`` such that shifting the
  approximation down by ``e`` in every component makes it weakly
  dominate the reference front.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

__all__ = ["hypervolume", "additive_epsilon", "front_coverage"]

Vector = Tuple[int, ...]


def hypervolume(front: Sequence[Sequence[int]], reference: Sequence[int]) -> int:
    """Hypervolume of ``front`` w.r.t. ``reference`` (minimization).

    Points not strictly better than the reference in every dimension
    contribute nothing.  Exact (an int); suitable for the small fronts of
    the evaluation (dimension-sweep recursion).
    """
    reference = tuple(reference)
    points = [
        tuple(p)
        for p in front
        if all(x < r for x, r in zip(p, reference))
    ]
    if not points:
        return 0
    return _hv(sorted(set(points)), reference)


def _hv(points: List[Vector], reference: Vector) -> int:
    """Dimension-sweep: slice along the first objective."""
    if len(reference) == 1:
        return reference[0] - min(p[0] for p in points)
    # Sort by the first coordinate; sweep slabs between successive values.
    points = sorted(points)
    total = 0
    seen: List[Vector] = []
    for index, point in enumerate(points):
        upper = points[index + 1][0] if index + 1 < len(points) else reference[0]
        seen.append(point[1:])
        width = upper - point[0]
        if width <= 0:
            continue
        # Non-dominated projections of everything seen so far.
        projections = [
            p
            for p in seen
            if not any(
                q != p and all(a <= b for a, b in zip(q, p)) for q in seen
            )
        ]
        total += width * _hv(sorted(set(projections)), reference[1:])
    return total


def additive_epsilon(
    approximation: Sequence[Sequence[int]], reference_front: Sequence[Sequence[int]]
) -> int:
    """Smallest ``e`` with: for every reference point ``r`` there is an
    approximation point ``a`` such that ``a_i - e <= r_i`` in every
    component.  0 means the approximation covers the whole front."""
    if not reference_front:
        return 0
    if not approximation:
        raise ValueError("empty approximation has no epsilon indicator")
    worst = 0
    for r in reference_front:
        best = min(
            max(a_i - r_i for a_i, r_i in zip(a, r)) for a in approximation
        )
        worst = max(worst, best)
    return max(worst, 0)


def front_coverage(
    approximation: Sequence[Sequence[int]], reference_front: Sequence[Sequence[int]]
) -> float:
    """Fraction of reference points present in the approximation."""
    if not reference_front:
        return 1.0
    reference = {tuple(r) for r in reference_front}
    found = {tuple(a) for a in approximation} & reference
    return len(found) / len(reference)
