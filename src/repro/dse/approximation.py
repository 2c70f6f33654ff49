"""Epsilon-dominance pruning: approximate fronts with a guarantee.

The authors' follow-up work-in-progress (Neubauer et al., "On leveraging
approximations for exact system-level design space exploration",
CODES+ISSS 2018) prunes with *epsilon-dominance*: a partial assignment
is cut as soon as an archive point is within an additive ``epsilon`` of
its lower-bound vector in every objective.

``epsilon`` bounds the returned front's error (the guarantee below); it
does not bound the search effort, which need not fall.  Sequential
``network_firewall`` takes 1559/1802/1624/1571 conflicts and
19/23/14/13 models at ``epsilon`` = 0/1/2/3, with 6 front points each:
a coarser archive prunes different branches, and the search can meet
more conflicts on its way to them.

:class:`EpsilonArchive` wraps any exact archive and implements the
shifted dominance query, so :class:`repro.dse.explorer.DominancePropagator`
performs the approximate pruning.  A returned point ``p`` satisfies
``p <= v + epsilon`` only, so the propagator reads :attr:`epsilon` and
explains each objective up to ``p_i - epsilon``, not ``p_i``.

Guarantee (tested in ``tests/test_approximation.py``): for every true
Pareto point ``p`` the returned front contains a point ``a`` with
``a_i <= p_i + epsilon`` for all ``i``; with ``epsilon = 0`` the result
is the exact front.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

from repro.dse.pareto import ListArchive

__all__ = ["EpsilonArchive"]


class EpsilonArchive:
    """An archive whose dominance query is relaxed by an additive epsilon."""

    def __init__(self, epsilon: int, base=None):
        if epsilon < 0:
            raise ValueError("epsilon must be non-negative")
        #: How far a returned point may exceed the queried vector.
        self.epsilon = epsilon
        self._base = base if base is not None else ListArchive()

    # -- the relaxed query ---------------------------------------------------

    def find_weak_dominator(self, vector: Sequence[int]) -> Optional[Tuple[int, ...]]:
        """An archive point within ``epsilon`` of ``vector`` everywhere.

        Implemented by querying the exact base archive against the
        vector shifted *up* by epsilon: ``p <= v + eps`` componentwise.
        """
        shifted = [value + self.epsilon for value in vector]
        return self._base.find_weak_dominator(shifted)

    # -- exact-archive passthrough ---------------------------------------------

    def add(self, vector: Sequence[int], payload) -> bool:
        return self._base.add(vector, payload)

    def __len__(self) -> int:
        return len(self._base)

    def __iter__(self) -> Iterator:
        return iter(self._base)

    def vectors(self) -> List[Tuple[int, ...]]:
        return self._base.vectors()

    @property
    def comparisons(self) -> int:
        return self._base.comparisons
