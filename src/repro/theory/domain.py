"""Backtrackable integer interval store.

Each theory variable carries an interval ``[lb, ub]`` plus, per bound, an
*explanation*: the set of solver literals whose truth justified the bound.
Explanations make the theory's deductions clause-learnable: when a
propagation or conflict depends on a bound, the negated explanation
literals appear in the clause handed to the CDCL core (the same scheme
clingo-dl uses — no order literals are ever introduced).

Updates are trailed with their decision level; :meth:`IntervalStore.undo`
pops everything above a target level.  Level-0 updates are permanent.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.asp.syntax import Symbol

__all__ = ["IntervalStore", "INT_MIN", "INT_MAX"]

#: Pseudo-infinities for variables without an explicit ``&dom``.
INT_MIN = -(1 << 40)
INT_MAX = 1 << 40


class IntervalStore:
    """Integer variables with trailed interval bounds and explanations."""

    def __init__(self) -> None:
        self._names: List[Symbol] = []
        self._ids: Dict[Symbol, int] = {}
        self._lb: List[int] = []
        self._ub: List[int] = []
        self._lb_reason: List[Tuple[int, ...]] = []
        self._ub_reason: List[Tuple[int, ...]] = []
        #: Trail records ``(level, var, is_lower, old_bound, old_reason)``:
        #: the previous state of one bound, restored by :meth:`undo`.
        self._trail: List[Tuple[int, int, bool, int, Tuple[int, ...]]] = []
        #: Monotone counter bumped on every bound change (including undo);
        #: equal revisions guarantee identical bounds, so readers that
        #: derive values from the store can cache per revision.
        self.revision = 0

    # -- variables --------------------------------------------------------------

    def add_var(self, name: Symbol, lb: int = INT_MIN, ub: int = INT_MAX) -> int:
        """Create (or look up) the variable called ``name``."""
        existing = self._ids.get(name)
        if existing is not None:
            return existing
        var = len(self._names)
        self._names.append(name)
        self._ids[name] = var
        self._lb.append(lb)
        self._ub.append(ub)
        self._lb_reason.append(())
        self._ub_reason.append(())
        return var

    def var(self, name: Symbol) -> Optional[int]:
        return self._ids.get(name)

    def name(self, var: int) -> Symbol:
        return self._names[var]

    @property
    def num_vars(self) -> int:
        return len(self._names)

    def __iter__(self):
        return iter(range(len(self._names)))

    # -- bounds -----------------------------------------------------------------

    def lb(self, var: int) -> int:
        return self._lb[var]

    def ub(self, var: int) -> int:
        return self._ub[var]

    def lb_reason(self, var: int) -> Tuple[int, ...]:
        """Solver literals justifying the current lower bound."""
        return self._lb_reason[var]

    def ub_reason(self, var: int) -> Tuple[int, ...]:
        return self._ub_reason[var]

    def lb_reason_at_least(self, var: int, value: int) -> Tuple[int, ...]:
        """Solver literals justifying ``lb >= value``.

        Walks the trail back to the earliest lower bound of ``var`` that
        is still ``>= value`` and returns that bound's reason: an earlier
        bound rests on earlier literals than the current one.
        """
        if value > self._lb[var]:
            raise ValueError(f"lower bound of {self._names[var]} is below {value}")
        reason = self._lb_reason[var]
        for _level, other, is_lower, old_bound, old_reason in reversed(self._trail):
            if other == var and is_lower:
                if old_bound < value:
                    break
                reason = old_reason
        return reason

    def is_empty(self, var: int) -> bool:
        return self._lb[var] > self._ub[var]

    def set_lb(
        self, var: int, value: int, reason: Sequence[int], level: int
    ) -> bool:
        """Raise the lower bound; returns True when the bound changed.

        The caller is responsible for noticing emptiness (``is_empty``)
        and turning ``lb_reason + ub_reason`` into a conflict clause.
        """
        if value <= self._lb[var]:
            return False
        if level > 0:
            self._trail.append(
                (level, var, True, self._lb[var], self._lb_reason[var])
            )
        self._lb[var] = value
        self._lb_reason[var] = tuple(reason)
        self.revision += 1
        return True

    def set_ub(
        self, var: int, value: int, reason: Sequence[int], level: int
    ) -> bool:
        """Lower the upper bound; returns True when the bound changed."""
        if value >= self._ub[var]:
            return False
        if level > 0:
            self._trail.append(
                (level, var, False, self._ub[var], self._ub_reason[var])
            )
        self._ub[var] = value
        self._ub_reason[var] = tuple(reason)
        self.revision += 1
        return True

    # -- backtracking -----------------------------------------------------------

    def undo(self, level: int) -> None:
        """Restore all bounds recorded above ``level``."""
        trail = self._trail
        while trail and trail[-1][0] > level:
            _level, var, is_lower, old_bound, old_reason = trail.pop()
            self.revision += 1
            if is_lower:
                self._lb[var] = old_bound
                self._lb_reason[var] = old_reason
            else:
                self._ub[var] = old_bound
                self._ub_reason[var] = old_reason

    # -- introspection ----------------------------------------------------------

    def snapshot(self) -> Dict[Symbol, Tuple[int, int]]:
        """Current bounds keyed by variable name (for models/tests)."""
        return {
            self._names[v]: (self._lb[v], self._ub[v])
            for v in range(len(self._names))
        }
