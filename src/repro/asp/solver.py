"""Reference CDNL solver: the test oracle for :mod:`repro.asp.flatsolver`.

A MiniSat-style CDCL engine extended with the propagator interface the
ASPmT stack needs (mirroring clasp/clingo), written over one
:class:`Clause` object per clause:

* two-watched-literal unit propagation,
* first-UIP conflict analysis with recursive clause minimization,
* VSIDS variable activities, phase saving, Luby restarts,
* learned-clause database reduction,
* assumption-based incremental solving with core extraction,
* *propagators*: external objects that watch literals, get told about
  assignments at propagation fixpoints, may add clauses at any decision
  level (lazy clause generation), and are consulted before a total
  assignment is accepted as a model.

Literals are non-zero integers: ``+v`` means variable ``v`` is true,
``-v`` that it is false.  Variable 0 is unused.

:class:`~repro.asp.flatsolver.FlatSolver` runs the same search algorithm
over flat arrays and is the engine every :class:`repro.asp.control.Control`
builds.  This solver is kept as the executable specification that the
solver tests and the ``solver-core`` fuzz oracle compare it against; no
production path selects it.
"""

from __future__ import annotations

import heapq
from time import perf_counter
from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.asp.flatsolver import (
    PropagatorBase,
    SolveResult,
    SolverStatistics,
    _luby,
)

__all__ = ["Clause", "Solver"]


class Clause:
    """A clause; the first two literals are the watched ones."""

    __slots__ = ("lits", "learned", "activity")

    def __init__(self, lits: List[int], learned: bool = False):
        self.lits = lits
        self.learned = learned
        self.activity = 0.0

    def __repr__(self) -> str:
        return f"Clause({self.lits}, learned={self.learned})"


class Solver:
    """The reference CDCL engine (one object per clause)."""

    def __init__(self) -> None:
        self._nvars = 0
        # Indexed by variable (1-based).
        self._values: List[int] = [0]  # 0 unassigned, 1 true, -1 false
        self._levels: List[int] = [0]
        self._reasons: List[Optional[Clause]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._trail_pos: List[int] = [0]
        # Indexed by literal code (2v for +v, 2v+1 for -v).
        self._watches: List[List[Clause]] = [[], []]
        self._prop_watches: List[List[int]] = [[], []]

        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0

        self._clauses: List[Clause] = []
        self._learned: List[Clause] = []
        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._unsat = False

        self._propagators: List[PropagatorBase] = []
        self._prop_buffers: List[List[int]] = []
        self._pending_conflict: Optional[Clause] = None

        self.stats = SolverStatistics()
        #: Optional hard budget on conflicts for a single solve() call
        #: (None = unlimited).  Used by the benchmark harness.
        self.conflict_limit: Optional[int] = None
        #: Conflicts per Luby restart unit (None disables restarts).
        self.restart_base: Optional[int] = 100
        #: When False, decisions ignore saved phases (always negative).
        self.phase_saving: bool = True
        #: Learned-clause budget before database reduction kicks in.
        self.max_learned_base: int = 4000
        #: Set to True when the last solve() stopped on the conflict limit.
        self.interrupted = False

        self._seen: List[bool] = [False]
        self._order_heap: List[Tuple[float, int]] = []
        # Arena-equivalent int slots held by _clauses + _learned, kept
        # incrementally for clause_db_bytes().
        self._db_ints = 0

    # ------------------------------------------------------------------
    # Variables and clauses
    # ------------------------------------------------------------------

    def new_var(self, phase: bool = False) -> int:
        """Create a fresh variable; returns its (positive) index."""
        self._nvars += 1
        v = self._nvars
        self._values.append(0)
        self._levels.append(0)
        self._reasons.append(None)
        self._activity.append(0.0)
        self._phase.append(phase)
        self._trail_pos.append(0)
        self._watches.extend(([], []))
        self._prop_watches.extend(([], []))
        self._seen.append(False)
        heapq.heappush(self._order_heap, (0.0, v))
        return v

    @property
    def num_vars(self) -> int:
        return self._nvars

    @staticmethod
    def _code(lit: int) -> int:
        return (lit << 1) if lit > 0 else ((-lit) << 1) | 1

    def value(self, lit: int) -> Optional[bool]:
        """Current truth value of ``lit`` (None if unassigned)."""
        v = self._values[abs(lit)]
        if v == 0:
            return None
        return (v > 0) == (lit > 0)

    def level(self, lit: int) -> int:
        """Decision level at which ``lit``'s variable was assigned."""
        return self._levels[abs(lit)]

    @property
    def decision_level(self) -> int:
        return len(self._trail_lim)

    @property
    def trail(self) -> Sequence[int]:
        """The assignment trail (true literals in assignment order)."""
        return self._trail

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause at decision level 0 (outside of search).

        Returns ``False`` if the solver became permanently unsatisfiable.
        """
        assert self.decision_level == 0, "use add_propagator_clause during search"
        if self._unsat:
            return False
        seen: Set[int] = set()
        out: List[int] = []
        for lit in lits:
            if lit == 0 or abs(lit) > self._nvars:
                raise ValueError(f"invalid literal {lit}")
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            value = self.value(lit)
            if value is True:
                return True  # satisfied at level 0
            if value is False:
                continue  # drop false literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self._unsat = True
            return False
        if len(out) == 1:
            self._enqueue(out[0], None)
            conflict = self._propagate_boolean()
            if conflict is not None:
                self._unsat = True
                return False
            return True
        clause = Clause(out)
        self._clauses.append(clause)
        self._db_ints += len(out) + 1
        self._attach(clause)
        return True

    def _attach(self, clause: Clause) -> None:
        self._watches[self._code(-clause.lits[0])].append(clause)
        self._watches[self._code(-clause.lits[1])].append(clause)

    # ------------------------------------------------------------------
    # Propagators
    # ------------------------------------------------------------------

    def register_propagator(self, propagator: PropagatorBase) -> None:
        self._propagators.append(propagator)
        self._prop_buffers.append([])
        propagator.on_attach(self)

    def add_propagator_watch(self, lit: int, propagator: PropagatorBase) -> None:
        """Have ``propagator`` be told when ``lit`` becomes true."""
        index = self._propagators.index(propagator)
        self._prop_watches[self._code(lit)].append(index)
        # Deliver an already-true watch immediately so no event is missed.
        if self.value(lit) is True:
            self._prop_buffers[index].append(lit)

    def requeue_watch(self, lit: int, propagator: PropagatorBase) -> None:
        """Re-deliver a true watched literal to ``propagator``.

        Used by drivers whose pruning state changes *between* solve calls
        (e.g. the DSE archive grows): re-queuing a root-level literal
        forces the propagator to re-evaluate at the next fixpoint.
        """
        index = self._propagators.index(propagator)
        if self.value(lit) is True:
            self._prop_buffers[index].append(lit)

    def add_propagator_clause(self, lits: Sequence[int]) -> bool:
        """Add a clause during search (lazy clause generation).

        May be called at any decision level.  Returns ``False`` when the
        clause is conflicting under the current assignment; the solver
        will resolve the conflict when the propagation round returns.
        Raises ``ValueError`` on a zero or unknown literal.
        """
        self.stats.propagator_clauses += 1
        unique = dict.fromkeys(lits)
        for lit in unique:
            if lit == 0 or abs(lit) > self._nvars:
                raise ValueError(f"invalid literal {lit}")
        if any(-lit in unique for lit in unique):
            return True  # tautology
        lits = list(unique)
        if any(self.value(lit) is True and self.level(lit) == 0 for lit in lits):
            return True  # satisfied forever
        lits = [lit for lit in lits if not (self.value(lit) is False and self.level(lit) == 0)]
        if not lits:
            self._pending_conflict = Clause([], learned=True)
            return False

        def sort_key(lit: int) -> Tuple[int, int]:
            value = self.value(lit)
            if value is None:
                return (2, 0)
            if value is True:
                return (3, self.level(lit))
            return (1, self.level(lit))  # false: later levels first

        lits.sort(key=sort_key, reverse=True)
        clause = Clause(lits, learned=True)
        if len(lits) == 1:
            lit = lits[0]
            value = self.value(lit)
            if value is True:
                return True
            if value is False:
                self._pending_conflict = clause
                return False
            # Unit: enqueue at the current level with this clause as reason.
            self._enqueue(lit, clause)
            return True
        self._learned.append(clause)
        self._db_ints += len(lits) + 1
        self._attach(clause)
        first, second = lits[0], lits[1]
        value_first = self.value(first)
        if value_first is False:
            # All literals false: conflicting.
            self._pending_conflict = clause
            return False
        if self.value(second) is False and value_first is None:
            # Unit under current assignment.
            self._enqueue(first, clause)
        return True

    # ------------------------------------------------------------------
    # Assignment and propagation
    # ------------------------------------------------------------------

    def _enqueue(self, lit: int, reason: Optional[Clause]) -> None:
        var = abs(lit)
        assert self._values[var] == 0
        self._values[var] = 1 if lit > 0 else -1
        self._levels[var] = self.decision_level
        self._reasons[var] = reason
        self._trail_pos[var] = len(self._trail)
        self._trail.append(lit)
        self._phase[var] = lit > 0
        self.stats.propagations += 1

    def _propagate_boolean(self) -> Optional[Clause]:
        """Unit propagation to fixpoint; returns a conflicting clause or None.

        Hot loop: truth tests use the values array directly
        (``values[var] * sign``: > 0 true, < 0 false, 0 unassigned).
        """
        values = self._values
        watches = self._watches
        trail = self._trail
        prop_watches = self._prop_watches
        prop_buffers = self._prop_buffers
        while self._qhead < len(trail):
            lit = trail[self._qhead]
            self._qhead += 1
            code = (lit << 1) if lit > 0 else ((-lit) << 1) | 1
            # Feed propagator buffers.
            for index in prop_watches[code]:
                prop_buffers[index].append(lit)
            watch_list = watches[code]
            i = 0
            j = 0
            n = len(watch_list)
            conflict: Optional[Clause] = None
            false_lit = -lit
            while i < n:
                clause = watch_list[i]
                i += 1
                lits = clause.lits
                # Ensure the falsified literal is at position 1.
                if lits[0] == false_lit:
                    lits[0], lits[1] = lits[1], lits[0]
                first = lits[0]
                first_val = values[first] if first > 0 else -values[-first]
                if first_val > 0:
                    watch_list[j] = clause
                    j += 1
                    continue
                # Look for a replacement watch (a non-false literal).
                found = False
                for k in range(2, len(lits)):
                    other = lits[k]
                    other_val = values[other] if other > 0 else -values[-other]
                    if other_val >= 0:
                        lits[1], lits[k] = other, lits[1]
                        neg = -other
                        neg_code = (neg << 1) if neg > 0 else ((-neg) << 1) | 1
                        watches[neg_code].append(clause)
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                watch_list[j] = clause
                j += 1
                if first_val < 0:
                    conflict = clause
                    # Copy remaining watches back.
                    while i < n:
                        watch_list[j] = watch_list[i]
                        j += 1
                        i += 1
                else:
                    self._enqueue(first, clause)
            del watch_list[j:]
            if conflict is not None:
                return conflict
        return None

    def _propagate(self) -> Optional[Clause]:
        """Full propagation fixpoint: unit propagation plus propagators."""
        stats = self.stats
        while True:
            started = perf_counter()
            conflict = self._propagate_boolean()
            stats.time_boolean += perf_counter() - started
            if conflict is not None:
                return conflict
            if self._pending_conflict is not None:
                conflict = self._pending_conflict
                self._pending_conflict = None
                return conflict
            progressed = False
            for index, propagator in enumerate(self._propagators):
                buffer = self._prop_buffers[index]
                if not buffer:
                    continue
                self._prop_buffers[index] = []
                progressed = True
                started = perf_counter()
                keep_going = propagator.propagate(self, buffer)
                stats.time_theory += perf_counter() - started
                if self._pending_conflict is not None:
                    conflict = self._pending_conflict
                    self._pending_conflict = None
                    return conflict
                if not keep_going:
                    # The propagator signalled a conflict but the clause it
                    # added was resolved into a pending unit; re-propagate.
                    break
                if self._qhead < len(self._trail):
                    break  # new unit assignments: restart the loop
            if not progressed and self._qhead == len(self._trail):
                return None

    # ------------------------------------------------------------------
    # Backtracking
    # ------------------------------------------------------------------

    def _backtrack(self, level: int) -> None:
        if self.decision_level <= level:
            return
        limit = self._trail_lim[level]
        for lit in reversed(self._trail[limit:]):
            var = abs(lit)
            self._values[var] = 0
            self._reasons[var] = None
            heapq.heappush(self._order_heap, (-self._activity[var], var))
        if len(self._order_heap) > 2 * self._nvars + 16:
            # Lazy deletion leaves stale (activity, var) tuples behind;
            # long enumeration runs (many solve/backtrack cycles) would
            # otherwise grow the heap without bound.  Compact it.
            self._rescale_heap()
        del self._trail[limit:]
        del self._trail_lim[level:]
        self._qhead = min(self._qhead, len(self._trail))
        # Drop buffered propagator changes that are no longer assigned true.
        for index in range(len(self._prop_buffers)):
            self._prop_buffers[index] = [
                lit for lit in self._prop_buffers[index] if self.value(lit) is True
            ]
        for propagator in self._propagators:
            propagator.undo(self, level)

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _bump_var(self, var: int) -> None:
        self._activity[var] += self._var_inc
        if self._activity[var] > 1e100:
            for v in range(1, self._nvars + 1):
                self._activity[v] *= 1e-100
            self._var_inc *= 1e-100
            # Heap entries hold pre-rescale keys; rebuild so decision
            # order keeps following the (rescaled) activities.
            self._rescale_heap()

    def _bump_clause(self, clause: Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > 1e20:
            for c in self._learned:
                c.activity *= 1e-20
            self._cla_inc *= 1e-20

    def _analyze(self, conflict: Clause) -> Tuple[List[int], int]:
        """First-UIP analysis; returns (learned clause lits, backjump level)."""
        learned: List[int] = [0]  # placeholder for the asserting literal
        seen = self._seen
        counter = 0
        lit = 0
        index = len(self._trail) - 1
        clause: Optional[Clause] = conflict
        path: List[int] = []

        while True:
            assert clause is not None
            self._bump_clause(clause)
            start = 1 if clause is not conflict else 0
            # For reason clauses, lits[0] is the propagated literal.
            for k in range(0, len(clause.lits)):
                q = clause.lits[k]
                if clause is not conflict and q == lit:
                    continue
                var = abs(q)
                if not seen[var] and self._levels[var] > 0:
                    seen[var] = True
                    path.append(var)
                    self._bump_var(var)
                    if self._levels[var] >= self.decision_level:
                        counter += 1
                    else:
                        learned.append(q)
            # Select next literal to expand.
            while not seen[abs(self._trail[index])]:
                index -= 1
            lit = self._trail[index]
            index -= 1
            var = abs(lit)
            seen[var] = False
            clause = self._reasons[var]
            counter -= 1
            if counter == 0:
                break
        learned[0] = -lit

        # Recursive minimization: drop literals implied by the rest.
        keep = [learned[0]]
        levels = {self._levels[abs(q)] for q in learned[1:]}
        for q in learned[1:]:
            if self._redundant(q, levels):
                continue
            keep.append(q)
        for var in path:
            seen[var] = False

        if len(keep) == 1:
            backjump = 0
        else:
            # Move the highest-level literal (besides the UIP) to position 1.
            max_i = 1
            for i in range(2, len(keep)):
                if self._levels[abs(keep[i])] > self._levels[abs(keep[max_i])]:
                    max_i = i
            keep[1], keep[max_i] = keep[max_i], keep[1]
            backjump = self._levels[abs(keep[1])]
        return keep, backjump

    def _redundant(self, lit: int, levels: Set[int]) -> bool:
        """Check whether ``lit`` is implied by the remaining learned lits."""
        stack = [lit]
        visited: List[int] = []
        result = True
        while stack:
            current = stack.pop()
            reason = self._reasons[abs(current)]
            if reason is None:
                result = False
                break
            for q in reason.lits:
                var = abs(q)
                if q == -current or self._levels[var] == 0 or self._seen[var]:
                    continue
                if self._levels[var] not in levels:
                    result = False
                    break
                self._seen[var] = True
                visited.append(var)
                stack.append(q)
            else:
                continue
            break
        if not result:
            for var in visited:
                self._seen[var] = False
        # Keep markings when redundant so shared work is reused; they are
        # cleared with `path` by the caller only for path vars, so clear
        # the extra ones here conservatively.
        if result:
            for var in visited:
                self._seen[var] = False
        return result

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _decide(self) -> Optional[int]:
        saving = self.phase_saving
        while self._order_heap:
            _act, var = heapq.heappop(self._order_heap)
            if self._values[var] == 0:
                return var if (saving and self._phase[var]) else -var
        for var in range(1, self._nvars + 1):
            if self._values[var] == 0:
                return var if (saving and self._phase[var]) else -var
        return None

    def _rescale_heap(self) -> None:
        self._order_heap = [
            (-self._activity[v], v) for v in range(1, self._nvars + 1) if self._values[v] == 0
        ]
        heapq.heapify(self._order_heap)

    # ------------------------------------------------------------------
    # Clause DB reduction
    # ------------------------------------------------------------------

    def _locked(self, clause: Clause) -> bool:
        lit = clause.lits[0]
        return self.value(lit) is True and self._reasons[abs(lit)] is clause

    def _reduce_db(self) -> None:
        self._learned.sort(key=lambda c: c.activity)
        target = len(self._learned) // 2
        kept: List[Clause] = []
        removed = 0
        for i, clause in enumerate(self._learned):
            if removed < target and len(clause.lits) > 2 and not self._locked(clause):
                self._detach(clause)
                self._db_ints -= len(clause.lits) + 1
                removed += 1
            else:
                kept.append(clause)
        self._learned = kept
        self.stats.deleted += removed

    def _detach(self, clause: Clause) -> None:
        for lit in clause.lits[:2]:
            try:
                self._watches[self._code(-lit)].remove(clause)
            except ValueError:
                pass

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------

    def clause_db_bytes(self) -> int:
        """Arena-equivalent clause store size in bytes: one 4-byte int
        per literal plus a 4-byte header per clause, mirroring what the
        flat core's arena would occupy (tracked incrementally so the
        per-solve statistics update is O(1))."""
        return 4 * self._db_ints

    def solve(self, assumptions: Sequence[int] = ()) -> SolveResult:
        """Search for a model extending ``assumptions``.

        On SAT, the assignment is total and remains available through
        :meth:`value` until the next ``solve``/``add_clause`` call; the
        caller typically records the model and adds a blocking clause.
        """
        try:
            return self._solve(assumptions)
        finally:
            self.stats.clause_db_bytes = self.clause_db_bytes()

    def _solve(self, assumptions: Sequence[int] = ()) -> SolveResult:
        self.interrupted = False
        if self._unsat:
            return SolveResult(False)
        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self._unsat = True
            return SolveResult(False)

        max_learned = max(self.max_learned_base, len(self._clauses) // 3)
        restart_count = 0
        restart_base = self.restart_base
        conflicts_until_restart = (
            restart_base * _luby(restart_count + 1) if restart_base else None
        )
        conflicts_at_start = self.stats.conflicts

        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats.conflicts += 1
                if self.decision_level == 0 or not conflict.lits:
                    self._unsat = True
                    return SolveResult(False)
                if all(self.level(lit) == 0 for lit in conflict.lits):
                    self._unsat = True
                    return SolveResult(False)
                # A propagator clause may be conflicting without a literal
                # at the current level; backtrack until analysis applies.
                top = max(self.level(lit) for lit in conflict.lits)
                if top < self.decision_level:
                    self._backtrack(top)
                if self.decision_level == 0:
                    self._unsat = True
                    return SolveResult(False)
                if self._num_at_current_level(conflict) == 0:
                    # Can happen when `top` equals an assumption level whose
                    # decision is not in the clause; fall back to a plain
                    # backtrack by one level re-propagating the clause.
                    self._backtrack(self.decision_level - 1)
                    self._readd_conflict(conflict)
                    continue
                learned, backjump = self._analyze(conflict)
                # Never jump above an assumption that is part of the clause?
                # Assumptions are re-decided by the decision loop, so a deep
                # backjump is safe.
                self._backtrack(backjump)
                if len(learned) == 1:
                    if self.value(learned[0]) is False:
                        self._unsat = True
                        return SolveResult(False)
                    if self.value(learned[0]) is None:
                        self._enqueue(learned[0], None)
                else:
                    clause = Clause(learned, learned=True)
                    self._learned.append(clause)
                    self._db_ints += len(learned) + 1
                    self.stats.learned += 1
                    self._attach(clause)
                    self._enqueue(learned[0], clause)
                self._var_inc /= self._var_decay
                self._cla_inc /= self._cla_decay

                if (
                    self.conflict_limit is not None
                    and self.stats.conflicts - conflicts_at_start >= self.conflict_limit
                ):
                    self.interrupted = True
                    self._backtrack(0)
                    return SolveResult(False)
                if (
                    conflicts_until_restart is not None
                    and self.stats.conflicts - conflicts_at_start
                    >= conflicts_until_restart
                ):
                    restart_count += 1
                    self.stats.restarts += 1
                    conflicts_until_restart += restart_base * _luby(restart_count + 1)
                    self._backtrack(0)
                if len(self._learned) > max_learned:
                    self._reduce_db()
                    max_learned = int(max_learned * 1.3)
                continue

            # No conflict: assumptions, then decisions.
            if self.decision_level < len(assumptions):
                lit = assumptions[self.decision_level]
                value = self.value(lit)
                if value is True:
                    # Already implied: open an empty level to keep the
                    # level/assumption correspondence simple.
                    self._trail_lim.append(len(self._trail))
                    continue
                if value is False:
                    core = self._analyze_final(lit, assumptions)
                    self._backtrack(0)
                    return SolveResult(False, core=tuple(core))
                self.stats.decisions += 1
                self._trail_lim.append(len(self._trail))
                self._enqueue(lit, None)
                continue

            if len(self._trail) == self._nvars:
                # Total assignment: final propagator checks.
                ok = True
                for propagator in self._propagators:
                    keep_going = propagator.check(self)
                    if self._pending_conflict is not None:
                        ok = False
                        break
                    if not keep_going:
                        raise RuntimeError(
                            f"{type(propagator).__name__}.check() returned False "
                            f"without adding a conflicting clause"
                        )
                if ok:
                    return SolveResult(True)
                continue  # pending conflict resolved by next _propagate()

            decision = self._decide()
            if decision is None:
                # All vars assigned (can happen with lazy heap staleness).
                continue
            self.stats.decisions += 1
            self._trail_lim.append(len(self._trail))
            self._enqueue(decision, None)

    def _num_at_current_level(self, clause: Clause) -> int:
        level = self.decision_level
        return sum(1 for lit in clause.lits if self.level(lit) == level)

    def _readd_conflict(self, clause: Clause) -> None:
        """Re-trigger a conflict clause after an ad-hoc backtrack."""
        self._pending_conflict = clause

    def _analyze_final(self, failed: int, assumptions: Sequence[int]) -> List[int]:
        """Compute an unsatisfiable core from a failed assumption."""
        assumption_set = set(assumptions)
        core = [failed]
        seen = {abs(failed)}
        queue = [-failed]
        while queue:
            lit = queue.pop()
            var = abs(lit)
            reason = self._reasons[var]
            if reason is None:
                if lit in assumption_set and lit != -failed:
                    core.append(lit)
                continue
            for q in reason.lits:
                if abs(q) not in seen and self._levels[abs(q)] > 0:
                    seen.add(abs(q))
                    queue.append(-q)
        return core

    # ------------------------------------------------------------------
    # Model access
    # ------------------------------------------------------------------

    def set_phase(self, var: int, phase: bool) -> None:
        """Set the saved phase of ``var`` (decision polarity hint)."""
        if not 1 <= var <= self._nvars:
            raise ValueError(f"unknown variable {var}")
        self._phase[var] = phase

    def set_initial_activity(self, var: int, activity: float) -> None:
        """Seed the VSIDS activity of ``var`` (decision priority hint).

        Higher activity means the variable is decided earlier; conflicts
        gradually override the seed, so this only shapes the initial
        descent (domain-specific heuristics).
        """
        if not 1 <= var <= self._nvars:
            raise ValueError(f"unknown variable {var}")
        self._activity[var] = activity
        heapq.heappush(self._order_heap, (-activity, var))

    def reset_to_root(self) -> None:
        """Backtrack to decision level 0 (e.g. before adding clauses
        between enumeration steps)."""
        self._backtrack(0)

    def model(self) -> List[int]:
        """The current total assignment as a list of true literals."""
        return [
            (v if self._values[v] > 0 else -v)
            for v in range(1, self._nvars + 1)
            if self._values[v] != 0
        ]
