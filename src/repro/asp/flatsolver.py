"""Flat-array CDNL solver: the engine behind every :class:`Control`.

A MiniSat-style CDCL engine extended with the propagator interface the
ASPmT stack needs (mirroring clasp/clingo): two-watched-literal unit
propagation, first-UIP learning with recursive clause minimization,
VSIDS, phase saving, Luby restarts, learned-clause deletion,
assumption-based solving with cores, and *propagators* — external
objects that watch literals, get told about assignments at propagation
fixpoints, may add clauses at any decision level (lazy clause
generation), and are consulted before a total assignment is accepted as
a model.  Literals are non-zero integers: ``+v`` means variable ``v`` is
true, ``-v`` that it is false.  Variable 0 is unused.

Every hot data structure is flat:

* **Clause arena** — the nogood store is a single flat int list; a
  clause *reference* is its offset into the arena, where
  ``arena[ref]`` is the literal count and ``arena[ref+1 .. ref+size]``
  the literals (the first two are the watched ones).  No ``Clause``
  objects, no per-clause attribute lookups.  (A plain list, not
  ``array('i')``: CPython boxes a fresh int object on every ``array``
  subscript, which loses to list pointer loads in the hot loops;
  ``clause_db_bytes`` still accounts the arena at 4 bytes per slot.)
* **Watch lists** — binary clauses live in dedicated *static* watch
  lists: per literal code, a flat int list of ``implied_lit, ref``
  pairs that is never mutated during search (binary clauses are exempt
  from deletion, and a two-literal clause needs no replacement-watch
  search), so propagating one costs a single assignment lookup and an
  inline enqueue.  Clauses of three or more literals use per-code
  lists of ``(blocker, ref)`` pairs over the arena; the blocker (a
  literal of the clause that was recently true) lets most visits skip
  the arena entirely — the classic MiniSat blocker optimization.
* **Assignment** — ``_assign`` is a literal-indexed vector sized
  ``2*cap+1`` so Python's negative indexing maps ``_assign[-v]`` to the
  complement slot: truth tests in the inner loop are one list index,
  no sign branch, no method call.  The var-indexed ``_values`` array
  (0 unassigned, 1 true, -1 false) is maintained in parallel because
  theory propagators read it directly.
* **Trail / levels / reasons / phases** — parallel arrays indexed by
  variable slot; a reason is a clause ref (or -1), so conflict analysis
  walks ints only and bumps activities inline.
* **VSIDS** — slot-indexed activity list with scalar ``_var_inc``
  growth and a uniform overflow rescale (never a per-variable decay
  sweep); the order heap is a lazy-deletion ``heapq`` of
  ``(-activity, var)`` tuples that is compacted whenever stale entries
  would let it outgrow twice the variable count.

Garbage from deleted learned clauses is reclaimed by compacting the
arena after each database reduction (live refs — problem clauses, kept
learned clauses, and reasons on the trail — are remapped in the watch
lists and reason array), so ``clause_db_bytes`` stays proportional to
the live clause set.

The object-based :class:`repro.asp.solver.Solver` implements the same
search algorithm over one ``Clause`` object per clause.  It is the
reference the tests and the ``solver-core`` fuzz oracle hold this engine
against, like ``mode="naive"`` for the grounder; no production path
selects it.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from time import perf_counter
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

__all__ = ["FlatSolver", "PropagatorBase", "SolveResult", "SolverStatistics"]


@dataclass
class SolveResult:
    """Outcome of a :meth:`FlatSolver.solve` call."""

    satisfiable: bool
    #: For unsatisfiable results under assumptions: a subset of the
    #: assumptions sufficient for unsatisfiability.
    core: Tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.satisfiable


class PropagatorBase:
    """Base class for propagators (theory, unfounded-set, dominance).

    Subclasses override any of the hooks; all have default no-op
    implementations so simple propagators stay small.  The ``solver``
    argument gives access to the assignment (:meth:`FlatSolver.value`,
    :attr:`FlatSolver.decision_level`) and to clause addition
    (:meth:`FlatSolver.add_propagator_clause`).
    """

    def on_attach(self, solver: "FlatSolver") -> None:
        """Called when the propagator is registered."""

    def propagate(self, solver: "FlatSolver", changes: Sequence[int]) -> bool:
        """Called at propagation fixpoints with newly-true watched literals.

        Return ``False`` if a conflict was produced via
        :meth:`FlatSolver.add_propagator_clause` (the solver then resolves it).
        """
        return True

    def undo(self, solver: "FlatSolver", level: int) -> None:
        """Roll internal state back so it reflects the end of ``level``."""

    def check(self, solver: "FlatSolver") -> bool:
        """Called on total assignments; return ``False`` on conflict."""
        return True


@dataclass
class SolverStatistics:
    """Search statistics, exposed by the benchmarks."""

    conflicts: int = 0
    decisions: int = 0
    propagations: int = 0
    restarts: int = 0
    learned: int = 0
    deleted: int = 0
    propagator_clauses: int = 0
    #: Wall seconds spent in two-watched-literal unit propagation.
    time_boolean: float = 0.0
    #: Wall seconds spent inside propagator callbacks (theory fixpoints).
    time_theory: float = 0.0
    #: Bytes held by the clause store at the end of the last solve call,
    #: at 4 bytes per arena slot.
    clause_db_bytes: int = 0


def _luby(i: int) -> int:
    """The Luby restart sequence (1-indexed): 1 1 2 1 1 2 4 1 1 2 ..."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) // 2
        seq -= 1
        x %= size
    return 1 << seq


#: Reason sentinel: the variable was a decision/assumption or is unassigned.
NO_REASON = -1
#: Conflict sentinel used for the empty (root-conflicting) clause.
EMPTY_CLAUSE = -2


class FlatSolver:
    """CDCL engine over a flat int-list clause arena."""

    def __init__(self) -> None:
        self._nvars = 0
        self._cap = 64  # capacity of the literal-indexed assignment vector
        # Literal-indexed: _assign[lit] is 1 when lit is true, -1 when
        # false, 0 when unassigned; _assign[-lit] mirrors the complement
        # through Python's negative indexing (slot 2*cap+1-v).
        self._assign: List[int] = [0] * (2 * self._cap + 1)
        # Var-indexed parallels (slot 0 unused).  _values is part of the
        # propagator-facing surface (theory hot loops read it directly).
        self._values: List[int] = [0]
        self._levels: List[int] = [0]
        self._reasons: List[int] = [NO_REASON]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._seen = bytearray(1)

        # Indexed by literal code (2v for +v, 2v+1 for -v); each watch
        # list holds (blocker, ref) pairs.
        self._watches: List[List[Tuple[int, int]]] = [[], []]
        # Binary clauses: static flat [implied_lit, ref, ...] lists.
        self._bin_watches: List[List[int]] = [[], []]
        self._prop_watches: List[List[int]] = [[], []]

        self._trail: List[int] = []
        self._trail_lim: List[int] = []
        self._qhead = 0

        # The clause arena: [size, lit0, lit1, ...] records.  A plain
        # list, not array('i'): CPython array subscripts box a fresh int
        # object per read, which loses to list pointer loads in the hot
        # loops; clause_db_bytes() still accounts 4 bytes per slot.
        self._arena: List[int] = []
        self._clause_refs: List[int] = []
        self._learned_refs: List[int] = []
        self._cla_act: Dict[int, float] = {}

        self._var_inc = 1.0
        self._var_decay = 0.95
        self._cla_inc = 1.0
        self._cla_decay = 0.999
        self._unsat = False

        self._propagators: List[PropagatorBase] = []
        self._prop_buffers: List[List[int]] = []
        self._pending_conflict: Optional[int] = None

        self.stats = SolverStatistics()
        #: Optional hard budget on conflicts for a single solve() call.
        self.conflict_limit: Optional[int] = None
        #: Conflicts per Luby restart unit (None disables restarts).
        self.restart_base: Optional[int] = 100
        #: When False, decisions ignore saved phases (always negative).
        self.phase_saving: bool = True
        #: Learned-clause budget before database reduction kicks in.
        self.max_learned_base: int = 4000
        #: Set to True when the last solve() stopped on the conflict limit.
        self.interrupted = False

        # VSIDS order heap: lazy-deletion min-heap of (-activity, var)
        # tuples (C heapq), compacted when stale entries accumulate.
        self._heap: List[Tuple[float, int]] = []

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------

    def _grow_assign(self) -> None:
        cap = self._cap * 2
        old = self._assign
        new = [0] * (2 * cap + 1)
        for v in range(1, self._nvars + 1):
            new[v] = old[v]
            new[-v] = old[-v]
        self._assign = new
        self._cap = cap

    def new_var(self, phase: bool = False) -> int:
        """Create a fresh variable; returns its (positive) index."""
        self._nvars += 1
        v = self._nvars
        if v >= self._cap:
            self._grow_assign()
        self._values.append(0)
        self._levels.append(0)
        self._reasons.append(NO_REASON)
        self._activity.append(0.0)
        self._phase.append(phase)
        self._seen.append(0)
        self._watches.extend(([], []))
        self._bin_watches.extend(([], []))
        self._prop_watches.extend(([], []))
        heappush(self._heap, (0.0, v))
        return v

    @property
    def num_vars(self) -> int:
        return self._nvars

    # ------------------------------------------------------------------
    # VSIDS order heap (lazy deletion over C heapq, bounded by compaction)
    # ------------------------------------------------------------------

    def _rescale_heap(self) -> None:
        """Rebuild the order heap from the slot-indexed activities.

        Drops stale lazy-deletion entries (old activities, assigned
        vars) so the heap size stays bounded by the variable count.
        """
        values = self._values
        activity = self._activity
        self._heap = [
            (-activity[v], v)
            for v in range(1, self._nvars + 1)
            if values[v] == 0
        ]
        heapify(self._heap)

    # ------------------------------------------------------------------
    # Assignment queries (the propagator-facing surface)
    # ------------------------------------------------------------------

    def value(self, lit: int) -> Optional[bool]:
        """Current truth value of ``lit`` (None if unassigned)."""
        v = self._assign[lit]
        if v == 0:
            return None
        return v > 0

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

    # ------------------------------------------------------------------
    # Clause arena
    # ------------------------------------------------------------------

    def _alloc(self, lits: Sequence[int]) -> int:
        """Store ``lits`` as an arena record; returns its reference."""
        arena = self._arena
        ref = len(arena)
        arena.append(len(lits))
        arena.extend(lits)
        return ref

    def _clause_lits(self, ref: int) -> List[int]:
        """The literals of ``ref`` (copies; used off the hot path)."""
        arena = self._arena
        return arena[ref + 1 : ref + 1 + arena[ref]]

    def clause_db_bytes(self) -> int:
        """Bytes held by the clause arena at 4 bytes per int slot
        (including not-yet-collected garbage; the arena is compacted on
        database reduction)."""
        return 4 * len(self._arena)

    def _attach(self, ref: int) -> None:
        arena = self._arena
        first = arena[ref + 1]
        second = arena[ref + 2]
        if arena[ref] == 2:
            # Binary clauses go to the static implication lists (exempt
            # from deletion, so the lists never churn during search):
            # flat [implied_lit, ref, ...] int pairs.
            bin_watches = self._bin_watches
            code = (-first << 1) if first < 0 else (first << 1) | 1
            bin_watches[code].extend((second, ref))
            code = (-second << 1) if second < 0 else (second << 1) | 1
            bin_watches[code].extend((first, ref))
        else:
            # Longer clauses: movable (blocker, ref) pair watch lists.
            watches = self._watches
            code = (-first << 1) if first < 0 else (first << 1) | 1
            watches[code].append((second, ref))
            code = (-second << 1) if second < 0 else (second << 1) | 1
            watches[code].append((first, ref))

    def _detach(self, ref: int) -> None:
        arena = self._arena
        binary = arena[ref] == 2
        for k in (ref + 1, ref + 2):
            lit = arena[k]
            code = (-lit << 1) if lit < 0 else (lit << 1) | 1
            if binary:
                wl = self._bin_watches[code]
                for i in range(1, len(wl), 2):
                    if wl[i] == ref:
                        del wl[i - 1 : i + 1]
                        break
            else:
                pairs = self._watches[code]
                for i, pair in enumerate(pairs):
                    if pair[1] == ref:
                        del pairs[i]
                        break

    # ------------------------------------------------------------------
    # Clause addition
    # ------------------------------------------------------------------

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause at decision level 0 (outside of search).

        Returns ``False`` if the solver became permanently unsatisfiable.
        """
        assert self.decision_level == 0, "use add_propagator_clause during search"
        if self._unsat:
            return False
        assign = self._assign
        seen: Set[int] = set()
        out: List[int] = []
        for lit in lits:
            if lit == 0 or abs(lit) > self._nvars:
                raise ValueError(f"invalid literal {lit}")
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            value = assign[lit]
            if value > 0:
                return True  # satisfied at level 0
            if value < 0:
                continue  # drop false literal
            seen.add(lit)
            out.append(lit)
        if not out:
            self._unsat = True
            return False
        if len(out) == 1:
            self._enqueue(out[0], NO_REASON)
            if self._propagate_boolean() is not None:
                self._unsat = True
                return False
            return True
        ref = self._alloc(out)
        self._clause_refs.append(ref)
        self._attach(ref)
        return True

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
        assign = self._assign
        levels = self._levels
        if any(assign[lit] > 0 and levels[abs(lit)] == 0 for lit in lits):
            return True  # satisfied forever
        lits = [
            lit for lit in lits if not (assign[lit] < 0 and levels[abs(lit)] == 0)
        ]
        if not lits:
            self._pending_conflict = EMPTY_CLAUSE
            return False

        def sort_key(lit: int) -> Tuple[int, int]:
            value = assign[lit]
            if value == 0:
                return (2, 0)
            if value > 0:
                return (3, levels[abs(lit)])
            return (1, levels[abs(lit)])  # false: later levels first

        lits.sort(key=sort_key, reverse=True)
        if len(lits) == 1:
            lit = lits[0]
            value = assign[lit]
            if value > 0:
                return True
            # Unit clauses are arena records but neither watched nor
            # tracked for deletion (they may serve as reasons).
            ref = self._alloc(lits)
            if value < 0:
                self._pending_conflict = ref
                return False
            # Unit: enqueue at the current level with this clause as reason.
            self._enqueue(lit, ref)
            return True
        ref = self._alloc(lits)
        self._learned_refs.append(ref)
        self._cla_act[ref] = 0.0
        self._attach(ref)
        first, second = lits[0], lits[1]
        value_first = assign[first]
        if value_first < 0:
            # All literals false: conflicting.
            self._pending_conflict = ref
            return False
        if assign[second] < 0 and value_first == 0:
            # Unit under current assignment.
            self._enqueue(first, ref)
        return True

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
        code = (-lit << 1) | 1 if lit < 0 else (lit << 1)
        self._prop_watches[code].append(index)
        # Deliver an already-true watch immediately so no event is missed.
        if self._assign[lit] > 0:
            self._prop_buffers[index].append(lit)

    def requeue_watch(self, lit: int, propagator: PropagatorBase) -> None:
        """Re-deliver a true watched literal to ``propagator``.

        Used by drivers whose pruning state changes *between* solve calls
        (e.g. the DSE archive grows): re-queuing a root-level literal
        forces the propagator to re-evaluate at the next fixpoint.
        """
        index = self._propagators.index(propagator)
        if self._assign[lit] > 0:
            self._prop_buffers[index].append(lit)

    # ------------------------------------------------------------------
    # Assignment and propagation
    # ------------------------------------------------------------------

    def _enqueue(self, lit: int, reason: int) -> None:
        var = lit if lit > 0 else -lit
        assert self._values[var] == 0
        self._values[var] = 1 if lit > 0 else -1
        self._assign[lit] = 1
        self._assign[-lit] = -1
        self._levels[var] = len(self._trail_lim)
        self._reasons[var] = reason
        self._trail.append(lit)
        self._phase[var] = lit > 0
        self.stats.propagations += 1

    def _propagate_boolean(self) -> Optional[int]:
        """Unit propagation to fixpoint; returns a conflicting ref or None.

        Hot loop: truth tests are single literal-indexed lookups
        (``assign[lit]``: > 0 true, < 0 false, 0 unassigned).  Binary
        implications run first through the static pair lists (one lookup
        per clause, no watch moving); longer clauses go through the
        movable blocker watch lists over the arena.
        """
        assign = self._assign
        values = self._values
        levels = self._levels
        reasons = self._reasons
        phase = self._phase
        arena = self._arena
        watches = self._watches
        bin_watches = self._bin_watches
        trail = self._trail
        prop_watches = self._prop_watches
        prop_buffers = self._prop_buffers
        enqueued = 0
        conflict: Optional[int] = None
        level = len(self._trail_lim)
        qhead = self._qhead
        while qhead < len(trail):
            lit = trail[qhead]
            qhead += 1
            code = (lit << 1) if lit > 0 else ((-lit) << 1) | 1
            # Feed propagator buffers.
            pw = prop_watches[code]
            if pw:
                for index in pw:
                    prop_buffers[index].append(lit)
            # Binary implications: ``lit`` true forces every paired lit.
            bw = bin_watches[code]
            for i in range(0, len(bw), 2):
                other = bw[i]
                val = assign[other]
                if val > 0:
                    continue
                if val < 0:
                    conflict = bw[i + 1]
                    break
                var = other if other > 0 else -other
                values[var] = 1 if other > 0 else -1
                assign[other] = 1
                assign[-other] = -1
                levels[var] = level
                reasons[var] = bw[i + 1]
                trail.append(other)
                phase[var] = other > 0
                enqueued += 1
            if conflict is not None:
                break
            wl = watches[code]
            i = 0
            j = 0
            n = len(wl)
            false_lit = -lit
            while i < n:
                pair = wl[i]
                i += 1
                if assign[pair[0]] > 0:
                    wl[j] = pair
                    j += 1
                    continue
                ref = pair[1]
                base = ref + 1
                # Ensure the falsified literal is at position 1.
                first = arena[base]
                if first == false_lit:
                    first = arena[base + 1]
                    arena[base] = first
                    arena[base + 1] = false_lit
                first_val = assign[first]
                if first_val > 0:
                    # Keep the watch with the true literal as blocker.
                    wl[j] = pair if pair[0] == first else (first, ref)
                    j += 1
                    continue
                # Look for a replacement watch (a non-false literal).
                found = False
                for k in range(base + 2, base + arena[ref]):
                    other = arena[k]
                    if assign[other] >= 0:
                        arena[base + 1] = other
                        arena[k] = false_lit
                        neg_code = (
                            (other << 1) | 1 if other > 0 else (-other) << 1
                        )
                        watches[neg_code].append((first, ref))
                        found = True
                        break
                if found:
                    continue
                # Clause is unit or conflicting.
                wl[j] = (first, ref)
                j += 1
                if first_val < 0:
                    conflict = ref
                    # Copy remaining watches back.
                    while i < n:
                        wl[j] = wl[i]
                        i += 1
                        j += 1
                else:
                    # Inline enqueue of the unit literal.
                    var = first if first > 0 else -first
                    values[var] = 1 if first > 0 else -1
                    assign[first] = 1
                    assign[-first] = -1
                    levels[var] = level
                    reasons[var] = ref
                    trail.append(first)
                    phase[var] = first > 0
                    enqueued += 1
            del wl[j:]
            if conflict is not None:
                break
        self._qhead = qhead
        self.stats.propagations += enqueued
        return conflict

    def _propagate(self) -> Optional[int]:
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
        if len(self._trail_lim) <= level:
            return
        limit = self._trail_lim[level]
        assign = self._assign
        values = self._values
        reasons = self._reasons
        activity = self._activity
        trail = self._trail
        heap = self._heap
        for index in range(len(trail) - 1, limit - 1, -1):
            lit = trail[index]
            var = lit if lit > 0 else -lit
            values[var] = 0
            assign[lit] = 0
            assign[-lit] = 0
            reasons[var] = NO_REASON
            heappush(heap, (-activity[var], var))
        if len(heap) > 2 * self._nvars + 16:
            # Lazy deletion leaves stale (activity, var) tuples behind;
            # compact so enumeration runs keep the heap bounded.
            self._rescale_heap()
        del trail[limit:]
        del self._trail_lim[level:]
        if self._qhead > limit:
            self._qhead = limit
        # Drop buffered propagator changes that are no longer assigned true.
        for index in range(len(self._prop_buffers)):
            buffer = self._prop_buffers[index]
            if buffer:
                self._prop_buffers[index] = [
                    lit for lit in buffer if assign[lit] > 0
                ]
        for propagator in self._propagators:
            propagator.undo(self, level)

    # ------------------------------------------------------------------
    # Conflict analysis
    # ------------------------------------------------------------------

    def _analyze(self, conflict: int) -> Tuple[List[int], int]:
        """First-UIP analysis; returns (learned clause lits, backjump level)."""
        arena = self._arena
        levels = self._levels
        reasons = self._reasons
        trail = self._trail
        seen = self._seen
        activity = self._activity
        cla_act = self._cla_act
        var_inc = self._var_inc
        cla_inc = self._cla_inc
        current = len(self._trail_lim)
        learned: List[int] = [0]  # placeholder for the asserting literal
        counter = 0
        lit = 0
        index = len(trail) - 1
        ref = conflict
        is_conflict_clause = True
        path: List[int] = []

        while True:
            # Inline clause bump (learned clauses only; rescale is rare).
            act = cla_act.get(ref)
            if act is not None:
                act += cla_inc
                cla_act[ref] = act
                if act > 1e20:
                    for other in cla_act:
                        cla_act[other] *= 1e-20
                    cla_inc = self._cla_inc = self._cla_inc * 1e-20
            for k in range(ref + 1, ref + 1 + arena[ref]):
                q = arena[k]
                # For reason clauses, position 0 is the propagated literal.
                if not is_conflict_clause and q == lit:
                    continue
                var = q if q > 0 else -q
                if not seen[var] and levels[var] > 0:
                    seen[var] = 1
                    path.append(var)
                    # Inline VSIDS bump; overflow rescale is rare.
                    a = activity[var] + var_inc
                    activity[var] = a
                    if a > 1e100:
                        for v in range(1, self._nvars + 1):
                            activity[v] *= 1e-100
                        var_inc = self._var_inc = self._var_inc * 1e-100
                        self._rescale_heap()
                    if levels[var] >= current:
                        counter += 1
                    else:
                        learned.append(q)
            # Select next literal to expand.
            while True:
                lit = trail[index]
                var = lit if lit > 0 else -lit
                if seen[var]:
                    break
                index -= 1
            index -= 1
            seen[var] = 0
            ref = reasons[var]
            is_conflict_clause = False
            counter -= 1
            if counter == 0:
                break
        learned[0] = -lit

        # Recursive minimization: drop literals implied by the rest.
        keep = [learned[0]]
        lit_levels = {levels[abs(q)] for q in learned[1:]}
        for q in learned[1:]:
            if self._redundant(q, lit_levels):
                continue
            keep.append(q)
        for var in path:
            seen[var] = 0

        if len(keep) == 1:
            backjump = 0
        else:
            # Move the highest-level literal (besides the UIP) to position 1.
            max_i = 1
            for i in range(2, len(keep)):
                if levels[abs(keep[i])] > levels[abs(keep[max_i])]:
                    max_i = i
            keep[1], keep[max_i] = keep[max_i], keep[1]
            backjump = levels[abs(keep[1])]
        return keep, backjump

    def _redundant(self, lit: int, lit_levels: Set[int]) -> bool:
        """Check whether ``lit`` is implied by the remaining learned lits."""
        arena = self._arena
        levels = self._levels
        reasons = self._reasons
        seen = self._seen
        stack = [lit]
        visited: List[int] = []
        result = True
        while stack:
            current = stack.pop()
            ref = reasons[abs(current)]
            if ref < 0:
                result = False
                break
            failed = False
            for k in range(ref + 1, ref + 1 + arena[ref]):
                q = arena[k]
                var = q if q > 0 else -q
                if q == -current or levels[var] == 0 or seen[var]:
                    continue
                if levels[var] not in lit_levels:
                    failed = True
                    break
                seen[var] = 1
                visited.append(var)
                stack.append(q)
            if failed:
                result = False
                break
        for var in visited:
            seen[var] = 0
        return result

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def _decide(self) -> Optional[int]:
        saving = self.phase_saving
        values = self._values
        phase = self._phase
        heap = self._heap
        while heap:
            var = heappop(heap)[1]
            if values[var] == 0:
                return var if (saving and phase[var]) else -var
        for var in range(1, self._nvars + 1):
            if values[var] == 0:
                return var if (saving and phase[var]) else -var
        return None

    # ------------------------------------------------------------------
    # Clause DB reduction + arena garbage collection
    # ------------------------------------------------------------------

    def _locked(self, ref: int) -> bool:
        lit = self._arena[ref + 1]
        return self._assign[lit] > 0 and self._reasons[abs(lit)] == ref

    def _reduce_db(self) -> None:
        cla_act = self._cla_act
        arena = self._arena
        self._learned_refs.sort(key=lambda ref: cla_act.get(ref, 0.0))
        target = len(self._learned_refs) // 2
        kept: List[int] = []
        removed = 0
        for ref in self._learned_refs:
            if removed < target and arena[ref] > 2 and not self._locked(ref):
                self._detach(ref)
                cla_act.pop(ref, None)
                removed += 1
            else:
                kept.append(ref)
        self._learned_refs = kept
        self.stats.deleted += removed
        if removed:
            self._collect_arena()

    def _collect_arena(self) -> None:
        """Compact the arena, dropping unreachable records.

        Live records are the problem clauses, the kept learned clauses,
        and any reason refs on the trail (propagator unit clauses are
        stored in the arena without being attached or tracked, so the
        reason scan is what keeps them alive).  Watch lists and the
        reason array are rewritten with the remapped refs.
        """
        arena = self._arena
        reasons = self._reasons
        live = set(self._clause_refs)
        live.update(self._learned_refs)
        for lit in self._trail:
            ref = reasons[lit if lit > 0 else -lit]
            if ref >= 0:
                live.add(ref)
        if self._pending_conflict is not None and self._pending_conflict >= 0:
            live.add(self._pending_conflict)
        new_arena: List[int] = []
        mapping: Dict[int, int] = {}
        for ref in sorted(live):
            mapping[ref] = len(new_arena)
            new_arena.append(arena[ref])
            new_arena.extend(arena[ref + 1 : ref + 1 + arena[ref]])
        self._arena = new_arena
        self._clause_refs = [mapping[ref] for ref in self._clause_refs]
        self._learned_refs = [mapping[ref] for ref in self._learned_refs]
        self._cla_act = {
            mapping[ref]: act for ref, act in self._cla_act.items()
        }
        for var in range(1, self._nvars + 1):
            ref = reasons[var]
            if ref >= 0:
                reasons[var] = mapping[ref]
        for pairs in self._watches:
            for i, pair in enumerate(pairs):
                pairs[i] = (pair[0], mapping[pair[1]])
        # Binary clauses are never deleted, but compaction still moves
        # their records: the static implication lists must be remapped.
        for wl in self._bin_watches:
            for i in range(1, len(wl), 2):
                wl[i] = mapping[wl[i]]
        if self._pending_conflict is not None and self._pending_conflict >= 0:
            self._pending_conflict = mapping[self._pending_conflict]

    # ------------------------------------------------------------------
    # Main search
    # ------------------------------------------------------------------

    def solve(self, assumptions: Sequence[int] = ()) -> SolveResult:
        """Search for a model extending ``assumptions``.

        On SAT, the assignment is total and remains available through
        :meth:`value` until the next ``solve``/``add_clause`` call; the
        caller typically records the model and adds a blocking clause.
        """
        self.interrupted = False
        if self._unsat:
            return SolveResult(False)
        self._backtrack(0)
        conflict = self._propagate()
        if conflict is not None:
            self._unsat = True
            return SolveResult(False)

        arena = self._arena
        levels = self._levels
        stats = self.stats
        # _trail and _trail_lim are only ever mutated in place, so these
        # aliases stay valid across _backtrack/_enqueue calls.
        trail = self._trail
        trail_lim = self._trail_lim
        n_assumptions = len(assumptions)
        max_learned = max(self.max_learned_base, len(self._clause_refs) // 3)
        restart_count = 0
        restart_base = self.restart_base
        conflicts_until_restart = (
            restart_base * _luby(restart_count + 1) if restart_base else None
        )
        conflicts_at_start = stats.conflicts

        try:
            while True:
                conflict = self._propagate()
                arena = self._arena  # _reduce_db may have replaced it
                if conflict is not None:
                    stats.conflicts += 1
                    if conflict == EMPTY_CLAUSE or arena[conflict] == 0:
                        self._unsat = True
                        return SolveResult(False)
                    span = range(conflict + 1, conflict + 1 + arena[conflict])
                    if not trail_lim or all(
                        levels[abs(arena[k])] == 0 for k in span
                    ):
                        self._unsat = True
                        return SolveResult(False)
                    # A propagator clause may be conflicting without a
                    # literal at the current level; backtrack until
                    # analysis applies.
                    top = max(levels[abs(arena[k])] for k in span)
                    if top < len(trail_lim):
                        self._backtrack(top)
                    if not trail_lim:
                        self._unsat = True
                        return SolveResult(False)
                    current = len(trail_lim)
                    if not any(levels[abs(arena[k])] == current for k in span):
                        # `top` equals an assumption level whose decision is
                        # not in the clause; fall back to a plain backtrack
                        # by one level re-propagating the clause.
                        self._backtrack(len(trail_lim) - 1)
                        self._pending_conflict = conflict
                        continue
                    learned, backjump = self._analyze(conflict)
                    self._backtrack(backjump)
                    if len(learned) == 1:
                        value = self._assign[learned[0]]
                        if value < 0:
                            self._unsat = True
                            return SolveResult(False)
                        if value == 0:
                            self._enqueue(learned[0], NO_REASON)
                    else:
                        ref = self._alloc(learned)
                        self._learned_refs.append(ref)
                        self._cla_act[ref] = 0.0
                        stats.learned += 1
                        self._attach(ref)
                        self._enqueue(learned[0], ref)
                    self._var_inc /= self._var_decay
                    self._cla_inc /= self._cla_decay

                    if (
                        self.conflict_limit is not None
                        and stats.conflicts - conflicts_at_start
                        >= self.conflict_limit
                    ):
                        self.interrupted = True
                        self._backtrack(0)
                        return SolveResult(False)
                    if (
                        conflicts_until_restart is not None
                        and stats.conflicts - conflicts_at_start
                        >= conflicts_until_restart
                    ):
                        restart_count += 1
                        stats.restarts += 1
                        conflicts_until_restart += restart_base * _luby(
                            restart_count + 1
                        )
                        self._backtrack(0)
                    if len(self._learned_refs) > max_learned:
                        self._reduce_db()
                        arena = self._arena
                        max_learned = int(max_learned * 1.3)
                    continue

                # No conflict: assumptions, then decisions.
                if len(trail_lim) < n_assumptions:
                    lit = assumptions[len(trail_lim)]
                    value = self._assign[lit]
                    if value > 0:
                        # Already implied: open an empty level to keep the
                        # level/assumption correspondence simple.
                        trail_lim.append(len(trail))
                        continue
                    if value < 0:
                        core = self._analyze_final(lit, assumptions)
                        self._backtrack(0)
                        return SolveResult(False, core=tuple(core))
                    stats.decisions += 1
                    trail_lim.append(len(trail))
                    self._enqueue(lit, NO_REASON)
                    continue

                if len(trail) == self._nvars:
                    # Total assignment: final propagator checks.
                    ok = True
                    for propagator in self._propagators:
                        keep_going = propagator.check(self)
                        if self._pending_conflict is not None:
                            ok = False
                            break
                        if not keep_going:
                            raise RuntimeError(
                                f"{type(propagator).__name__}.check() returned "
                                f"False without adding a conflicting clause"
                            )
                    if ok:
                        return SolveResult(True)
                    continue  # pending conflict resolved by next _propagate()

                decision = self._decide()
                if decision is None:
                    continue
                stats.decisions += 1
                trail_lim.append(len(trail))
                self._enqueue(decision, NO_REASON)
        finally:
            stats.clause_db_bytes = self.clause_db_bytes()

    def _analyze_final(self, failed: int, assumptions: Sequence[int]) -> List[int]:
        """Compute an unsatisfiable core from a failed assumption."""
        arena = self._arena
        levels = self._levels
        reasons = self._reasons
        assumption_set = set(assumptions)
        core = [failed]
        seen = {abs(failed)}
        queue = [-failed]
        while queue:
            lit = queue.pop()
            ref = reasons[abs(lit)]
            if ref < 0:
                if lit in assumption_set and lit != -failed:
                    core.append(lit)
                continue
            for k in range(ref + 1, ref + 1 + arena[ref]):
                q = arena[k]
                var = abs(q)
                if var not in seen and levels[var] > 0:
                    seen.add(var)
                    queue.append(-q)
        return core

    # ------------------------------------------------------------------
    # Model access and heuristic hooks
    # ------------------------------------------------------------------

    def set_phase(self, var: int, phase: bool) -> None:
        """Set the saved phase of ``var`` (decision polarity hint)."""
        if not 1 <= var <= self._nvars:
            raise ValueError(f"unknown variable {var}")
        self._phase[var] = phase

    def set_initial_activity(self, var: int, activity: float) -> None:
        """Seed the VSIDS activity of ``var`` (decision priority hint)."""
        if not 1 <= var <= self._nvars:
            raise ValueError(f"unknown variable {var}")
        self._activity[var] = activity
        heappush(self._heap, (-activity, var))

    def reset_to_root(self) -> None:
        """Backtrack to decision level 0 (e.g. before adding clauses
        between enumeration steps)."""
        self._backtrack(0)

    def model(self) -> List[int]:
        """The current total assignment as a list of true literals."""
        values = self._values
        return [
            (v if values[v] > 0 else -v)
            for v in range(1, self._nvars + 1)
            if values[v] != 0
        ]
