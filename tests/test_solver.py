"""Unit tests for the CDCL engines.

Each test class runs on the flat engine (repro.asp.flatsolver), and its
``...Reference`` twin at the end of the file runs the same tests on the
reference solver (repro.asp.solver) that the flat engine is held to.
"""

import pytest

from repro.asp.flatsolver import FlatSolver, PropagatorBase, _luby
from repro.asp.solver import Solver


class EngineCase:
    """Tests build their solvers from ``engine``."""

    engine = FlatSolver

    def new_solver(self, n):
        solver = self.engine()
        variables = [solver.new_var() for _ in range(n)]
        return solver, variables


class TestBasics(EngineCase):
    def test_empty_is_sat(self):
        solver = self.engine()
        assert solver.solve().satisfiable

    def test_unit_clause(self):
        solver, (a,) = self.new_solver(1)
        solver.add_clause([a])
        assert solver.solve().satisfiable
        assert solver.value(a) is True

    def test_contradiction(self):
        solver, (a,) = self.new_solver(1)
        solver.add_clause([a])
        assert not solver.add_clause([-a])
        assert not solver.solve().satisfiable

    def test_simple_implication_chain(self):
        solver, (a, b, c) = self.new_solver(3)
        solver.add_clause([-a, b])
        solver.add_clause([-b, c])
        solver.add_clause([a])
        assert solver.solve().satisfiable
        assert solver.value(c) is True

    def test_tautology_ignored(self):
        solver, (a,) = self.new_solver(1)
        assert solver.add_clause([a, -a])
        assert solver.solve().satisfiable

    def test_invalid_literal_rejected(self):
        solver, _ = self.new_solver(1)
        with pytest.raises(ValueError):
            solver.add_clause([0])
        with pytest.raises(ValueError):
            solver.add_clause([5])


class TestSearch(EngineCase):
    def test_pigeonhole_unsat(self):
        # 4 pigeons, 3 holes: classic small UNSAT instance exercising
        # conflict analysis and learning.
        solver = self.engine()
        holes = 3
        pigeons = 4
        var = {
            (p, h): solver.new_var() for p in range(pigeons) for h in range(holes)
        }
        for p in range(pigeons):
            solver.add_clause([var[p, h] for h in range(holes)])
        for h in range(holes):
            for p1 in range(pigeons):
                for p2 in range(p1 + 1, pigeons):
                    solver.add_clause([-var[p1, h], -var[p2, h]])
        assert not solver.solve().satisfiable
        assert solver.stats.conflicts > 0

    def test_pigeonhole_sat(self):
        solver = self.engine()
        n = 4
        var = {(p, h): solver.new_var() for p in range(n) for h in range(n)}
        for p in range(n):
            solver.add_clause([var[p, h] for h in range(n)])
        for h in range(n):
            for p1 in range(n):
                for p2 in range(p1 + 1, n):
                    solver.add_clause([-var[p1, h], -var[p2, h]])
        assert solver.solve().satisfiable

    def test_model_enumeration_by_blocking(self):
        solver, (a, b) = self.new_solver(2)
        solver.add_clause([a, b])
        models = set()
        while solver.solve().satisfiable:
            model = tuple(solver.model())
            models.add(model)
            solver.reset_to_root()
            if not solver.add_clause([-lit for lit in model]):
                break
        assert len(models) == 3  # all but (False, False)

    def test_statistics_accumulate(self):
        solver, (a, b, c) = self.new_solver(3)
        solver.add_clause([a, b, c])
        solver.solve()
        assert solver.stats.decisions >= 1


class TestAssumptions(EngineCase):
    def test_sat_under_assumption(self):
        solver, (a, b) = self.new_solver(2)
        solver.add_clause([-a, b])
        result = solver.solve([a])
        assert result.satisfiable
        assert solver.value(b) is True

    def test_unsat_under_assumptions_with_core(self):
        solver, (a, b) = self.new_solver(2)
        solver.add_clause([-a, -b])
        result = solver.solve([a, b])
        assert not result.satisfiable
        assert set(result.core) <= {a, b}
        assert result.core

    def test_solver_usable_after_assumption_unsat(self):
        solver, (a, b) = self.new_solver(2)
        solver.add_clause([-a, -b])
        assert not solver.solve([a, b]).satisfiable
        assert solver.solve([a]).satisfiable
        assert solver.value(b) is False

    def test_conflicting_assumption_pair(self):
        solver, (a,) = self.new_solver(1)
        result = solver.solve([a, -a])
        assert not result.satisfiable


class TestConflictLimit(EngineCase):
    def test_interrupt_flag(self):
        solver = self.engine()
        n = 5  # pigeonhole 6/5, hard enough to exceed a tiny budget
        var = {
            (p, h): solver.new_var() for p in range(n + 1) for h in range(n)
        }
        for p in range(n + 1):
            solver.add_clause([var[p, h] for h in range(n)])
        for h in range(n):
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    solver.add_clause([-var[p1, h], -var[p2, h]])
        solver.conflict_limit = 3
        result = solver.solve()
        assert not result.satisfiable
        assert solver.interrupted


class _ForbidPair(PropagatorBase):
    """Test propagator: forbids two watched literals being true together."""

    def __init__(self, first, second):
        self.first = first
        self.second = second
        self.calls = 0

    def on_attach(self, solver):
        solver.add_propagator_watch(self.first, self)
        solver.add_propagator_watch(self.second, self)

    def propagate(self, solver, changes):
        self.calls += 1
        if solver.value(self.first) is True and solver.value(self.second) is True:
            return solver.add_propagator_clause([-self.first, -self.second])
        return True

    def check(self, solver):
        if solver.value(self.first) is True and solver.value(self.second) is True:
            return solver.add_propagator_clause([-self.first, -self.second])
        return True


class TestPropagators(EngineCase):
    def test_propagator_forbids_pair(self):
        solver, (a, b) = self.new_solver(2)
        solver.add_clause([a])
        solver.add_clause([b, -b])  # mention b
        propagator = _ForbidPair(a, b)
        solver.register_propagator(propagator)
        assert solver.solve().satisfiable
        assert not (solver.value(a) is True and solver.value(b) is True)

    def test_propagator_makes_unsat(self):
        solver, (a, b) = self.new_solver(2)
        solver.add_clause([a])
        solver.add_clause([b])
        solver.register_propagator(_ForbidPair(a, b))
        assert not solver.solve().satisfiable

    def test_propagator_clause_at_root(self):
        solver, (a, b) = self.new_solver(2)
        solver.register_propagator(_ForbidPair(a, b))
        solver.add_clause([a])
        solver.add_clause([b, a])
        assert solver.solve().satisfiable
        assert solver.value(b) is not True or solver.value(a) is not True

    def test_propagator_clause_rejects_invalid_literals(self):
        solver, (a,) = self.new_solver(1)
        for lits in ([0], [0, a], [7, -7]):
            with pytest.raises(ValueError):
                solver.add_propagator_clause(lits)
        assert solver.add_propagator_clause([a, -a])  # tautology: dropped


class _CountingUndo(PropagatorBase):
    def __init__(self, lit):
        self.lit = lit
        self.undo_calls = 0

    def on_attach(self, solver):
        solver.add_propagator_watch(self.lit, self)

    def undo(self, solver, level):
        self.undo_calls += 1


class TestLuby:
    def test_prefix(self):
        assert [_luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestSolverKnobs(EngineCase):
    def test_no_restarts(self):
        solver = self.engine()
        solver.restart_base = None
        n = 5
        var = {(p, h): solver.new_var() for p in range(n + 1) for h in range(n)}
        for p in range(n + 1):
            solver.add_clause([var[p, h] for h in range(n)])
        for h in range(n):
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    solver.add_clause([-var[p1, h], -var[p2, h]])
        assert not solver.solve().satisfiable
        assert solver.stats.restarts == 0

    def test_phase_saving_off_prefers_negative(self):
        solver = self.engine()
        a = solver.new_var(phase=True)
        solver.phase_saving = False
        solver.add_clause([a, -a])
        assert solver.solve().satisfiable
        assert solver.value(a) is False

    def test_custom_restart_base(self):
        solver = self.engine()
        solver.restart_base = 1  # restart after every conflict unit
        n = 4
        var = {(p, h): solver.new_var() for p in range(n + 1) for h in range(n)}
        for p in range(n + 1):
            solver.add_clause([var[p, h] for h in range(n)])
        for h in range(n):
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    solver.add_clause([-var[p1, h], -var[p2, h]])
        assert not solver.solve().satisfiable
        assert solver.stats.restarts > 0

    def test_clause_database_reduction(self):
        # A small learned-clause budget forces database reduction on a
        # conflict-heavy instance.
        solver = self.engine()
        solver.max_learned_base = 20
        n = 5
        var = {(p, h): solver.new_var() for p in range(n + 1) for h in range(n)}
        for p in range(n + 1):
            solver.add_clause([var[p, h] for h in range(n)])
        for h in range(n):
            for p1 in range(n + 1):
                for p2 in range(p1 + 1, n + 1):
                    solver.add_clause([-var[p1, h], -var[p2, h]])
        assert not solver.solve().satisfiable
        assert solver.stats.deleted > 0


class TestBasicsReference(TestBasics):
    engine = Solver


class TestSearchReference(TestSearch):
    engine = Solver


class TestAssumptionsReference(TestAssumptions):
    engine = Solver


class TestConflictLimitReference(TestConflictLimit):
    engine = Solver


class TestPropagatorsReference(TestPropagators):
    engine = Solver


class TestSolverKnobsReference(TestSolverKnobs):
    engine = Solver
