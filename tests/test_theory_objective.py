"""Unit tests for the objective abstractions (repro.theory.objective)."""

import pytest

from repro.asp import Control
from repro.asp.flatsolver import FlatSolver
from repro.asp.syntax import Function
from repro.theory.linear import LinearPropagator
from repro.theory.objective import IntVarObjective, PseudoBooleanObjective


class TestPseudoBoolean:
    def setup_method(self):
        self.solver = FlatSolver()
        self.a = self.solver.new_var()
        self.b = self.solver.new_var()

    def test_lower_bound_counts_true_literals(self):
        objective = PseudoBooleanObjective("energy", ((3, self.a), (5, self.b)))
        assert objective.lower_bound(self.solver) == (0, ())
        self.solver.add_clause([self.a])
        self.solver.solve()
        bound, explanation = objective.lower_bound(self.solver)
        assert bound in (3, 8)  # b free: solver may set it either way
        assert self.a in explanation

    def test_offset(self):
        objective = PseudoBooleanObjective("cost", ((2, self.a),), offset=10)
        assert objective.lower_bound(self.solver)[0] == 10

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            PseudoBooleanObjective("bad", ((-1, self.a),))

    def test_zero_weight_not_watched(self):
        objective = PseudoBooleanObjective("z", ((0, self.a), (2, self.b)))
        assert list(objective.watch_literals()) == [self.b]

    def test_value_on_total_assignment(self):
        objective = PseudoBooleanObjective("energy", ((3, self.a), (5, self.b)))
        self.solver.add_clause([self.a])
        self.solver.add_clause([-self.b])
        self.solver.solve()
        assert objective.value(self.solver) == 3

    def test_negated_literal_terms(self):
        objective = PseudoBooleanObjective("penalty", ((4, -self.a),))
        self.solver.add_clause([-self.a])
        self.solver.solve()
        assert objective.value(self.solver) == 4


class TestIntVar:
    def test_tracks_linear_lower_bound(self):
        ctl = Control()
        ctl.add("&dom { 3..9 } = x. &sum { x } >= 5.")
        lp = LinearPropagator()
        ctl.register_propagator(lp)
        ctl.ground()
        objective = IntVarObjective("lat", lp, Function("x"))
        assert ctl.solve(models=1).satisfiable
        bound, explanation = objective.lower_bound(ctl.solver)
        assert bound == 5
        assert explanation  # justified by the >= 5 constraint literal

    def test_unknown_variable(self):
        lp = LinearPropagator()
        objective = IntVarObjective("lat", lp, Function("nope"))
        with pytest.raises(KeyError):
            objective.lower_bound(FlatSolver())

    def test_no_watch_literals(self):
        lp = LinearPropagator()
        lp.var_id(Function("x"))
        objective = IntVarObjective("lat", lp, Function("x"))
        assert list(objective.watch_literals()) == []
