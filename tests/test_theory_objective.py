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
        assert objective.bound(self.solver) == 0
        assert objective.explain(self.solver, 0) == ()
        self.solver.add_clause([self.a])
        self.solver.solve()
        bound = objective.bound(self.solver)
        assert bound in (3, 8)  # b free: solver may set it either way
        assert self.a in objective.explain(self.solver, bound)

    def test_offset(self):
        objective = PseudoBooleanObjective("cost", ((2, self.a),), offset=10)
        assert objective.bound(self.solver) == 10

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


class TestPseudoBooleanExplain:
    """``explain`` keeps the earliest true literals that reach the target."""

    def setup_method(self):
        self.solver = FlatSolver()
        a, b, c, d, e = (self.solver.new_var() for _ in range(5))
        self.a, self.b, self.c, self.d, self.e = a, b, c, d, e
        # c implies a, so both are true at level 1 (a first in term
        # order); then d at level 2, b at level 3, and e false.
        self.solver.add_clause([-c, a])
        assert self.solver.solve(assumptions=[c, d, b, -e])
        self.objective = PseudoBooleanObjective(
            "energy", ((3, a), (5, b), (2, c), (4, d), (1, e))
        )

    def test_level_order_with_term_order_ties(self):
        assert [self.solver.level(lit) for lit in (self.a, self.c)] == [1, 1]
        assert self.solver.level(self.d) == 2
        assert self.solver.level(self.b) == 3
        explain = self.objective.explain
        assert explain(self.solver, 14) == (self.a, self.c, self.d, self.b)

    def test_stops_at_the_target(self):
        a, b, c, d = self.a, self.b, self.c, self.d
        # Cumulative weights in level order: a 3, c 5, d 9, b 14.
        expected = {1: (a,), 3: (a,), 4: (a, c), 5: (a, c), 6: (a, c, d)}
        expected.update({9: (a, c, d), 10: (a, c, d, b), 14: (a, c, d, b)})
        for target, kept in expected.items():
            assert self.objective.explain(self.solver, target) == kept, target

    def test_nothing_needed_up_to_the_offset(self):
        objective = PseudoBooleanObjective(
            "cost", self.objective.terms, offset=10
        )
        assert objective.explain(self.solver, 10) == ()
        assert objective.explain(self.solver, -3) == ()
        assert objective.explain(self.solver, 13) == (self.a,)

    def test_bound_explanation_holds_every_true_literal(self):
        bound = self.objective.bound(self.solver)
        assert bound == 14
        explanation = self.objective.explain(self.solver, bound)
        assert sorted(explanation) == sorted((self.a, self.b, self.c, self.d))

    def test_above_the_bound_rejected(self):
        with pytest.raises(ValueError):
            self.objective.explain(self.solver, 15)


class TestIntVar:
    def test_tracks_linear_lower_bound(self):
        ctl = Control()
        ctl.add("&dom { 3..9 } = x. &sum { x } >= 5.")
        lp = LinearPropagator()
        ctl.register_propagator(lp)
        ctl.ground()
        objective = IntVarObjective("lat", lp, Function("x"))
        assert ctl.solve(models=1).satisfiable
        bound = objective.bound(ctl.solver)
        assert bound == 5
        # justified by the >= 5 constraint literal
        assert objective.explain(ctl.solver, bound)

    def test_explains_the_earliest_bound_reaching_the_target(self):
        ctl = Control()
        ctl.add(
            "{a}. {b}. &dom { 0..9 } = x."
            " &sum { x } >= 3 :- a. &sum { x } >= 6 :- b."
        )
        lp = LinearPropagator()
        ctl.register_propagator(lp)
        ctl.ground()
        objective = IntVarObjective("lat", lp, Function("x"))
        seen = []

        def on_model(model):
            solver = ctl.solver
            var = lp.store.var(Function("x"))
            levels = {}
            for target in range(7):
                reason = objective.explain(solver, target)
                assert reason == lp.store.lb_reason_at_least(var, target)
                levels[target] = max((solver.level(lit) for lit in reason), default=0)
            seen.append((objective.bound(solver), levels))

        # a is decided at level 1 and raises x to 3; b at level 2 raises it to 6.
        assumptions = [(Function("a"), True), (Function("b"), True)]
        assert ctl.solve(on_model=on_model, assumptions=assumptions).satisfiable
        assert seen == [(6, {0: 0, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2})]

    def test_unknown_variable(self):
        lp = LinearPropagator()
        objective = IntVarObjective("lat", lp, Function("nope"))
        with pytest.raises(KeyError):
            objective.bound(FlatSolver())

    def test_no_watch_literals(self):
        lp = LinearPropagator()
        lp.var_id(Function("x"))
        objective = IntVarObjective("lat", lp, Function("x"))
        assert list(objective.watch_literals()) == []
