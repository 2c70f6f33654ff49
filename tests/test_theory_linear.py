"""Tests for the linear theory propagator (repro.theory.linear)."""

import pytest

from repro.asp import Control
from repro.asp.syntax import parse_term
from repro.theory.linear import LinearPropagator, TheoryError, linearize


def solve_with_theory(text, models=0):
    propagator = LinearPropagator()
    ctl = Control()
    ctl.add(text)
    ctl.register_propagator(propagator)
    ctl.ground()
    collected = []
    summary = ctl.solve(on_model=lambda m: collected.append(m), models=models)
    return summary, collected, propagator, ctl


def ints(model):
    return {str(k): v for k, v in model.theory["ints"].items()}


class TestLinearize:
    def test_variable(self):
        from repro.asp.grounder import ground_theory_term
        from repro.asp.parser import parse_program

        rule = parse_program("&sum { start(t1) } <= 3.").rules[0]
        term = rule.head.elements[0].terms[0]
        const, variables = linearize(ground_theory_term(term, {}))
        assert const == 0
        assert variables == [(1, parse_term("start(t1)"))]

    def test_difference(self):
        from repro.asp.grounder import ground_theory_term
        from repro.asp.parser import parse_program

        rule = parse_program("&sum { a - b } <= 3.").rules[0]
        term = rule.head.elements[0].terms[0]
        const, variables = linearize(ground_theory_term(term, {}))
        assert const == 0
        assert sorted(variables) == [(-1, parse_term("b")), (1, parse_term("a"))]

    def test_scaling_rejected_as_nonlinear_when_two_vars(self):
        from repro.asp.grounder import TheoryTermOp
        from repro.asp.syntax import Function

        with pytest.raises(TheoryError):
            linearize(TheoryTermOp("*", (Function("a"), Function("b"))))


class TestDomains:
    def test_dom_enforced(self):
        _summary, models, _p, _ctl = solve_with_theory(
            "&dom { 2..5 } = x. &sum { x } >= 0.", models=1
        )
        assert 2 <= ints(models[0])["x"] <= 5

    def test_dom_with_constraint(self):
        _summary, models, _p, _ctl = solve_with_theory(
            "&dom { 0..10 } = x. &sum { x } >= 7.", models=1
        )
        assert ints(models[0])["x"] >= 7

    def test_unsat_empty_interval(self):
        summary, _models, _p, _ctl = solve_with_theory(
            "&dom { 0..3 } = x. &sum { x } >= 5."
        )
        assert not summary.satisfiable


class TestConstraints:
    def test_chain_of_differences(self):
        _summary, models, _p, _ctl = solve_with_theory(
            """
            idx(1..3).
            &dom { 0..100 } = s(X) :- idx(X).
            &sum { s(2) - s(1) } >= 10.
            &sum { s(3) - s(2) } >= 5.
            """,
            models=1,
        )
        values = ints(models[0])
        assert values["s(2)"] >= values["s(1)"] + 10
        assert values["s(3)"] >= values["s(2)"] + 5

    def test_equality_guard(self):
        _summary, models, _p, _ctl = solve_with_theory(
            "&dom { 0..9 } = x. &sum { x } = 4.", models=1
        )
        assert ints(models[0])["x"] == 4

    def test_guard_with_variable_rhs(self):
        _summary, models, _p, _ctl = solve_with_theory(
            """
            &dom { 0..9 } = x. &dom { 0..9 } = y.
            &sum { x } = 3.
            &sum { y } >= x.
            &sum { y } <= 3.
            """,
            models=1,
        )
        assert ints(models[0])["y"] == 3

    def test_infeasible_cycle(self):
        summary, _models, propagator, _ctl = solve_with_theory(
            """
            &dom { 0..50 } = a. &dom { 0..50 } = b.
            &sum { b - a } >= 1.
            &sum { a - b } >= 1.
            """
        )
        assert not summary.satisfiable
        assert propagator.theory_conflicts > 0

    def test_conditional_constraint_only_when_derived(self):
        summary, models, _p, _ctl = solve_with_theory(
            """
            {use}.
            &dom { 0..10 } = x.
            &sum { x } >= 8 :- use.
            &sum { x } <= 2 :- not use.
            """,
            models=0,
        )
        assert summary.models == 2
        for model in models:
            x = ints(model)["x"]
            used = any(str(s) == "use" for s in model.symbols)
            assert (x >= 8) if used else (x <= 2)

    def test_non_difference_like_rejected(self):
        with pytest.raises(TheoryError):
            solve_with_theory("&dom { 0..5 } = x. &sum { 2*x } <= 4.")


class TestBooleanTerms:
    def test_weighted_selection_bound(self):
        summary, models, _p, _ctl = solve_with_theory(
            """
            item(a, 3). item(b, 5). item(c, 4).
            { pick(I) } :- item(I, _).
            &sum { W, I : pick(I), item(I, W) } <= 7.
            """,
            models=0,
        )
        assert summary.satisfiable
        for model in models:
            picked = {str(s.arguments[0]) for s in model.atoms_of("pick", 1)}
            weights = {"a": 3, "b": 5, "c": 4}
            assert sum(weights[i] for i in picked) <= 7
        # Subsets within budget: {}, {a}, {b}, {c}, {a,c}: 5 of 8.
        assert summary.models == 5

    def test_boolean_terms_force_literals(self):
        summary, models, propagator, _ctl = solve_with_theory(
            """
            { pick(1..3) }.
            &sum { 4, X : pick(X) } <= 4.
            :- not pick(1).
            """,
            models=0,
        )
        # pick(1) forced, so pick(2)/pick(3) must be false.
        assert summary.models == 1
        assert len(models[0].atoms_of("pick", 1)) == 1

    def test_mixed_boolean_and_variable(self):
        _summary, models, _p, _ctl = solve_with_theory(
            """
            {fast}. :- not fast.
            &dom { 0..100 } = lat.
            &sum { lat ; -30, f : fast } >= 10.
            """,
            models=1,
        )
        assert ints(models[0])["lat"] >= 40

    def test_sum_equals_boolean_count(self):
        summary, models, _p, _ctl = solve_with_theory(
            """
            { on(1..2) }.
            &dom { 0..4 } = total.
            &sum { 1, X : on(X) } = total.
            &sum { total } >= 2.
            """,
            models=0,
        )
        assert summary.models == 1
        assert len(models[0].atoms_of("on", 1)) == 2


class TestModelValues:
    def test_lower_bound_witness(self):
        _summary, models, propagator, _ctl = solve_with_theory(
            "&dom { 3..9 } = x.", models=1
        )
        assert ints(models[0])["x"] == 3

    def test_statistics_counters(self):
        _summary, _models, propagator, _ctl = solve_with_theory(
            """
            &dom { 0..20 } = a. &dom { 0..20 } = b.
            &sum { b - a } >= 4. &sum { a } >= 2.
            """,
            models=1,
        )
        assert propagator.bound_updates > 0


class TestFixpointCap:
    def test_positive_cycle_without_dom_raises(self):
        # x < y and y < x over the default [0, 2^40] intervals: every pop
        # tightens a bound by one, so only the step cap ends the fixpoint.
        with pytest.raises(
            RuntimeError,
            match=(
                r"^linear propagation did not converge; declare &dom "
                r"intervals for all theory variables$"
            ),
        ):
            solve_with_theory("&sum { x - y } <= -1. &sum { y - x } <= -1.")
