"""Unit tests for the clause translation (repro.asp.completion)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asp.completion import PseudoBooleanBuilder, translate
from repro.asp.flatsolver import FlatSolver
from repro.asp.ground import GroundProgram
from repro.asp.grounder import Grounder
from repro.asp.parser import parse_program
from repro.asp.syntax import parse_term


def translated(text):
    grounder = Grounder(parse_program(text))
    rules = grounder.ground()
    program = GroundProgram(rules, grounder.possible_atoms, grounder.fact_atoms)
    return translate(program, FlatSolver())


class TestAtomMapping:
    def test_facts_fold_into_true(self):
        translation = translated("a. b :- a.")
        assert translation.atom_lit(parse_term("a")) == translation.true_lit
        assert translation.atom_lit(parse_term("b")) == translation.true_lit

    def test_impossible_atom_is_false(self):
        translation = translated("a.")
        assert translation.atom_lit(parse_term("zz")) == -translation.true_lit

    def test_choice_atom_gets_variable(self):
        translation = translated("{a}.")
        lit = translation.atom_lit(parse_term("a"))
        assert abs(lit) != translation.true_lit

    def test_supports_recorded(self):
        translation = translated("{b}. {c}. a :- b. a :- c.")
        supports = translation.supports[parse_term("a")]
        assert len(supports) == 2

    def test_support_positive_atoms(self):
        translation = translated("{b}. a :- b. c :- a.")
        (support,) = translation.supports[parse_term("c")]
        assert support.positive_atoms == (parse_term("a"),)


class TestModelDecoding:
    def test_symbols_of_model(self):
        translation = translated("a. {b}.")
        solver = translation.solver
        assert solver.solve([translation.atom_lit(parse_term("b"))]).satisfiable
        symbols = translation.symbols_of_model()
        assert parse_term("a") in symbols
        assert parse_term("b") in symbols


class TestPseudoBoolean:
    def _check_equivalence(self, weights, bound):
        """geq literal must equal [sum >= bound] in every total assignment."""
        solver = FlatSolver()
        true_lit = solver.new_var()
        solver.add_clause([true_lit])
        lits = [solver.new_var() for _ in weights]
        builder = PseudoBooleanBuilder(solver, true_lit)
        indicator = builder.geq(list(zip(weights, lits)), bound)
        for mask in itertools.product([False, True], repeat=len(lits)):
            assumptions = [l if bit else -l for l, bit in zip(lits, mask)]
            total = sum(w for w, bit in zip(weights, mask) if bit)
            expected = total >= bound
            result = solver.solve(assumptions + [indicator])
            assert result.satisfiable == expected, (weights, bound, mask)
            result = solver.solve(assumptions + [-indicator])
            assert result.satisfiable == (not expected), (weights, bound, mask)

    def test_cardinality(self):
        self._check_equivalence([1, 1, 1], 2)

    def test_weighted(self):
        self._check_equivalence([3, 2, 2, 1], 5)

    def test_trivially_true(self):
        solver = FlatSolver()
        t = solver.new_var()
        solver.add_clause([t])
        builder = PseudoBooleanBuilder(solver, t)
        assert builder.geq([(1, solver.new_var())], 0) == t

    def test_trivially_false(self):
        solver = FlatSolver()
        t = solver.new_var()
        solver.add_clause([t])
        builder = PseudoBooleanBuilder(solver, t)
        assert builder.geq([(2, solver.new_var())], 3) == -t

    def test_rejects_nonpositive_weight(self):
        solver = FlatSolver()
        t = solver.new_var()
        solver.add_clause([t])
        builder = PseudoBooleanBuilder(solver, t)
        with pytest.raises(ValueError):
            builder.geq([(0, solver.new_var())], 1)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.integers(1, 4), min_size=1, max_size=4),
        st.integers(0, 12),
    )
    def test_equivalence_random(self, weights, bound):
        self._check_equivalence(weights, bound)


class TestChoiceBounds:
    def count_models(self, text):
        from repro.asp import Control

        ctl = Control()
        ctl.add(text)
        ctl.ground()
        return ctl.solve(models=0).models

    def test_exact_bound(self):
        assert self.count_models("2 {a; b; c} 2.") == 3

    def test_lower_bound_only(self):
        assert self.count_models("2 {a; b; c}.") == 4

    def test_upper_bound_only(self):
        # "{...} 1" needs an explicit lower guard of 0 in our syntax.
        assert self.count_models("0 {a; b; c} 1.") == 4

    def test_infeasible_bound_blocks_body(self):
        # Bound 4 of 3 elements cannot be met: rule body (empty) is
        # unconditional, so the program is unsatisfiable.
        from repro.asp import Control

        ctl = Control()
        ctl.add("4 {a; b; c}.")
        ctl.ground()
        assert not ctl.solve().satisfiable

    def test_conditional_choice_bound(self):
        # g false: a/b unsupported hence false (1 model); g true: the
        # bound forces both (1 model).
        assert self.count_models("{g}. 2 {a; b} 2 :- g.") == 2
