"""Tests for the ground-program container (repro.asp.ground)."""

from repro.asp.ground import GroundProgram
from repro.asp.grounder import Grounder
from repro.asp.parser import parse_program
from repro.asp.syntax import parse_term


def build(text):
    grounder = Grounder(parse_program(text))
    rules = grounder.ground()
    return GroundProgram(rules, grounder.possible_atoms, grounder.fact_atoms)


class TestDependencyGraph:
    def test_edges_follow_positive_bodies(self):
        program = build("{a}. b :- a. c :- b, not a.")
        graph = program.positive_dependency_graph()
        assert parse_term("a") in graph[parse_term("b")]
        assert parse_term("b") in graph[parse_term("c")]
        # Negative literals do not create positive dependencies.
        assert parse_term("a") not in graph[parse_term("c")]

    def test_facts_excluded(self):
        program = build("f. b :- f, c. {c}.")
        graph = program.positive_dependency_graph()
        assert parse_term("f") not in graph

    def test_choice_conditions_are_dependencies(self):
        program = build("{x}. d :- x. { sel(1) : d }.")
        graph = program.positive_dependency_graph()
        assert parse_term("d") in graph[parse_term("sel(1)")]

    def test_graph_cached(self):
        program = build("{a}. b :- a.")
        assert program.positive_dependency_graph() is program.positive_dependency_graph()
        assert program.nontrivial_sccs() is program.nontrivial_sccs()


class TestTightness:
    def test_tight_program(self):
        assert build("{a}. b :- a.").is_tight

    def test_loop_detected(self):
        assert not build("{c}. a :- b. b :- a. a :- c.").is_tight

    def test_nontrivial_sccs(self):
        program = build("{c}. a :- b. b :- a. a :- c.")
        (scc,) = program.nontrivial_sccs()
        assert scc == frozenset({parse_term("a"), parse_term("b")})


class TestTheoryAtoms:
    def test_collected_and_deduped(self):
        program = build(
            """
            t(1). t(2).
            &dom { 0..4 } = x :- t(X).
            """
        )
        atoms = program.theory_atoms()
        # Same ground theory atom from both instances: deduplicated.
        assert len(atoms) == 1

    def test_string_rendering(self):
        program = build("a. b :- a, not c. {c}.")
        text = str(program)
        assert "a." in text
        assert "not c" in text
