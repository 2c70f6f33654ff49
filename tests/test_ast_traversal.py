"""The rule traversal of :mod:`repro.asp.ast`.

The grounder, the safety check, the linter and the domain analysis find
the terms and literals of a rule through one traversal.  Two of its
walks must agree leaf for leaf: :func:`~repro.asp.ast.visit_terms`
(read-only; it finds the ``#const`` names that key the prepared-rule
memo) and :func:`~repro.asp.ast.map_terms` (it rebuilds the rule for
the ``#const`` substitution and the duplicate-rule canonical form).  A
memo key that missed a name the substitution replaces would share one
prepared rule between programs that give that constant different
values.  The agreement is checked over the shipped corpora, the curated
and generated encodings and 400 fuzz programs.
"""

import glob
import os
import re

import pytest

from repro.asp import ast
from repro.asp.parser import ParseError, parse_program
from repro.asp.syntax import Number, String
from repro.fuzz.generators import generate_program
from repro.synthesis.encoding import encode
from repro.workloads import WorkloadConfig, generate_specification
from repro.workloads.curated import CURATED_NAMES, curated

CORPUS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus")


def corpus_programs():
    paths = sorted(glob.glob(os.path.join(CORPUS, "*.lp")))
    paths += sorted(glob.glob(os.path.join(CORPUS, "lint", "*.lp")))
    for path in paths:
        with open(path) as handle:
            try:
                yield parse_program(handle.read())
            except ParseError:
                continue


def encoding_programs():
    for name in CURATED_NAMES:
        yield parse_program(encode(curated(name)).program)
    spec = generate_specification(WorkloadConfig())
    for options in (
        {},
        {"serialize": True},
        {"link_contention": True},
        {"routing": "fixed"},
    ):
        yield parse_program(encode(spec, **options).program)


def fuzz_programs():
    for seed in range(400):
        try:
            yield parse_program(generate_program(seed).text)
        except ParseError:
            continue


SOURCES = {
    "corpus": corpus_programs,
    "encodings": encoding_programs,
    "fuzz": fuzz_programs,
}


def rules_of(source):
    for program in SOURCES[source]():
        yield from program.rules


def locations(rule):
    """The rule's own location and those of its literals and aggregates."""
    out = [rule.location]
    for item in rule.body:
        out.append(item.location)
        if isinstance(item, ast.Aggregate):
            for element in item.elements:
                out.extend(literal.location for literal in element.condition)
    if isinstance(rule.head, (ast.ChoiceHead, ast.TheoryAtom)):
        for element in rule.head.elements:
            out.extend(literal.location for literal in element.condition)
    return out


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_visit_and_map_reach_the_same_leaves(source):
    count = 0
    for rule in rules_of(source):
        visited = []
        ast.visit_terms(rule, visited.append)
        mapped = []

        def keep(term):
            mapped.append(term)
            return term

        rebuilt = ast.map_terms(rule, keep)
        assert [id(term) for term in mapped] == [id(term) for term in visited]
        assert rebuilt == rule
        assert str(rebuilt) == str(rule)
        assert locations(rebuilt) == locations(rule)
        count += 1
    assert count > 0


@pytest.mark.parametrize("source", sorted(SOURCES))
def test_constants_mentioned_names_what_the_substitution_replaces(source):
    for rule in rules_of(source):
        text = str(rule)
        names = set(re.findall(r"[a-z][A-Za-z0-9_]*", text))
        constants = {name: ast.SymbolTerm(String(f"@{name}")) for name in names}
        substituted = ast.substitute_constants(rule, constants)
        replaced = {name for name in names if f'"@{name}"' in str(substituted)}
        assert set(ast.constants_mentioned(rule, constants)) == replaced
        # Predicate names are never replaced.
        assert [
            (literal.atom.name, in_condition)
            for literal, in_condition in ast.occurrences(substituted)
        ] == [
            (literal.atom.name, in_condition)
            for literal, in_condition in ast.occurrences(rule)
        ]
        assert [atom.name for atom, _ in ast.head_atoms(substituted)] == [
            atom.name for atom, _ in ast.head_atoms(rule)
        ]
        assert locations(substituted) == locations(rule)


def only_rule(text):
    (rule,) = parse_program(text).rules
    return rule


def test_substitution_skips_predicate_names():
    rule = only_rule("p(c, f(c)) :- c, q(X, c), X < c, #count { Y : r(Y, c) } > c.")
    constants = {"c": ast.SymbolTerm(Number(7)), "p": ast.SymbolTerm(Number(1))}
    substituted = ast.substitute_constants(rule, constants)
    assert str(substituted) == "p(7,f(7)) :- c, q(X,7), X<7, #count{Y:r(Y,7)}>7."
    assert ast.constants_mentioned(rule, constants) == ("c",)
    assert ast.substitute_constants(rule, {}) is rule
    assert ast.constants_mentioned(rule, {}) == ()


def test_occurrences_come_in_body_order_then_head_conditions():
    rule = only_rule(
        "{ a(X) : b(X), not c(X) } :- d, not e, #sum { W : f(W) } > 1, X = 1."
    )
    got = [
        (str(literal), in_condition)
        for literal, in_condition in ast.occurrences(rule)
    ]
    assert got == [
        ("d", False),
        ("not e", False),
        ("f(W)", True),
        ("b(X)", True),
        ("not c(X)", True),
    ]
    assert [(str(atom), condition) for atom, condition in ast.head_atoms(rule)] == [
        ("a(X)", rule.head.elements[0].condition)
    ]


def test_theory_heads_and_constraints_derive_no_atom():
    assert ast.head_atoms(only_rule(":- a.")) == []
    theory = only_rule("&sum { X : p(X) } <= 3 :- q.")
    assert ast.head_atoms(theory) == []
    assert [
        (literal.atom.name, in_condition)
        for literal, in_condition in ast.occurrences(theory)
    ] == [("q", False), ("p", True)]


def test_binders_and_variables():
    body = only_rule("p :- q(X), Y = X + 1, 2 = Z, not r(Y), X != Y, W = 1..3.").body
    assert [ast.is_binder(item) for item in body] == [
        False,
        True,
        True,
        False,
        False,
        True,
    ]
    assert [sorted(ast.literal_variables(item)) for item in body] == [
        ["X"],
        ["X", "Y"],
        ["Z"],
        ["Y"],
        ["X", "Y"],
        ["W"],
    ]
    term = only_rule("p(f(A, B + |C|, D;E, F..G)).").head.arguments[0]
    assert ast.term_variables(term, set()) == {"A", "B", "C", "D", "E", "F", "G"}
    bound, computed = set(), set()
    ast.match_variables(term, bound, computed)
    assert (bound, computed) == ({"A"}, {"B", "C", "D", "E", "F", "G"})


def test_canonical_order_reaches_the_head_first_and_guards_before_elements():
    rule = only_rule("h(A) :- N = #count { X : p(X, A) }, q(N).")
    seen = []
    ast.visit_terms(rule, seen.append)
    assert [str(term) for term in seen] == ["A", "N", "X", "X", "A", "N"]
