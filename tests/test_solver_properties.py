"""Property-based tests for the CDCL engines against a brute-force oracle.

Every example runs on both engines: the flat engine and the reference
solver it is held to.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asp.flatsolver import FlatSolver
from repro.asp.solver import Solver

N_VARS = 6
ENGINES = (FlatSolver, Solver)


@st.composite
def cnf(draw):
    n_clauses = draw(st.integers(1, 18))
    clauses = []
    for _ in range(n_clauses):
        width = draw(st.integers(1, 3))
        clause = draw(
            st.lists(
                st.tuples(st.integers(1, N_VARS), st.booleans()),
                min_size=width,
                max_size=width,
            )
        )
        clauses.append([v if pos else -v for v, pos in clause])
    return clauses


def oracle_models(clauses):
    models = []
    for bits in itertools.product([False, True], repeat=N_VARS):
        ok = True
        for clause in clauses:
            if not any(bits[abs(l) - 1] == (l > 0) for l in clause):
                ok = False
                break
        if ok:
            models.append(bits)
    return models


def build_solver(engine, clauses):
    solver = engine()
    for _ in range(N_VARS):
        solver.new_var()
    alive = True
    for clause in clauses:
        alive = solver.add_clause(clause) and alive
    return solver, alive


@settings(max_examples=150, deadline=None)
@given(cnf())
def test_sat_matches_brute_force(clauses):
    expected = bool(oracle_models(clauses))
    for engine in ENGINES:
        solver, alive = build_solver(engine, clauses)
        got = alive and solver.solve().satisfiable
        assert got == expected, (engine.__name__, clauses)


@settings(max_examples=80, deadline=None)
@given(cnf())
def test_models_satisfy_all_clauses(clauses):
    for engine in ENGINES:
        solver, alive = build_solver(engine, clauses)
        if not alive or not solver.solve().satisfiable:
            continue
        for clause in clauses:
            assert any(solver.value(l) is True for l in clause), (
                engine.__name__,
                clauses,
            )


@settings(max_examples=60, deadline=None)
@given(cnf())
def test_enumeration_finds_every_model(clauses):
    expected = {tuple(m) for m in oracle_models(clauses)}
    for engine in ENGINES:
        solver, alive = build_solver(engine, clauses)
        got = set()
        while alive and solver.solve().satisfiable:
            model = tuple(solver.value(v) for v in range(1, N_VARS + 1))
            got.add(model)
            solver.reset_to_root()
            blocking = [(-v if model[v - 1] else v) for v in range(1, N_VARS + 1)]
            if not solver.add_clause(blocking):
                break
        assert got == expected, (engine.__name__, clauses)


@settings(max_examples=60, deadline=None)
@given(cnf(), st.lists(st.integers(1, N_VARS), min_size=1, max_size=3))
def test_assumptions_match_brute_force(clauses, assumed):
    assumptions = sorted({v for v in assumed})
    expected = any(
        all(bits[v - 1] for v in assumptions) for bits in oracle_models(clauses)
    )
    for engine in ENGINES:
        solver, alive = build_solver(engine, clauses)
        got = alive and solver.solve([v for v in assumptions]).satisfiable
        assert got == expected, (engine.__name__, clauses, assumptions)


@settings(max_examples=40, deadline=None)
@given(cnf())
def test_solver_reusable_after_unsat_assumptions(clauses):
    for engine in ENGINES:
        solver, alive = build_solver(engine, clauses)
        if not alive:
            continue
        baseline = solver.solve().satisfiable
        solver.solve([1, -1])  # contradictory assumptions
        assert solver.solve().satisfiable == baseline, engine.__name__
