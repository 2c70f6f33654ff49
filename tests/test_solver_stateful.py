"""Stateful (model-based) testing of the incremental CDCL engines.

Hypothesis drives random interleavings of the operations the DSE loop
performs — adding clauses, solving with/without assumptions, resetting —
against a reference implementation that tracks the clause set and
answers by brute force.  Invariants:

* satisfiability always matches the reference,
* returned models always satisfy every added clause,
* once UNSAT without assumptions, the solver stays UNSAT.

``TestSolverMachine`` drives the flat engine and
``TestReferenceSolverMachine`` the reference solver it is held to.
"""

import itertools

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.asp.flatsolver import FlatSolver
from repro.asp.solver import Solver

N_VARS = 5


def reference_satisfiable(clauses, assumptions=()):
    for bits in itertools.product([False, True], repeat=N_VARS):
        if any(bits[abs(l) - 1] != (l > 0) for l in assumptions):
            continue
        if all(any(bits[abs(l) - 1] == (l > 0) for l in clause) for clause in clauses):
            return True
    return False


class SolverMachine(RuleBasedStateMachine):
    engine = FlatSolver

    def __init__(self):
        super().__init__()
        self.solver = self.engine()
        for _ in range(N_VARS):
            self.solver.new_var()
        self.clauses = []
        self.dead = False  # solver reported permanent UNSAT

    @rule(
        clause=st.lists(
            st.tuples(st.integers(1, N_VARS), st.booleans()),
            min_size=1,
            max_size=3,
        )
    )
    def add_clause(self, clause):
        lits = [v if pos else -v for v, pos in clause]
        self.clauses.append(lits)
        self.solver.reset_to_root()
        alive = self.solver.add_clause(lits)
        if not alive:
            self.dead = True

    @rule()
    def solve_plain(self):
        result = self.solver.solve()
        expected = reference_satisfiable(self.clauses)
        got = result.satisfiable and not self.dead
        assert got == expected, self.clauses
        if got:
            for clause in self.clauses:
                assert any(self.solver.value(l) is True for l in clause)

    @rule(
        assumptions=st.lists(
            st.tuples(st.integers(1, N_VARS), st.booleans()),
            min_size=1,
            max_size=2,
        )
    )
    def solve_with_assumptions(self, assumptions):
        lits = [v if pos else -v for v, pos in assumptions]
        if any(-l in lits for l in lits):
            return  # contradictory assumption pair: allowed but trivial
        result = self.solver.solve(lits)
        expected = reference_satisfiable(self.clauses, lits)
        got = result.satisfiable and not self.dead
        assert got == expected, (self.clauses, lits)

    @rule()
    def block_current_model(self):
        if self.dead:
            return
        result = self.solver.solve()
        if not result.satisfiable:
            self.dead = True
            return
        model = [
            (v if self.solver.value(v) else -v) for v in range(1, N_VARS + 1)
        ]
        blocking = [-l for l in model]
        self.clauses.append(blocking)
        self.solver.reset_to_root()
        if not self.solver.add_clause(blocking):
            self.dead = True

    @invariant()
    def dead_means_reference_unsat(self):
        if self.dead:
            assert not reference_satisfiable(self.clauses)


class ReferenceSolverMachine(SolverMachine):
    engine = Solver


TestSolverMachine = SolverMachine.TestCase
TestReferenceSolverMachine = ReferenceSolverMachine.TestCase
TestSolverMachine.settings = TestReferenceSolverMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
