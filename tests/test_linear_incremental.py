"""The linear fixpoint's skipped evaluations change nothing.

:class:`~repro.theory.linear.LinearPropagator` evaluates a queued
constraint only when one of its inputs moved since its last evaluation,
and retires one-variable bounds applied at decision level 0.  Both rules
claim that a skipped evaluation would have tightened nothing, forced
nothing and found no conflict.  The oracle below disables both rules, so
it evaluates every pop like the propagator did before them; the two must
produce the same clauses, bound updates and models in the same order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.asp.control as control_module
import repro.dse.explorer as explorer_module
from repro.asp import Control
from repro.asp.flatsolver import FlatSolver
from repro.asp.solver import Solver
from repro.asp.syntax import Function
from repro.dse.explorer import explore
from repro.theory.linear import LinearPropagator
from repro.workloads.curated import curated


class _AlwaysChanged:
    """A change-flag array that reports every constraint as changed."""

    def __getitem__(self, index):
        return True

    def __setitem__(self, index, value):
        pass


class RecordingLinear(LinearPropagator):
    """Counts evaluations and logs every clause and bound update."""

    def __init__(self):
        super().__init__()
        self.evaluations = 0
        self.log = []

    def init(self, init):
        super().init(init)
        solver = init.solver
        add_clause = solver.add_propagator_clause

        def logged_clause(lits):
            self.log.append(("clause", tuple(lits)))
            return add_clause(lits)

        solver.add_propagator_clause = logged_clause
        store = self.store
        for name in ("set_lb", "set_ub"):
            setter = getattr(store, name)

            def logged_bound(var, value, reason, level, name=name, setter=setter):
                self.log.append((name, var, value, tuple(reason), level))
                return setter(var, value, reason, level)

            setattr(store, name, logged_bound)

    def _propagate_constraint(self, solver, row, level):
        self.evaluations += 1
        return super()._propagate_constraint(solver, row, level)


class EagerLinear(RecordingLinear):
    """Oracle: evaluates every popped active constraint, retires nothing."""

    @property
    def _changed(self):
        return _AlwaysChanged()

    @_changed.setter
    def _changed(self, value):
        pass

    def _retire(self, index):
        pass


def run(propagator_cls, text, assumptions=(), engine=FlatSolver):
    propagator = propagator_cls()
    ctl = Control()
    ctl.add(text)
    ctl.register_propagator(propagator)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(control_module, "FlatSolver", engine)
        ctl.ground()
    models = []
    summary = ctl.solve(
        on_model=lambda m: models.append(
            (sorted(map(str, m.symbols)), sorted(map(str, m.theory["ints"].items())))
        ),
        models=0,
        assumptions=assumptions,
    )
    stats = ctl.solver.stats
    return propagator, {
        "summary": (summary.satisfiable, summary.models),
        "models": models,
        "search": (stats.conflicts, stats.decisions, stats.propagations),
        "theory": (
            propagator.bound_updates,
            propagator.theory_conflicts,
            propagator.theory_propagations,
        ),
        "log": propagator.log,
    }


N_ATOMS = 3
N_VARS = 3


@st.composite
def theory_program(draw):
    """Random choices plus conditional difference-like sums."""
    atom = st.integers(0, N_ATOMS - 1)
    lines = [f"{{ a(0..{N_ATOMS - 1}) }}."]
    for var in range(N_VARS):
        lo = draw(st.integers(0, 2))
        lines.append(f"&dom {{ {lo}..{lo + draw(st.integers(0, 6))} }} = v({var}).")
    if draw(st.booleans()):
        lines.append(f"&dom {{ 1..4 }} = v(0) :- a({draw(atom)}).")
    for index in range(draw(st.integers(1, 6))):
        elements = []
        shape = draw(st.integers(0, 3))
        x, y = draw(st.integers(0, N_VARS - 1)), draw(st.integers(0, N_VARS - 1))
        if shape == 1:
            elements.append(f"v({x})")
        elif shape == 2:
            elements.append(f"v({x}) - v({y})")
        elif shape == 3:
            elements.append(f"-v({x})")
        for term in range(draw(st.integers(0 if shape else 1, 3))):
            weight = draw(st.integers(-4, 4))
            negated = "not " if draw(st.booleans()) else ""
            elements.append(f"{weight}, {index}, {term} : {negated}a({draw(atom)})")
        op = draw(st.sampled_from(["<=", ">=", "<", ">", "="]))
        guard = draw(st.integers(-3, 8))
        body = draw(st.sampled_from(["", " :- a({})", " :- not a({})"]))
        lines.append(
            f"&sum {{ {' ; '.join(elements)} }} {op} {guard}"
            + body.format(draw(atom))
            + "."
        )
    return "\n".join(lines)


@settings(max_examples=150, deadline=None)
@given(theory_program())
def test_skipping_matches_eager_evaluation(text):
    _eager, expected = run(EagerLinear, text)
    _incremental, got = run(RecordingLinear, text)
    assert got == expected, text


# ``v - v`` reads both bounds of one variable and writes them, so a
# tightening changes the constraint's own inputs.
SELF_CYCLE = """
{ a ; b }.
&dom { 0..9 } = v. &dom { 0..9 } = w.
&sum { v - v ; 3, x : a } <= 2.
&sum { w - v ; -2, y : b } >= 1 :- a.
"""

# Assuming b raises lb(x) while a is open and queues the constraints over
# x (the grounder numbers them bottom-up).  The first forces "not a",
# which the second reads as a Boolean term although no bound it reads
# moved, so it must tighten y in this same fixpoint, before the third
# moves z.
FORCED_MID_FIXPOINT = """
{ a ; b }.
&dom { 0..10 } = x. &dom { 0..10 } = y. &dom { 0..10 } = z.
&sum { x - z } <= 0.
&sum { y - x ; -3, q : a } <= -5.
&sum { x ; 5, p : a } <= 10.
&sum { x } >= 6 :- b.
"""


@pytest.mark.parametrize("engine", [FlatSolver, Solver], ids=["flat", "reference"])
@pytest.mark.parametrize(
    "text, assumptions",
    [(SELF_CYCLE, ()), (FORCED_MID_FIXPOINT, ((Function("b"), True),))],
    ids=["self-cycle", "forced-mid-fixpoint"],
)
def test_hand_written_programs_match_eager(text, assumptions, engine):
    _eager, expected = run(EagerLinear, text, assumptions, engine)
    _incremental, got = run(RecordingLinear, text, assumptions, engine)
    assert got == expected


def test_step_cap_counts_skipped_pops():
    # The x/y cycle drags ub(u) down through u <= x.  The last constraint
    # is re-queued whenever ub(u) moves but reads only lb(u) and ub(v),
    # which never move, so its pops are skipped.  Both propagators stop
    # after the same number of pops, hence after the same bound updates.
    text = """
    &sum { x - y } <= -1. &sum { y - x } <= -1.
    &sum { u - x } <= 0. &sum { u - v } <= 0.
    """
    finished = {}
    for cls in (EagerLinear, RecordingLinear):
        propagator = cls()
        propagator.MAX_FIXPOINT_STEPS = 1000
        ctl = Control()
        ctl.add(text)
        ctl.register_propagator(propagator)
        ctl.ground()
        with pytest.raises(RuntimeError, match="did not converge"):
            ctl.solve()
        finished[cls] = propagator
    eager, incremental = finished[EagerLinear], finished[RecordingLinear]
    assert incremental.evaluations < eager.evaluations
    assert incremental.log == eager.log


def test_watches_are_the_sorted_triggers():
    propagator = LinearPropagator()
    ctl = Control()
    ctl.add(
        """
        { a ; b ; c }.
        &dom { 0..9 } = x. &dom { 0..9 } = y.
        &sum { x - y ; 2, p : a ; -3, q : b } <= 4 :- c.
        &sum { x ; 0, r : not c } >= 1.
        """
    )
    ctl.register_propagator(propagator)
    ctl.ground()
    expected = set()
    for constraint in propagator._constraints:
        expected.add(constraint.condition)
        for weight, lit in constraint.bool_terms:
            expected.add(lit if weight > 0 else -lit)
    assert propagator.watches == tuple(sorted(expected))


@pytest.mark.parametrize("name", ["consumer_jpeg", "telecom_modem", "auto_engine"])
def test_curated_exploration_matches_eager(name, monkeypatch):
    spec = curated(name)
    results = {}
    propagators = {}
    for label, cls in (("eager", EagerLinear), ("incremental", RecordingLinear)):
        created = []

        def factory(cls=cls, created=created):
            created.append(cls())
            return created[-1]

        monkeypatch.setattr(explorer_module, "LinearPropagator", factory)
        result = explore(spec)
        stats = result.statistics
        propagators[label] = created[0]
        results[label] = (
            sorted(result.vectors()),
            (stats.conflicts, stats.decisions, stats.propagations),
            stats.models_enumerated,
            created[0].log,
        )
    assert results["incremental"] == results["eager"]
    # The saving is real: well under half the evaluations.
    assert 2 * propagators["incremental"].evaluations < propagators["eager"].evaluations
