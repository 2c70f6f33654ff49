"""Tests for the abstract domain analysis (``repro.analysis.domains``).

Covers the :class:`Dom` lattice algebra, the fixpoint analyzer
(soundness against real grounding, widening termination on recursive
components, dead-rule verdicts), the domain-aware join estimates, rule
canonicalization, the grounder's ``domain_prune`` differential
contract, the ``encode(domain_bounds=...)`` seeding path (fronts must
be bit-identical on vs. off, sequentially and with two workers), and a curated-suite sweep asserting the new lint rules
produce zero false positives.
"""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.domains import (
    EMPTY,
    FINITE_CAP,
    TOP,
    Dom,
    analyze_program,
    analyze_rules,
    canonical_rule,
)
from repro.asp.control import ground_text
from repro.asp.grounder import Grounder, domain_prune_default
from repro.asp.parser import parse_program
from repro.asp.syntax import Function, Number, String
from repro.dse.explorer import ExactParetoExplorer
from repro.dse.parallel import ParallelParetoExplorer
from repro.fuzz.generators import generate_program
from repro.synthesis.encoding import encode
from repro.workloads.curated import CURATED_NAMES, curated


def analyze_text(text: str):
    return analyze_program(parse_program(text))


def ground_atoms(text: str):
    grounder = Grounder(parse_program(text), domain_prune=False)
    grounder.ground()
    return grounder.possible_atoms


# ---------------------------------------------------------------------------
# Dom lattice
# ---------------------------------------------------------------------------


class TestDomLattice:
    def test_finite_roundtrip(self):
        dom = Dom.finite([Number(1), Number(2), Function("a")])
        assert dom.contains(Number(1))
        assert dom.contains(Function("a"))
        assert not dom.contains(Number(3))
        assert dom.size() == 3

    def test_interval_constructor(self):
        dom = Dom.interval(0, 1000)
        assert dom.contains(Number(17))
        assert not dom.contains(Number(-1))
        assert not dom.contains(Function("a"))

    def test_small_interval_collapses_to_finite(self):
        dom = Dom.interval(1, 3)
        assert dom.values is not None and dom.size() == 3

    def test_join_caps_to_summary(self):
        dom = Dom.finite([Number(i) for i in range(FINITE_CAP)])
        widened = dom.join(Dom.finite([Number(FINITE_CAP)]))
        assert widened.values is None
        assert widened.numeric_range() == (0, FINITE_CAP)

    def test_meet_of_disjoint_is_empty(self):
        a = Dom.finite([Number(1)])
        b = Dom.finite([Number(2)])
        assert a.meet(b).is_empty

    def test_top_and_empty(self):
        assert TOP.contains(Number(5)) and TOP.contains(String("x"))
        assert EMPTY.is_empty and EMPTY.size() == 0
        dom = Dom.finite([Number(3)])
        assert TOP.meet(dom) == dom
        assert EMPTY.join(dom) == dom

    @given(
        st.lists(st.integers(-50, 50), max_size=6),
        st.lists(st.integers(-50, 50), max_size=6),
    )
    def test_join_subsumes_both(self, xs, ys):
        a = Dom.finite([Number(x) for x in xs])
        b = Dom.finite([Number(y) for y in ys])
        joined = a.join(b)
        assert joined.subsumes(a) and joined.subsumes(b)

    @given(
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
        st.lists(st.integers(-50, 50), min_size=1, max_size=6),
    )
    def test_meet_is_contained_in_both(self, xs, ys):
        a = Dom.finite([Number(x) for x in xs])
        b = Dom.finite([Number(y) for y in ys])
        met = a.meet(b)
        assert a.subsumes(met) and b.subsumes(met)

    def test_widen_unstable_bounds_saturate(self):
        old = Dom.interval(0, 1 << 20)
        new = old.join(Dom.interval(0, (1 << 20) + 1))
        widened = old.widen(new)
        assert widened.contains(Number(1 << 40))
        assert not widened.contains(Number(-1))


# ---------------------------------------------------------------------------
# Analyzer: soundness and precision
# ---------------------------------------------------------------------------


class TestAnalyzer:
    def test_facts_are_exact(self):
        analysis = analyze_text("p(1..3). p(7).")
        dom = analysis.domain(("p", 1))[0]
        assert sorted(n.value for n in dom.values) == [1, 2, 3, 7]

    def test_narrowing_recovers_recursive_bound(self):
        analysis = analyze_text("p(1). p(X+1) :- p(X), X < 10.")
        lo, hi = analysis.domain(("p", 1))[0].numeric_range()
        assert (lo, hi) == (1, 10)

    def test_unbounded_recursion_widens(self):
        analysis = analyze_text("p(1). p(X+1) :- p(X).")
        assert analysis.widenings >= 1
        dom = analysis.domain(("p", 1))[0]
        assert dom.contains(Number(1 << 30))

    def test_dead_rule_causes(self):
        analysis = analyze_text(
            "q(1..3).\n"
            "a(X) :- q(X), X > 9.\n"        # statically false comparison
            "b(X) :- q(X), q(9).\n"         # constant outside the domain
        )
        causes = {dead.cause for dead in analysis.dead.values()}
        assert causes == {"comparison", "empty"}

    def test_type_conflict_is_dead(self):
        analysis = analyze_text("q(a). r(1..3). s(X) :- q(X), r(X).")
        assert any(d.cause == "type" for d in analysis.dead.values())

    def test_externals_are_top(self):
        program = parse_program("a(X) :- ext(X).")
        analysis = analyze_rules(program.rules, externals={("ext", 1)})
        assert analysis.domain(("a", 1))[0].is_top

    @pytest.mark.parametrize(
        "text",
        [
            "p(1..4). tc(X, Y) :- p(X), p(Y). tc(X, Z) :- tc(X, Y), tc(Y, Z).",
            "p(1). p(X+1) :- p(X), X < 30.",
            'w("a"). w("b"). v(X) :- w(X).',
            "n(1..5). { pick(X) : n(X) }. s(X) :- pick(X), X < 4.",
            "a(1;2;3). b(f(X)) :- a(X). c(X) :- b(f(X)).",
            "m(1..3). even(X) :- m(X), X \\ 2 = 0. odd(X) :- m(X), not even(X).",
        ],
    )
    def test_soundness_on_curated_programs(self, text):
        analysis = analyze_text(text)
        assert analysis.violations(ground_atoms(text)) == []

    @settings(deadline=None, max_examples=60)
    @given(st.integers(0, 5000))
    def test_soundness_on_random_programs(self, seed):
        """Property: every atom the (unpruned) grounder derives lies in
        the inferred abstract domains."""
        input = generate_program(seed)
        try:
            parsed = parse_program(input.text)
            grounder = Grounder(parsed, domain_prune=False)
            grounder.ground()
        except Exception:
            return  # not this property's concern
        analysis = analyze_program(parsed)
        assert analysis.violations(grounder.possible_atoms) == []

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 40), st.integers(2, 9))
    def test_widening_terminates_on_recursive_sccs(self, start, step):
        """Property: unbounded recursive growth always converges (by
        widening) instead of iterating forever."""
        text = f"p({start}). p(X+{step}) :- p(X). q(X) :- p(X), X > {start}."
        analysis = analyze_text(text)
        dom = analysis.domain(("p", 1))[0]
        assert dom.contains(Number(start))
        assert dom.contains(Number(start + 1000 * step))

    @settings(deadline=None, max_examples=30)
    @given(st.integers(1, 20), st.integers(1, 20))
    def test_join_estimates_monotone_in_facts(self, n, extra):
        """Property: adding facts never shrinks the domain-aware join
        estimate (None = unknown counts as infinity)."""
        rule = "r(X, Y) :- p(X), q(Y)."
        small = analyze_text(f"p(1..{n}). q(1..{n}). {rule}")
        large = analyze_text(f"p(1..{n + extra}). q(1..{n}). {rule}")
        target = parse_program(rule).rules[0]
        a = small.rule_estimate(target)
        b = large.rule_estimate(target)
        assert a is not None
        assert b is None or b >= a

    def test_signature_estimate_zero_for_underivable(self):
        analysis = analyze_text("a(1).")
        assert analysis.signature_estimate(("ghost", 1)) == 0.0


# ---------------------------------------------------------------------------
# Rule canonicalization
# ---------------------------------------------------------------------------


class TestCanonicalRule:
    def rules(self, text):
        return parse_program(text).rules

    def test_alpha_equivalent_rules_match(self):
        a, b = self.rules("r(X) :- p(X), q(X). r(Y) :- p(Y), q(Y).")
        assert str(canonical_rule(a)) == str(canonical_rule(b))

    def test_different_structure_differs(self):
        a, b = self.rules("r(X) :- p(X), q(X). r(Y) :- q(Y), p(Y).")
        assert str(canonical_rule(a)) != str(canonical_rule(b))

    def test_variable_roles_distinguished(self):
        a, b = self.rules("r(X, Y) :- p(X, Y). r(Y, X) :- p(X, Y).")
        assert str(canonical_rule(a)) != str(canonical_rule(b))


# ---------------------------------------------------------------------------
# Grounder pruning: differential contract
# ---------------------------------------------------------------------------

PRUNE_PROGRAMS = [
    "a(1..6). b(X) :- a(X), X < 4.",
    "p(1..4). tc(X, Y) :- p(X), p(Y), X < Y. tc(X, Z) :- tc(X, Y), tc(Y, Z).",
    "q(1..3). dead(X) :- q(X), X > 9. alive(X) :- q(X).",
    'w("a"). n(1..3). mix(X, Y) :- w(X), n(Y), Y > 1.',
    "item(a;b;c). { pick(X) : item(X) }. pair(X, Y) :- pick(X), pick(Y), X < Y.",
    ":- a(9). a(1..3).",
]


class TestGrounderPruning:
    @pytest.mark.parametrize("text", PRUNE_PROGRAMS)
    def test_pruned_output_identical(self, text):
        off = ground_text(text, cache=False, domain_prune=False)
        on = ground_text(text, cache=False, domain_prune=True)
        assert [str(r) for r in off.rules] == [str(r) for r in on.rules]
        assert off.possible == on.possible
        assert off.facts == on.facts

    def test_pruning_reduces_instantiations(self):
        text = (
            "t(1..6). "
            "{ s(X) : t(X) }. "
            "o(X, Y) :- s(X), s(Y), X < Y."
        )
        off = ground_text(text, cache=False, domain_prune=False)
        on = ground_text(text, cache=False, domain_prune=True)
        assert on.grounding.instantiations < off.grounding.instantiations
        assert on.grounding.pruned_instances > 0

    def test_dead_rules_skipped(self):
        text = "q(1..3). dead(X) :- q(X), X > 9."
        on = ground_text(text, cache=False, domain_prune=True)
        assert on.grounding.rules_skipped == 1

    def test_naive_mode_never_prunes(self):
        text = "a(1..3). b(X) :- a(X), X < 3."
        naive = ground_text(text, cache=False, mode="naive", domain_prune=True)
        assert not naive.grounding.domain_prune

    def test_env_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_DOMAIN_PRUNE", raising=False)
        assert domain_prune_default() is True
        monkeypatch.setenv("REPRO_DOMAIN_PRUNE", "off")
        assert domain_prune_default() is False
        monkeypatch.setenv("REPRO_DOMAIN_PRUNE", "1")
        assert domain_prune_default() is True

    def test_env_off_disables_grounder_pruning(self):
        code = (
            "import sys; sys.path.insert(0, 'src')\n"
            "from repro.asp.control import ground_text\n"
            "gp = ground_text('a(1..3). b(X) :- a(X), X < 3.', cache=False)\n"
            "assert not gp.grounding.domain_prune, 'env off must disarm pruning'\n"
        )
        env = dict(os.environ, REPRO_DOMAIN_PRUNE="off")
        subprocess.run(
            [sys.executable, "-c", code],
            check=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            env=env,
        )


# ---------------------------------------------------------------------------
# encode(domain_bounds=...) and front identity
# ---------------------------------------------------------------------------


class TestDomainBounds:
    def test_bounds_are_attached(self):
        spec = curated("consumer_jpeg")
        instance = encode(spec, domain_bounds="on")
        assert instance.domain is not None and instance.domain.applied
        lo, hi = instance.domain.bounds["latency"]
        assert 0 < lo <= hi <= spec.horizon()

    def test_off_attaches_nothing(self):
        instance = encode(curated("consumer_jpeg"))
        assert instance.domain is None

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            encode(curated("consumer_jpeg"), domain_bounds="maybe")

    def test_auto_declines_without_var_objectives(self):
        instance = encode(
            curated("consumer_jpeg"),
            objectives=("energy", "cost"),
            domain_bounds="auto",
        )
        assert instance.domain is not None and not instance.domain.applied
        assert instance.domain.declined

    @pytest.mark.parametrize("name", ["consumer_jpeg", "telecom_modem"])
    def test_front_identical_sequential(self, name):
        spec = curated(name)
        objectives = ("latency", "cost")
        base = ExactParetoExplorer(
            encode(spec, objectives=objectives)
        ).run()
        seeded = ExactParetoExplorer(
            encode(spec, objectives=objectives, domain_bounds="on")
        ).run()
        assert base.vectors() == seeded.vectors()

    def test_front_identical_parallel(self):
        spec = curated("consumer_jpeg")
        objectives = ("latency", "cost")
        base = ExactParetoExplorer(
            encode(spec, objectives=objectives)
        ).run()
        seeded = ParallelParetoExplorer(
            encode(spec, objectives=objectives, domain_bounds="on"),
            jobs=2,
            backend="inline",
        ).run()
        assert base.vectors() == seeded.vectors()

    def test_statistics_surface(self):
        spec = curated("consumer_jpeg")
        result = ExactParetoExplorer(
            encode(spec, objectives=("latency", "cost"), domain_bounds="on")
        ).run()
        stats = result.to_dict()["statistics"]
        assert stats["domain_mode"] == "on"
        assert stats["domain_applied"] is True
        assert stats["domain_predicates"] > 0


# ---------------------------------------------------------------------------
# Lint integration: zero new false positives on the curated suite
# ---------------------------------------------------------------------------

NEW_RULES = {
    "type-conflict",
    "empty-domain",
    "comparison-out-of-range",
    "constraint-vacuous",
    "duplicate-rule",
}


class TestLintSweep:
    @pytest.mark.parametrize("name", CURATED_NAMES)
    def test_curated_encodings_stay_clean(self, name):
        from repro.analysis import lint_text

        for kwargs in (
            {},
            {"serialize": True},
            {"objectives": ("latency", "period", "cost")},
        ):
            instance = encode(curated(name), **kwargs)
            report = lint_text(instance.program)
            flagged = [d for d in report.diagnostics if d.rule in NEW_RULES]
            assert flagged == [], (name, kwargs, flagged)
