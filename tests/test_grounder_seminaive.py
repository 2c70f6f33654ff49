"""Differential tests for the semi-naive grounder.

The load-bearing property: for every program, ``mode="seminaive"`` and
``mode="naive"`` produce bit-identical ground rule sets and identical
possible/fact atom universes.  The suite checks this on the corpus
programs, the curated DSE workloads, hand-written recursion patterns
that stress the delta bookkeeping, and hypothesis-randomized programs.

It also covers the argument-position index, the grounding statistics,
the picklable :class:`GroundProgram` artifact, and the module-level
ground-program cache.
"""

import pickle
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asp.control import (
    Control,
    clear_ground_cache,
    ground_cache_info,
    ground_text,
)
from repro.asp.grounder import Grounder, GroundingError, _AtomIndex
from repro.asp.parser import parse_program
from repro.asp.syntax import Function, Number, parse_term
from repro.synthesis.encoding import encode
from repro.workloads.curated import CURATED_NAMES, curated

CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.lp"))


def ground_both(text: str):
    naive = Grounder(parse_program(text), mode="naive")
    semi = Grounder(parse_program(text), mode="seminaive")
    return (naive, naive.ground()), (semi, semi.ground())


def assert_equivalent(text: str) -> None:
    (naive, naive_rules), (semi, semi_rules) = ground_both(text)
    assert {str(rule) for rule in naive_rules} == {str(rule) for rule in semi_rules}
    assert naive.possible_atoms == semi.possible_atoms
    assert naive.fact_atoms == semi.fact_atoms


class TestDifferentialCurated:
    @pytest.mark.parametrize("path", CORPUS, ids=lambda p: p.stem)
    def test_corpus_programs_identical(self, path):
        assert_equivalent(path.read_text())

    @pytest.mark.parametrize("name", CURATED_NAMES)
    def test_curated_workloads_identical(self, name):
        assert_equivalent(encode(curated(name)).program)


class TestDifferentialHandWritten:
    def test_transitive_closure(self):
        assert_equivalent(
            """
            edge(1,2). edge(2,3). edge(3,4). edge(4,1). edge(2,5).
            path(X,Y) :- edge(X,Y).
            path(X,Z) :- path(X,Y), edge(Y,Z).
            """
        )

    def test_arithmetic_in_recursive_literal(self):
        # The delta literal carries an arithmetic subterm: restricting
        # the join must not bypass the arithmetic-safety ordering.
        assert_equivalent(
            """
            q(0).
            q(X+1) :- q(X), X < 5.
            r(X) :- q(X), q(X+1).
            """
        )

    def test_possible_to_fact_transition(self):
        # "a" is first derivable only conditionally (possible), then
        # becomes a fact through the second rule; downstream rules must
        # see both stages in either mode.
        assert_equivalent(
            """
            {c}.
            a :- c.
            a.
            b :- a.
            d :- b, not c.
            """
        )

    def test_negative_recursion_across_strata(self):
        assert_equivalent(
            """
            n(1..3).
            even(1) :- n(1).
            odd(X) :- n(X), not even(X).
            even(X) :- n(X), n(Y), Y = X - 1, odd(Y).
            """
        )

    def test_mutual_recursion_with_choice(self):
        assert_equivalent(
            """
            node(1..4).
            { pick(X) : node(X) } .
            reach(1).
            reach(Y) :- reach(X), link(X,Y), pick(Y).
            link(X,X+1) :- node(X), node(X+1).
            """
        )

    def test_recursive_join_on_two_positions(self):
        assert_equivalent(
            """
            arc(1,2). arc(2,3). arc(3,1).
            t(X,Y) :- arc(X,Y).
            t(X,Z) :- t(X,Y), t(Y,Z).
            """
        )

    def test_aggregate_over_recursive_output(self):
        assert_equivalent(
            """
            e(1,2). e(2,3).
            r(X,Y) :- e(X,Y).
            r(X,Z) :- r(X,Y), e(Y,Z).
            big(X) :- r(X,_), 2 <= #count { Y : r(X,Y) }.
            """
        )


# A tiny random-program generator: facts and (possibly recursive) rules
# over a fixed vocabulary, so hypothesis explores join/delta corners the
# curated programs miss.
_terms = st.sampled_from(["0", "1", "2", "X", "Y"])
_fact = st.builds(
    lambda p, a: f"{p}({a}).", st.sampled_from(["p", "q"]), st.sampled_from("012")
)
_body_lit = st.one_of(
    st.builds(lambda p, t: f"{p}({t})", st.sampled_from(["p", "q", "r"]), _terms),
    st.builds(lambda t: f"X = {t}", st.sampled_from(["0", "1", "2", "Y"])),
)
_rule = st.builds(
    lambda h, ht, body: f"{h}({ht}) :- " + ", ".join(body) + ".",
    st.sampled_from(["r", "s"]),
    st.sampled_from(["X", "0", "X+1"]),
    st.lists(_body_lit, min_size=1, max_size=3),
)


#: Instantiation cap for random programs: their terminating draws need a
#: few hundred instantiations, and a runaway recursion then ends as a
#: GroundingError in both modes within about a second.
_RANDOM_CAP = 20_000


def _try_ground(program: str, mode: str):
    """Ground outcome for differential comparison (None = rejected)."""
    grounder = Grounder(parse_program(program), mode=mode)
    grounder.MAX_INSTANTIATIONS = _RANDOM_CAP
    try:
        rules = grounder.ground()
    except GroundingError:
        return None
    return (
        frozenset(str(rule) for rule in rules),
        frozenset(grounder.possible_atoms),
        frozenset(grounder.fact_atoms),
    )


class TestDifferentialRandom:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(_fact, min_size=1, max_size=4), st.lists(_rule, max_size=4))
    def test_random_programs_identical(self, facts, rules):
        # Unsafe rules must be rejected by both modes alike; safe ones
        # must ground to the same rule set and atom universe.
        program = "\n".join(facts + rules)
        assert _try_ground(program, "naive") == _try_ground(program, "seminaive")


class TestInstantiationCap:
    RUNAWAY = "p(1). r(X+1) :- r(Y), X = Y. r(X) :- X = 0."

    @pytest.mark.parametrize("mode", ["naive", "seminaive"])
    def test_runaway_recursion_raises(self, mode, monkeypatch):
        monkeypatch.setattr(Grounder, "MAX_INSTANTIATIONS", _RANDOM_CAP)
        grounder = Grounder(parse_program(self.RUNAWAY), mode=mode)
        with pytest.raises(GroundingError, match="exceeded 20000 rule instantiations"):
            grounder.ground()
        assert grounder.statistics.instantiations == _RANDOM_CAP + 1

    def test_default_cap_leaves_headroom_over_the_curated_encodings(self):
        # The largest curated count: naive mode, both optional encodings.
        grounder = Grounder(
            parse_program(
                encode(
                    curated("network_firewall"), serialize=True, link_contention=True
                ).program
            ),
            mode="naive",
        )
        grounder.ground()
        assert grounder.statistics.instantiations * 250 < Grounder.MAX_INSTANTIATIONS


class TestArgumentIndex:
    def atoms(self, *texts):
        out = []
        for text in texts:
            value = parse_term(text)
            assert isinstance(value, Function)
            out.append(value)
        return out

    def test_bucket_built_lazily_and_maintained(self):
        index = _AtomIndex()
        a, b = self.atoms("p(1,2)", "p(1,3)")
        index.add_possible(a)
        index.add_possible(b)
        assert not index.buckets  # nothing built yet
        hit = index.candidates_at(("p", 2), 0, Number(1))
        assert list(hit) == [a, b]
        assert index.indexed_positions[("p", 2)] == [0]
        # Atoms added after the build land in the existing bucket.
        (c,) = self.atoms("p(2,2)")
        index.add_possible(c)
        assert list(index.candidates_at(("p", 2), 0, Number(2))) == [c]
        assert list(index.candidates_at(("p", 2), 0, Number(1))) == [a, b]

    def test_miss_returns_empty(self):
        index = _AtomIndex()
        (a,) = self.atoms("p(1)")
        index.add_possible(a)
        assert list(index.candidates_at(("p", 1), 0, Number(7))) == []
        assert list(index.candidates_at(("q", 1), 0, Number(1))) == []

    def test_second_position_is_an_independent_bucket(self):
        index = _AtomIndex()
        a, b = self.atoms("e(1,2)", "e(3,2)")
        index.add_possible(a)
        index.add_possible(b)
        assert set(index.candidates_at(("e", 2), 1, Number(2))) == {a, b}
        assert list(index.candidates_at(("e", 2), 0, Number(3))) == [b]
        assert sorted(index.indexed_positions[("e", 2)]) == [0, 1]


class TestStatistics:
    def test_counters_populated(self):
        grounder = Grounder(
            parse_program("e(1,2). e(2,3). t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z).")
        )
        grounder.ground()
        stats = grounder.statistics
        assert stats.mode == "seminaive"
        assert stats.instantiations > 0
        assert stats.delta_rounds >= 1
        assert stats.seconds > 0

    def test_nonrecursive_program_needs_no_delta_rounds(self):
        grounder = Grounder(parse_program("p(1..3). q(X) :- p(X)."))
        grounder.ground()
        assert grounder.statistics.delta_rounds == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            Grounder(parse_program("p."), mode="magic")


class TestGroundProgramArtifact:
    TEXT = "e(1,2). e(2,3). t(X,Y) :- e(X,Y). t(X,Z) :- t(X,Y), e(Y,Z). #show t/2."

    def test_pickle_round_trip(self):
        program = ground_text(self.TEXT, cache=False)
        clone = pickle.loads(pickle.dumps(program))
        assert {str(r) for r in clone.rules} == {str(r) for r in program.rules}
        assert clone.possible == program.possible
        assert clone.facts == program.facts
        assert clone.shows == program.shows
        assert clone.externals == program.externals
        assert clone.grounding is not None
        assert clone.grounding.instantiations == program.grounding.instantiations

    def test_dependency_graph_cache_not_shipped(self):
        program = ground_text(self.TEXT, cache=False)
        program.nontrivial_sccs()  # populate both caches
        clone = pickle.loads(pickle.dumps(program))
        assert clone._positive_graph is None
        assert clone._nontrivial_sccs is None
        assert clone.is_tight == program.is_tight  # recomputed on demand

    def test_control_replays_artifact_without_regrounding(self):
        program = ground_text(self.TEXT, cache=False)
        control = Control()
        control.add(self.TEXT)
        control.ground(program=program)
        assert control.grounds == 0  # replayed, not re-ground
        models = []
        control.solve(on_model=lambda m: models.append(sorted(map(str, m.symbols))))
        fresh = Control()
        fresh.add(self.TEXT)
        fresh.ground(cache=False)
        assert fresh.grounds == 1
        expected = []
        fresh.solve(on_model=lambda m: expected.append(sorted(map(str, m.symbols))))
        assert models == expected


class TestGroundCache:
    TEXT = "p(1..4). q(X) :- p(X), X > 1."

    def test_hit_returns_the_cached_object(self):
        clear_ground_cache()
        first = ground_text(self.TEXT)
        second = ground_text(self.TEXT)
        assert second is first
        info = ground_cache_info()
        assert info["hits"] == 1
        assert info["misses"] == 1
        assert info["size"] == 1

    def test_control_reports_cache_hit(self):
        clear_ground_cache()
        miss = Control()
        miss.add(self.TEXT)
        miss.ground()
        assert not miss.ground_cache_hit
        assert miss.grounds == 1
        hit = Control()
        hit.add(self.TEXT)
        hit.ground()
        assert hit.ground_cache_hit
        assert hit.grounds == 0
        assert hit.grounding_seconds == 0.0

    def test_cache_disabled_always_grounds(self):
        clear_ground_cache()
        first = ground_text(self.TEXT, cache=False)
        second = ground_text(self.TEXT, cache=False)
        assert second is not first
        assert ground_cache_info()["size"] == 0

    def test_modes_are_distinct_cache_keys(self):
        clear_ground_cache()
        semi = ground_text(self.TEXT, mode="seminaive")
        naive = ground_text(self.TEXT, mode="naive")
        assert semi is not naive
        assert ground_cache_info()["size"] == 2

    def test_lru_eviction_bounds_the_cache(self):
        clear_ground_cache()
        maxsize = ground_cache_info()["maxsize"]
        for index in range(maxsize + 3):
            ground_text(f"p({index}).")
        assert ground_cache_info()["size"] == maxsize
        # The first program was evicted; re-grounding it is a miss.
        misses = ground_cache_info()["misses"]
        ground_text("p(0).")
        assert ground_cache_info()["misses"] == misses + 1
