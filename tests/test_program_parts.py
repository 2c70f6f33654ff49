"""Program parts: ``Control`` blocks, the parsed-part and prepared-rule memos.

``encode()`` hands its program to :class:`Control` as parts — the
instance facts as atoms (``Control.add_facts``), then each template
block as text — and ``Control`` parses each text part once per process
and prepares each rule once per constant value.  These tests pin that:

* grounding an instance's atoms and blocks equals grounding one parse
  of its rendered program text, and grounding text part-wise equals
  grounding the joined text (rules in order, atoms, facts, shows,
  externals) on the curated encodings, generated specs and fuzz
  programs split at statement boundaries;
* a request parses none of its facts and only the template blocks no
  earlier request parsed, and a serve miss runs no domain analysis;
* the ground cache tells programs apart by their facts;
* concurrent grounding through the shared caches matches sequential
  grounding;
* parse-error and unsafe-variable locations are relative to the part,
  with the prepared-rule memo on or off.
"""

import random
import sys
import threading

import pytest

from repro.asp import control as control_module
from repro.asp.control import Control, clear_ground_cache, ground_cache_info
from repro.asp.grounder import Grounder, GroundingError
from repro.asp.parser import ParseError, parse_program
from repro.fuzz.generators import generate_program, generate_spec
from repro.synthesis.encoding import encode
from repro.workloads.curated import CURATED_NAMES, curated

OPTION_SETS = {
    "default": {},
    "serialize": {"serialize": True},
    "link_contention": {"link_contention": True},
    "both": {"serialize": True, "link_contention": True},
    "fixed": {"routing": "fixed"},
}


def joined_ground(text: str):
    """The reference: one parse of the whole text, then grounding."""
    parsed = parse_program(text)
    grounder = Grounder(parsed)
    try:
        rules = grounder.ground()
    except GroundingError:
        return None
    return (
        rules,
        grounder.possible_atoms,
        grounder.fact_atoms,
        parsed.shows,
        frozenset(parsed.externals),
    )


def control_ground(control, cache: bool = False):
    """What ``control`` grounds to, or None when grounding fails."""
    try:
        program = control.instantiate(cache=cache)
    except GroundingError:
        return None
    return (
        program.rules,
        program.possible,
        program.facts,
        program.shows,
        program.externals,
    )


def parts_ground(parts, cache: bool = False):
    control = Control()
    for part in parts:
        control.add(part)
    return control_ground(control, cache)


def instance_ground(instance, cache: bool = False):
    """Ground an encoded instance as the explorer does (facts as atoms)."""
    control = Control()
    instance.add_to(control)
    return control_ground(control, cache)


def text_parts(instance):
    """The parts of an instance that ``Control`` parses."""
    return [part for part in instance.parts if isinstance(part, str)]


def assert_same_grounding(parts, got=None) -> None:
    expected = joined_ground("\n".join(parts))
    if got is None:
        got = parts_ground(parts)
    if expected is None:
        assert got is None
        return
    rules, possible, facts, shows, externals = got
    assert rules == expected[0]  # same rules in the same order
    assert possible == expected[1]
    assert facts == expected[2]
    assert shows == expected[3]
    assert externals == expected[4]


class TestIdentity:
    @pytest.mark.parametrize("symmetry", ["auto", "off"])
    @pytest.mark.parametrize("options", sorted(OPTION_SETS))
    @pytest.mark.parametrize("name", CURATED_NAMES)
    def test_curated_encodings(self, name, options, symmetry):
        instance = encode(curated(name), symmetry=symmetry, **OPTION_SETS[options])
        assert len(instance.parts) > 1
        assert_same_grounding([instance.program], instance_ground(instance))

    @pytest.mark.parametrize("symmetry", ["auto", "off"])
    @pytest.mark.parametrize("seed", range(0, 60, 5))
    def test_generated_specs(self, seed, symmetry):
        spec_input = generate_spec(seed)
        instance = encode(
            spec_input.specification,
            objectives=spec_input.objectives,
            latency_bound=spec_input.latency_bound,
            symmetry=symmetry,
        )
        assert_same_grounding([instance.program], instance_ground(instance))

    @pytest.mark.parametrize("seed", range(40))
    def test_fuzz_programs_split_at_statements(self, seed):
        # Generated programs hold one statement per line.
        lines = generate_program(seed).text.split("\n")
        rng = random.Random(seed)
        cuts = sorted(rng.sample(range(1, len(lines)), min(3, len(lines) - 1)))
        bounds = [0] + cuts + [len(lines)]
        parts = ["\n".join(lines[a:b]) for a, b in zip(bounds, bounds[1:])]
        assert "\n".join(parts) == "\n".join(lines)
        assert_same_grounding(parts)

    def test_directives_merge_like_one_parse(self):
        parts = [
            "#const n = 2.\np(1..n).",
            "#show p/1.\n#external e(X) : p(X).",
            "#const m = 3.\nq(m) :- p(1).\n#show q/1.",
            "#const n = 1.",
        ]
        assert_same_grounding(parts)
        # No #show anywhere: shows stays None (show everything).
        assert parts_ground(["a.", "b :- a."])[3] is None


class TestEconomy:
    def count_parses(self, monkeypatch):
        """Record every ``parse_program`` call, through any module's alias."""
        parsed = []
        original = control_module.parse_program

        def counting(text):
            parsed.append(text)
            return original(text)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and module is not None:
                if getattr(module, "parse_program", None) is original:
                    monkeypatch.setattr(module, "parse_program", counting)
        return parsed

    def test_second_spec_parses_only_its_own_parts(self, monkeypatch):
        clear_ground_cache()
        parsed = self.count_parses(monkeypatch)
        first = encode(curated("telecom_modem"))
        instance_ground(first, cache=True)
        # The facts are not parsed: only the template blocks are.
        assert parsed == text_parts(first)
        parsed.clear()
        second = encode(curated("auto_engine"))
        instance_ground(second, cache=True)
        assert text_parts(second) == text_parts(first)  # the template blocks
        assert parsed == []
        third = encode(curated("network_firewall"), latency_bound=40)
        instance_ground(third, cache=True)
        assert parsed == ["&sum { latency } <= 40."]

    def test_clear_ground_cache_empties_the_part_memo(self, monkeypatch):
        clear_ground_cache()
        parsed = self.count_parses(monkeypatch)
        instance = encode(curated("telecom_modem"))
        instance_ground(instance, cache=True)
        clear_ground_cache()
        parsed.clear()
        instance_ground(instance, cache=True)
        assert parsed == text_parts(instance)

    def test_serve_miss_parses_only_new_parts_and_analyzes_nothing(
        self, monkeypatch
    ):
        import asyncio

        import repro.analysis.domains as domains
        from repro.serve import DseServer, ServeClient, ServerConfig
        from repro.synthesis.io import specification_to_dict

        def no_analysis(*args, **kwargs):
            raise AssertionError("a serve miss ran the domain analysis")

        monkeypatch.setattr(domains, "analyze_program", no_analysis)
        monkeypatch.setattr(domains, "analyze_rules", no_analysis)
        first, second = curated("telecom_modem"), curated("auto_engine")
        clear_ground_cache()
        parsed = self.count_parses(monkeypatch)

        async def scenario():
            server = DseServer(ServerConfig(port=0))
            host, port = await server.start()
            client = await ServeClient.connect(host, port)
            try:
                outcomes = [await client.solve(specification_to_dict(first))]
                parsed_first = list(parsed)
                outcomes.append(await client.solve(specification_to_dict(second)))
            finally:
                await client.close()
            await server.shutdown()
            return outcomes, parsed_first

        outcomes, parsed_first = asyncio.run(scenario())
        assert all(outcome.ok and not outcome.cached for outcome in outcomes)
        first_parts = text_parts(encode(first))
        second_parts = text_parts(encode(second))
        assert parsed_first == first_parts
        assert parsed[len(parsed_first):] == [
            part for part in second_parts if part not in first_parts
        ]


def run_threads(jobs, rounds: int = 3):
    """Ground every job on its own thread ``rounds`` times, with a short
    switch interval (more threads than cores); returns the results."""
    results = {}
    errors = []

    def worker(index):
        try:
            for _round in range(rounds):
                got = instance_ground(jobs[index], cache=True)
                results.setdefault(index, []).append(got)
        except Exception as error:  # surfaced by the assertion below
            errors.append(error)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=worker, args=(index,))
            for index in range(len(jobs))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors
    return results


class TestThreads:
    def test_concurrent_grounding_matches_sequential(self):
        jobs = [
            encode(curated(name), **OPTION_SETS[options])
            for name in ("telecom_modem", "auto_engine", "consumer_jpeg")
            for options in ("default", "serialize")
        ]
        expected = [instance_ground(instance) for instance in jobs]
        clear_ground_cache()
        results = run_threads(jobs)
        for index, runs in results.items():
            assert len(runs) == 3
            for got in runs:
                assert got[0] == expected[index][0]
                assert got[1:] == expected[index][1:]
        info = ground_cache_info()
        # Every lookup was counted once: a lost update would break this.
        assert info["hits"] + info["misses"] == 3 * len(jobs)
        assert info["misses"] >= len(jobs)

    def test_concurrent_prepared_rules_match_sequential(self, monkeypatch):
        # No ground-program cache, and a rule memo smaller than the
        # rules in flight: every grounding prepares its rules through
        # the shared memo while other threads insert and evict.
        monkeypatch.setattr(control_module, "GROUND_CACHE_SIZE", 0)
        monkeypatch.setattr(control_module, "RULE_CACHE_SIZE", 8)
        jobs = [
            encode(curated(name), horizon=horizon, **OPTION_SETS[options])
            for name in ("telecom_modem", "mesh_symmetric")
            for options in ("default", "both")
            for horizon in (None, 200)
        ]
        expected = [instance_ground(instance) for instance in jobs]
        clear_ground_cache()
        results = run_threads(jobs)
        for index, runs in results.items():
            assert len(runs) == 3
            for got in runs:
                assert got[0] == expected[index][0]
                assert got[1:] == expected[index][1:]
        assert 0 < len(control_module._rule_cache) <= 8
        assert ground_cache_info()["hits"] == 0


class TestPreparedRules:
    def test_clear_ground_cache_empties_the_rule_memo(self):
        clear_ground_cache()
        instance_ground(encode(curated("telecom_modem")), cache=True)
        rules = len(control_module._rule_cache)
        assert 0 < rules <= control_module.RULE_CACHE_SIZE
        clear_ground_cache()
        assert not control_module._rule_cache

    def test_cache_false_bypasses_the_rule_memo(self):
        clear_ground_cache()
        instance_ground(encode(curated("telecom_modem")), cache=False)
        assert not control_module._rule_cache

    def test_key_holds_only_the_constants_a_rule_mentions(self):
        clear_ground_cache()
        spec = curated("telecom_modem")
        instance_ground(encode(spec, horizon=50), cache=True)
        first = set(control_module._rule_cache)
        instance_ground(encode(spec, horizon=60), cache=True)
        added = set(control_module._rule_cache) - first
        # Only the rules over ``h`` (the two &dom rules) are prepared again.
        assert added
        assert len(added) == 2
        for _rule, values in added:
            assert [name for name, _value in values] == ["h"]

    def test_error_locations_do_not_come_from_the_memo(self):
        unsafe = "s(Y) :- p(Y), not t(Z)."
        for blank_lines in (1, 4, 2):
            control = Control()
            control.add("p(1).\n" + "\n" * blank_lines + unsafe)
            with pytest.raises(GroundingError) as caught:
                control.ground(cache=True)
            assert f"at line {blank_lines + 2}, column 1" in str(caught.value)


class TestAddFacts:
    def test_atoms_ground_like_their_text(self):
        from repro.asp.syntax import Function, Number, String

        atoms = [
            Function("p", [Number(1), Function("a")]),
            Function("p", [Number(-2), Function("f", [String("x y")])]),
            Function("q", [Function("", [Number(1), Number(2)])]),
            Function("p", [Number(1), Function("a")]),
        ]
        rules = "r(X) :- p(X, _).\ns(N) :- q((N, _)), N < k."
        control = Control()
        control.add_facts(atoms, {"k": Number(3)})
        control.add(rules)
        text = "#const k = 3.\n" + "\n".join(f"{atom}." for atom in atoms)
        assert_same_grounding([text, rules], control_ground(control))

    def test_only_symbols_are_accepted(self):
        from repro.asp.syntax import Function, Number

        control = Control()
        with pytest.raises(TypeError):
            control.add_facts(["p(1)"])
        with pytest.raises(TypeError):
            control.add_facts([Function("p", [Number(1)], positive=False)])
        with pytest.raises(TypeError):
            control.add_facts([], {"k": 3})


class TestGroundCacheKey:
    def ground(self, spec):
        control = Control()
        encode(spec, horizon=100).add_to(control)
        program = control.instantiate()
        return program, control.ground_cache_hit

    def test_one_wcet_misses_and_an_identical_re_encode_hits(self):
        from dataclasses import replace

        from repro.synthesis.model import Specification

        clear_ground_cache()
        spec = curated("telecom_modem")
        program, hit = self.ground(spec)
        assert not hit
        again, hit = self.ground(curated("telecom_modem"))
        assert hit and again is program
        option = spec.mappings[0]
        changed_spec = Specification(
            spec.application,
            spec.architecture,
            (replace(option, wcet=option.wcet + 1),) + spec.mappings[1:],
        )
        changed, hit = self.ground(changed_spec)
        assert not hit
        assert changed.facts != program.facts
        assert ground_cache_info()["size"] == 2


class TestLocations:
    def test_parse_error_line_is_relative_to_its_part(self):
        control = Control()
        control.add("a.\nb.\nc.\n")
        control.add("d.\ne(.\n")
        with pytest.raises(ParseError) as caught:
            control.ground(cache=False)
        assert caught.value.line == 2
        # A single part reports exactly what one parse reports.
        with pytest.raises(ParseError) as whole:
            parse_program("a.\nb.\nc.\n\nd.\ne(.\n")
        assert whole.value.line == 6
        single = Control()
        single.add("a.\nb.\nc.\n\nd.\ne(.\n")
        with pytest.raises(ParseError) as same:
            single.ground(cache=False)
        assert (same.value.line, same.value.column) == (6, 3)

    def test_lint_reads_the_atom_facts_and_locates_each_part(self):
        from repro.asp.syntax import Function, Number

        control = Control()
        control.add_facts([Function("p", [Number(1)])], {"n": Number(2)})
        control.add("q(X) :- p(X), X < n.\n\nr(X) :- t(X).")
        control.ground(lint="raise")
        findings = [str(d) for d in control.lint_report.diagnostics]
        # p/1 is defined by an atom fact; t/1 by nothing.
        assert not any("p/1" in finding for finding in findings)
        assert (
            "<control>:3:9: warning[undefined-predicate]: t/1 is used but never "
            "defined"
        ) in findings

    def test_unsafe_variable_line_is_relative_to_its_part(self):
        control = Control()
        control.add("p(1).\nq(2).\n")
        control.add("r(1).\n\ns(Y) :- p(Y), not t(Z).\n")
        with pytest.raises(GroundingError) as caught:
            control.ground(cache=False)
        assert "at line 3, column 1" in str(caught.value)
