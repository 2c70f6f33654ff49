"""Program parts: ``Control.add`` blocks and the parsed-part memo.

``encode()`` hands its program to :class:`Control` as parts — the
instance facts, then each template block on its own — and ``Control``
parses each part once per process.  These tests pin that:

* grounding part-wise equals grounding one parse of the joined text
  (rules in order, atoms, facts, shows, externals) on the curated
  encodings, generated specs and fuzz programs split at statement
  boundaries;
* a second specification parses only its own parts, and a serve miss
  runs no domain analysis;
* concurrent grounding through the shared caches matches sequential
  grounding;
* parse-error and unsafe-variable locations are relative to the part.
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


def parts_ground(parts, cache: bool = False):
    control = Control()
    for part in parts:
        control.add(part)
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


def assert_same_grounding(parts) -> None:
    expected = joined_ground("\n".join(parts))
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
        assert instance.program == "\n".join(instance.parts)
        assert_same_grounding(instance.parts)

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
        assert_same_grounding(instance.parts)

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
        parts_ground(first.parts, cache=True)
        assert parsed == list(first.parts)
        parsed.clear()
        second = encode(curated("auto_engine"))
        parts_ground(second.parts, cache=True)
        shared = set(first.parts) & set(second.parts)
        assert shared  # the template blocks
        assert parsed == [part for part in second.parts if part not in shared]

    def test_clear_ground_cache_empties_the_part_memo(self, monkeypatch):
        clear_ground_cache()
        parsed = self.count_parses(monkeypatch)
        instance = encode(curated("telecom_modem"))
        parts_ground(instance.parts, cache=True)
        clear_ground_cache()
        parsed.clear()
        parts_ground(instance.parts, cache=True)
        assert parsed == list(instance.parts)

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
        first_parts = encode(first).parts
        second_parts = encode(second).parts
        assert parsed_first == list(first_parts)
        assert parsed[len(parsed_first):] == [
            part for part in second_parts if part not in first_parts
        ]


class TestThreads:
    def test_concurrent_grounding_matches_sequential(self):
        jobs = [
            encode(curated(name), **OPTION_SETS[options]).parts
            for name in ("telecom_modem", "auto_engine", "consumer_jpeg")
            for options in ("default", "serialize")
        ]
        expected = [parts_ground(parts) for parts in jobs]
        clear_ground_cache()
        results = {}
        errors = []

        def worker(index):
            try:
                for _round in range(3):
                    got = parts_ground(jobs[index], cache=True)
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
        for index, runs in results.items():
            assert len(runs) == 3
            for got in runs:
                assert got[0] == expected[index][0]
                assert got[1:] == expected[index][1:]
        info = ground_cache_info()
        # Every lookup was counted once: a lost update would break this.
        assert info["hits"] + info["misses"] == 3 * len(jobs)
        assert info["misses"] >= len(jobs)


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

    def test_unsafe_variable_line_is_relative_to_its_part(self):
        control = Control()
        control.add("p(1).\nq(2).\n")
        control.add("r(1).\n\ns(Y) :- p(Y), not t(Z).\n")
        with pytest.raises(GroundingError) as caught:
            control.ground(cache=False)
        assert "at line 3, column 1" in str(caught.value)
