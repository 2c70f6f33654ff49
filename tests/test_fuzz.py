"""Tests for the differential fuzzing subsystem (:mod:`repro.fuzz`).

Covers generator determinism, the oracle matrix staying green on main,
the delta-debugging shrinker (driven by a hand-seeded divergence: a
front oracle whose archive comparison is deliberately mutated), the
reproducer corpus round-trip, and the regression replayer that keeps
``tests/corpus/fuzz/`` findings fixed.
"""

import json
from pathlib import Path

import pytest

from repro.fuzz import (
    Divergence,
    FuzzHarness,
    ProgramInput,
    ddmin,
    generate_input,
    generate_program,
    generate_spec,
    input_kind,
    load_reproducer,
    replay_file,
    shrink_program,
    shrink_spec,
    write_reproducer,
)
from repro.fuzz.oracles import ORACLES, FrontOracle, select_oracles
from repro.baselines.exhaustive import exhaustive_front
from repro.dse.explorer import ExactParetoExplorer
from repro.synthesis.encoding import encode

CORPUS = Path(__file__).resolve().parent / "corpus" / "fuzz"
REPRODUCERS = sorted(CORPUS.glob("*.json"))


class TestGenerators:
    def test_program_deterministic_in_seed(self):
        assert generate_program(42) == generate_program(42)
        assert generate_program(42) != generate_program(43)

    def test_spec_deterministic_in_seed(self):
        a, b = generate_spec(7), generate_spec(7)
        assert a.specification == b.specification
        assert (a.objectives, a.latency_bound) == (b.objectives, b.latency_bound)

    def test_kind_is_a_pure_function_of_the_seed(self):
        kinds = [input_kind(seed) for seed in range(200)]
        assert kinds == [input_kind(seed) for seed in range(200)]
        assert "spec" in kinds and "program" in kinds

    def test_generate_input_matches_kind(self):
        for seed in range(40):
            assert generate_input(seed).kind == input_kind(seed)

    def test_programs_ground_in_both_modes(self):
        from repro.asp.control import ground_text

        for seed in range(25):
            text = generate_program(seed).text
            naive = ground_text(text, cache=False, mode="naive")
            semi = ground_text(text, cache=False, mode="seminaive")
            assert {str(r) for r in naive.rules} == {str(r) for r in semi.rules}

    def test_adversarial_knobs_appear(self):
        notes = set()
        for seed in range(120):
            notes.update(generate_spec(seed).notes)
        assert "thinned mappings" in notes
        assert "uniform energies" in notes
        assert any(note.startswith("latency_bound=") for note in notes)


class TestHarness:
    def test_all_oracles_green_on_main(self):
        report = FuzzHarness(base_seed=0).run(24)
        assert report.ok, [f.to_dict() for f in report.findings]
        assert report.inputs == 24
        program_stats = report.oracle_stats["grounding"]
        assert program_stats.inputs > 0
        assert program_stats.seconds > 0

    def test_oracle_selection_restricts_kinds(self):
        report = FuzzHarness(oracles=["front"], base_seed=3).run(2)
        assert report.oracle_stats["front"].inputs == 2  # every input a spec
        with pytest.raises(KeyError):
            select_oracles(["no_such_oracle"])

    def test_report_serializes(self):
        report = FuzzHarness(oracles=["grounding"], base_seed=0).run(3)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["ok"] is True
        assert payload["oracles"]["grounding"]["inputs"] == 3

    def test_seed_line_replays_the_same_input(self):
        # A finding's seed line uses --budget 1 --seed S: input 0 of that
        # run must be exactly the input that produced the finding.
        for seed in (5, 8, 13):
            harness = FuzzHarness(base_seed=seed)
            assert harness._input_for(seed) == generate_input(seed)


class TestDdmin:
    def test_minimises_to_the_single_culprit(self):
        items = list(range(20))
        result = ddmin(items, lambda chunk: 13 in chunk)
        assert result == [13]

    def test_keeps_interacting_pair(self):
        items = list(range(10))
        result = ddmin(items, lambda chunk: 2 in chunk and 7 in chunk)
        assert sorted(result) == [2, 7]

    def test_shrink_program_drops_rules_and_constants(self):
        text = "a.\nb :- a.\nc :- b.\nx :- #sum { 9,a : a } >= 9.\nd."
        shrunk = shrink_program(text, lambda t: "#sum" in t)
        assert shrunk.splitlines() == ["x :- #sum { 0,a : a } >= 0."]

    def test_initial_pass_must_fail(self):
        with pytest.raises(ValueError):
            shrink_program("a.", lambda t: False)


class _MutatedFrontOracle(FrontOracle):
    """Hand-seeded divergence: the archive comparison drops a point.

    Mimics a dominance-archive bug where the explorer loses one Pareto
    point: the comparison runs against a mutated (truncated) archive,
    so any instance with a non-empty front diverges.
    """

    name = "front_mutated"

    def check(self, input):
        instance = encode(
            input.specification,
            objectives=input.objectives,
            latency_bound=input.latency_bound,
        )
        exact = ExactParetoExplorer(instance, validate_models=False).run()
        truth = exhaustive_front(
            encode(
                input.specification,
                objectives=input.objectives,
                latency_bound=input.latency_bound,
                symmetry="off",
            )
        )
        mutated = exact.vectors()[1:]  # the "bug": first archive point lost
        if mutated != truth.vectors():
            self.diverge(
                f"mutated archive {mutated} != exhaustive front "
                f"{truth.vectors()}"
            )


class TestShrinker:
    @pytest.fixture()
    def mutated_oracle(self):
        oracle = _MutatedFrontOracle()
        ORACLES[oracle.name] = oracle
        yield oracle
        del ORACLES[oracle.name]

    def test_mutated_archive_divergence_shrinks_to_tiny_reproducer(
        self, mutated_oracle, tmp_path
    ):
        # Seed 16 yields a feasible spec with a two-point front, so the
        # mutated comparison is guaranteed to diverge.
        harness = FuzzHarness(
            oracles=[mutated_oracle.name],
            base_seed=16,
            shrink=True,
            corpus_dir=tmp_path,
        )
        report = harness.run(1)
        assert len(report.findings) == 1
        finding = report.findings[0]
        assert finding.failure == "divergence"
        assert finding.shrunk is not None
        shrunk_spec = finding.shrunk.specification
        # The minimised instance is tiny: one task, no messages.
        assert len(shrunk_spec.application.tasks) == 1
        assert not shrunk_spec.application.messages
        assert len(finding.shrunk.objectives) == 1

        # The persisted reproducer is compact (<= 10 lines) ...
        assert finding.reproducer is not None
        assert len(finding.reproducer.read_text().splitlines()) <= 10
        # ... and replays the divergence deterministically.
        first = pytest.raises(Divergence, replay_file, finding.reproducer)
        second = pytest.raises(Divergence, replay_file, finding.reproducer)
        assert str(first.value) == str(second.value)

    def test_spec_shrinker_requires_initial_failure(self):
        with pytest.raises(ValueError):
            shrink_spec(generate_spec(3), lambda candidate: False)

    def test_program_findings_shrink_through_the_harness(self, tmp_path):
        # A synthetic crash oracle: chokes on any program with a choice
        # rule; the shrinker must reduce to a single choice line.
        class ChoiceCrash(ORACLES["grounding"].__class__):
            name = "choice_crash"

            def check(self, input):
                if "{" in input.text:
                    raise RuntimeError("synthetic crash")

        oracle = ChoiceCrash()
        ORACLES[oracle.name] = oracle
        try:
            harness = FuzzHarness(
                oracles=[oracle.name],
                base_seed=0,
                shrink=True,
                corpus_dir=tmp_path,
            )
            seed = next(
                s for s in range(100) if "{" in generate_program(s).text
            )
            findings = harness.check_input(generate_program(seed))
            assert findings and findings[0].failure == "crash"
            harness._shrink_finding(findings[0])
            assert len(findings[0].shrunk.text.splitlines()) == 1
            assert "{" in findings[0].shrunk.text
        finally:
            del ORACLES[oracle.name]


class TestCorpus:
    def test_round_trip_program(self, tmp_path):
        input = ProgramInput(seed=9, text="a.\nb :- a.")
        path = write_reproducer(tmp_path, "grounding", input, "round trip")
        oracle, loaded = load_reproducer(path)
        assert oracle == "grounding"
        assert loaded == input

    def test_round_trip_spec(self, tmp_path):
        input = generate_spec(5)
        path = write_reproducer(tmp_path, "front", input, "round trip")
        oracle, loaded = load_reproducer(path)
        assert oracle == "front"
        assert loaded.specification == input.specification
        assert loaded.objectives == input.objectives
        assert loaded.latency_bound == input.latency_bound

    def test_unknown_oracle_rejected(self, tmp_path):
        path = tmp_path / "bogus_1.json"
        path.write_text('{"oracle": "bogus", "kind": "program", "seed": 1}')
        with pytest.raises(KeyError):
            load_reproducer(path)

    def test_corpus_directory_is_populated(self):
        assert REPRODUCERS, "the checked-in fuzz corpus must not be empty"


@pytest.mark.parametrize("path", REPRODUCERS, ids=lambda p: p.stem)
def test_corpus_replays_green(path):
    """The tier-1 regression runner: every persisted finding stays fixed."""
    assert replay_file(path) in ("ok", "skip")


class TestCli:
    def test_module_entry_green(self):
        from repro.fuzz.__main__ import main

        assert main(["--budget", "5", "--seed", "0"]) == 0

    def test_json_report(self, capsys):
        from repro.fuzz.__main__ import main

        assert main(["--budget", "3", "--seed", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["budget"] == 3 and payload["ok"] is True

    def test_list_oracles(self, capsys):
        from repro.fuzz.__main__ import main

        assert main(["--list-oracles"]) == 0
        out = capsys.readouterr().out
        for name in ORACLES:
            assert name in out

    def test_unknown_oracle_errors(self):
        from repro.fuzz.__main__ import main

        with pytest.raises(SystemExit):
            main(["--oracle", "nope"])

    def test_dse_fuzz_replay_is_deterministic(self, capsys):
        from repro.dse.__main__ import main as dse_main

        def front_lines(out):
            # Everything up to the statistics footer (timings and the
            # ground-cache hit flag legitimately vary between runs).
            lines = out.splitlines()
            cut = next(i for i, l in enumerate(lines) if " models, " in l)
            return lines[:cut]

        assert dse_main(["--fuzz-replay", "24"]) == 0
        first = capsys.readouterr().out
        assert dse_main(["--fuzz-replay", "24"]) == 0
        second = capsys.readouterr().out
        assert "fuzz replay: seed 24" in first
        assert front_lines(first) == front_lines(second)
