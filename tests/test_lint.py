"""Tests for the static analyzer (repro.analysis).

Covers the golden lint corpus under ``tests/corpus/lint/`` (every
seeded defect must be flagged with the expected rule id and position),
the zero-false-positive guarantee over the shipped corpora and
encodings, suppression comments, the CLI front-ends (``python -m
repro.asp lint`` and ``python -m repro.dse --lint``), the ``Control``
lint hook, and the specification validator.
"""

import copy
import dataclasses
import glob
import json
import os
import warnings

import pytest

from repro.analysis import (
    Diagnostic,
    LintConfig,
    LintError,
    Severity,
    lint_instance,
    lint_text,
    validate_specification,
)
from repro.analysis.cli import lint_main
from repro.analysis.diagnostics import filter_suppressed, suppressions
from repro.asp.control import Control
from repro.synthesis.encoding import SpecificationError, encode
from repro.workloads import WorkloadConfig, generate_specification
from repro.workloads.curated import CURATED_NAMES, curated

CORPUS = os.path.join(os.path.dirname(__file__), "corpus")
LINT_CORPUS = os.path.join(CORPUS, "lint")


def summarize(report):
    """Render diagnostics in the golden-file format: line:col severity[id]."""
    lines = []
    for diagnostic in report.diagnostics:
        span = diagnostic.span
        where = f"{span.line}:{span.column}" if span is not None else "-"
        lines.append(f"{where} {diagnostic.severity}[{diagnostic.rule}]")
    return lines


class TestGoldenCorpus:
    @pytest.mark.parametrize(
        "path",
        sorted(glob.glob(os.path.join(LINT_CORPUS, "*.lp"))),
        ids=lambda path: os.path.splitext(os.path.basename(path))[0],
    )
    def test_expected_diagnostics(self, path):
        with open(path) as handle:
            text = handle.read()
        golden = os.path.splitext(path)[0] + ".expected"
        with open(golden) as handle:
            expected = handle.read().splitlines()
        report = lint_text(text, filename=path)
        assert summarize(report) == expected

    def test_corpus_is_nonempty(self):
        assert len(glob.glob(os.path.join(LINT_CORPUS, "*.lp"))) >= 9


class TestZeroFalsePositives:
    """Error-severity diagnostics must never fire on working programs."""

    @pytest.mark.parametrize(
        "path",
        sorted(glob.glob(os.path.join(CORPUS, "*.lp"))),
        ids=lambda path: os.path.splitext(os.path.basename(path))[0],
    )
    def test_shipped_corpus(self, path):
        with open(path) as handle:
            report = lint_text(handle.read(), filename=path)
        assert report.errors == 0, [str(d) for d in report.diagnostics]

    @pytest.mark.parametrize("name", CURATED_NAMES)
    def test_curated_workloads(self, name):
        report = lint_instance(encode(curated(name)))
        assert report.errors == 0, [str(d) for d in report.diagnostics]

    def test_generated_encoding(self):
        spec = generate_specification(WorkloadConfig())
        for kwargs in ({}, {"serialize": True}, {"link_contention": True}):
            report = lint_instance(encode(spec, **kwargs))
            assert report.errors == 0, [str(d) for d in report.diagnostics]


class TestSuppression:
    def test_trailing_comment_suppresses_line(self):
        text = "p(X) :- not q(X). % lint: disable=unsafe-variable\nq(1).\n"
        report = lint_text(text)
        assert "unsafe-variable" not in {d.rule for d in report.diagnostics}

    def test_standalone_comment_suppresses_file(self):
        text = "% lint: disable=undefined-predicate\na :- missing.\n"
        report = lint_text(text)
        assert "undefined-predicate" not in {d.rule for d in report.diagnostics}

    def test_all_wildcard(self):
        text = "% lint: disable=all\np(X) :- not q(X).\n"
        assert lint_text(text).diagnostics == []

    def test_unsuppressed_rules_survive(self):
        text = "p(X) :- not q(X). % lint: disable=undefined-predicate\n"
        assert "unsafe-variable" in {d.rule for d in lint_text(text).diagnostics}

    def test_suppressions_parser(self):
        file_wide, by_line = suppressions(
            "a. % lint: disable=dead-rule,unused-predicate\n"
        )
        assert file_wide == set()
        assert by_line[1] == {"dead-rule", "unused-predicate"}

    def test_filter_respects_span_line(self):
        text = "a.\nb. % lint: disable=dead-rule\n"
        kept = Diagnostic("dead-rule", Severity.WARNING, "m")
        assert filter_suppressed([kept], text) == [kept]


class TestConfigDisable:
    def test_disabled_rule_not_reported(self):
        config = LintConfig(disable=frozenset({"undefined-predicate"}))
        report = lint_text("a :- missing.", config=config)
        assert "undefined-predicate" not in {d.rule for d in report.diagnostics}

    def test_blowup_threshold(self):
        text = "n(1..40).\nt(A,B) :- n(A), n(B).\n#show t/2."
        assert "grounding-blowup" not in {
            d.rule for d in lint_text(text).diagnostics
        }
        strict = LintConfig(blowup_threshold=100.0)
        report = lint_text(text, config=strict)
        assert "grounding-blowup" in {d.rule for d in report.diagnostics}


class TestParseErrorDiagnostic:
    def test_syntax_error_becomes_diagnostic(self):
        report = lint_text("p(1)\nq(2).")
        assert report.errors == 1
        diagnostic = report.diagnostics[0]
        assert diagnostic.rule == "parse-error"
        assert diagnostic.span.line == 2


class TestRenderAndExitCodes:
    def test_json_roundtrip(self):
        report = lint_text("a :- missing.", filename="demo.lp")
        payload = json.loads(report.render("json"))
        assert payload["warnings"] == report.warnings
        assert payload["diagnostics"][0]["span"]["file"] == "demo.lp"

    def test_text_summary_line(self):
        report = lint_text("a.", filename="ok.lp")
        assert "0 error(s)" in report.render("text").splitlines()[-1]

    def test_cli_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.lp"
        clean.write_text("a.\n")
        broken = tmp_path / "broken.lp"
        broken.write_text("p(X) :- not q(X).\nq(1).\n")
        assert lint_main([str(clean)]) == 0
        assert lint_main([str(broken)]) == 1
        out = capsys.readouterr().out
        assert "unsafe-variable" in out

    def test_cli_directory_expansion(self, capsys):
        assert lint_main([LINT_CORPUS, "--format=json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["errors"] >= 3

    def test_cli_disable(self, tmp_path, capsys):
        broken = tmp_path / "broken.lp"
        broken.write_text("p(X) :- not q(X).\nq(1).\n")
        assert lint_main([str(broken), "--disable", "unsafe-variable"]) == 0
        capsys.readouterr()


GOLDEN_TEXT = (
    "q(1..3).\n"
    "r(X) :- q(X), X > 9.\n"
    "dup(X) :- q(X).\n"
    "dup(Y) :- q(Y).\n"
    "s(Z) :- ghost(Z).\n"
)


class TestGoldenJsonSchema:
    """Pin the ``--format=json`` schema against a checked-in golden file.

    Renaming or removing report/diagnostic keys is a breaking change
    for CI consumers; this test makes it an explicit one.
    """

    def test_json_report_matches_golden(self):
        report = lint_text(GOLDEN_TEXT, filename="golden.lp")
        payload = json.loads(report.render("json"))
        payload["seconds"] = 0.0  # the only run-dependent field
        with open(os.path.join(LINT_CORPUS, "golden_report.json")) as handle:
            golden = json.load(handle)
        assert payload == golden

    def test_top_level_keys_are_stable(self):
        payload = json.loads(lint_text("a.").render("json"))
        assert sorted(payload) == [
            "diagnostics",
            "errors",
            "files",
            "infos",
            "seconds",
            "suppressed",
            "warnings",
        ]


class TestSarifExport:
    def test_minimal_valid_sarif(self):
        report = lint_text(GOLDEN_TEXT, filename="golden.lp")
        doc = json.loads(report.render("sarif"))
        assert doc["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in doc["$schema"]
        (run,) = doc["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "repro-lint"
        rule_ids = [rule["id"] for rule in driver["rules"]]
        assert rule_ids == sorted(rule_ids)
        assert len(run["results"]) == len(report.diagnostics)

    def test_results_reference_rules_and_locations(self):
        report = lint_text(GOLDEN_TEXT, filename="golden.lp")
        doc = json.loads(report.render("sarif"))
        (run,) = doc["runs"]
        rules = run["tool"]["driver"]["rules"]
        for result in run["results"]:
            assert rules[result["ruleIndex"]]["id"] == result["ruleId"]
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uri"] == "golden.lp"
            assert location["region"]["startLine"] >= 1

    def test_severity_mapping(self):
        report = lint_text(
            "p(X) :- not q(X).\nq(1..3).\ndup(Y) :- q(Y).\ndup(Z) :- q(Z).\n"
        )
        doc = json.loads(report.render("sarif"))
        levels = {
            result["ruleId"]: result["level"]
            for result in doc["runs"][0]["results"]
        }
        assert levels["unsafe-variable"] == "error"
        assert levels["duplicate-rule"] == "note"

    def test_cli_sarif_format(self, tmp_path, capsys):
        program = tmp_path / "prog.lp"
        program.write_text(GOLDEN_TEXT)
        lint_main([str(program), "--format=sarif"])
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"]


class TestControlHook:
    def test_lint_warn_emits_warnings(self):
        control = Control()
        control.add("a :- missing.")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            control.ground(lint=True)
        assert any("undefined-predicate" in str(w.message) for w in caught)
        assert control.lint_report is not None

    def test_lint_raise_on_error(self):
        control = Control()
        control.add("p(X) :- not q(X). q(1).")
        with pytest.raises(LintError) as excinfo:
            control.ground(lint="raise")
        assert excinfo.value.report.errors >= 1

    def test_lint_off_by_default(self):
        control = Control()
        control.add("a.")
        control.ground()
        assert control.lint_report is None


class TestSpecValidator:
    def test_clean_spec(self):
        spec = generate_specification(WorkloadConfig())
        assert validate_specification(spec) == []
        assert spec.lint() == []

    @staticmethod
    def _with_task(spec, task):
        """Rebuild the (frozen) spec with one task replaced."""
        tasks = tuple(
            task if t.name == task.name else t for t in spec.application.tasks
        )
        application = dataclasses.replace(spec.application, tasks=tasks)
        return dataclasses.replace(spec, application=application)

    def test_unsatisfiable_deadline(self):
        spec = generate_specification(WorkloadConfig())
        task = spec.application.tasks[0]
        fastest = min(o.wcet for o in spec.options_of(task.name))
        assert fastest > 1, "generated WCETs should leave room for a deadline"
        broken = self._with_task(
            spec, dataclasses.replace(task, deadline=fastest - 1)
        )
        findings = validate_specification(broken)
        assert "spec-unsatisfiable-deadline" in {f.rule for f in findings}

    @staticmethod
    def _without_mappings(spec, name):
        # The Specification constructor rejects unmappable tasks outright,
        # so sneak past __post_init__ to exercise the defensive check.
        broken = copy.copy(spec)
        object.__setattr__(
            broken, "mappings", tuple(m for m in spec.mappings if m.task != name)
        )
        return broken

    def test_unmappable_task(self):
        spec = generate_specification(WorkloadConfig())
        name = spec.application.tasks[0].name
        broken = self._without_mappings(spec, name)
        findings = validate_specification(broken)
        assert "spec-unmappable-task" in {f.rule for f in findings}

    def test_encode_lint_gate(self):
        spec = generate_specification(WorkloadConfig())
        name = spec.application.tasks[0].name
        broken = self._without_mappings(spec, name)
        with pytest.raises(SpecificationError, match="spec-unmappable-task"):
            encode(broken, lint=True)

    def test_encode_lint_clean_passes(self):
        spec = generate_specification(WorkloadConfig())
        instance = encode(spec, lint=True)
        assert instance.program


class TestDseCli:
    """``python -m repro.dse --lint`` lints before it explores."""

    def test_clean_spec_explores_and_reports(self, capsys):
        from repro.dse.__main__ import main

        code = main(
            ["--tasks", "3", "--seed", "2", "--platform", "bus", "--size", "3",
             "--lint"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out
        (line,) = [line for line in out.splitlines() if line.startswith("lint:")]
        assert line.startswith("lint: 0 error(s), 0 warning(s), 1 info(s), ")

    def test_unroutable_spec_aborts(self, tmp_path, capsys):
        from repro.dse.__main__ import main
        from repro.synthesis.io import save_specification
        from repro.synthesis.model import (
            Application,
            Architecture,
            MappingOption,
            Message,
            Resource,
            Specification,
            Task,
        )

        # Two tasks pinned to resources with no link between them.
        unroutable = Specification(
            Application(
                tasks=(Task("a"), Task("b")), messages=(Message("m", "a", "b"),)
            ),
            Architecture(
                resources=(Resource("r1", cost=1), Resource("r2", cost=1)),
                links=(),
            ),
            (
                MappingOption("a", "r1", wcet=1, energy=1),
                MappingOption("b", "r2", wcet=1, energy=1),
            ),
        )
        path = tmp_path / "unroutable.json"
        save_specification(unroutable, path)
        assert main(["--spec", str(path), "--lint"]) == 1
        out = capsys.readouterr().out
        assert "error[spec-unroutable-communication]" in out
        assert out.splitlines()[-1] == "lint: 1 error(s), aborting"
        assert "Pareto front" not in out
