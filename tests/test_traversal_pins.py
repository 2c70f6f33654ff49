"""What the analyses compute, pinned by digest per input.

The linter, the safety check and the abstract domain analysis read the
rule AST through one traversal (the traversal section of
:mod:`repro.asp.ast`).  These pins hash, for every input, what those
readers report:

* the lint report: rule id, severity, message and span of every
  diagnostic (timings left out);
* the domain analysis: the per-position domains of every derivable
  signature and every dead-rule verdict (cause, detail, location).

The inputs are the shipped corpora (``tests/corpus/*.lp`` and
``tests/corpus/lint/*.lp``), ``lint_instance`` of the curated encodings
and of the generated encoding in the three variants
``tests/test_lint.py::TestZeroFalsePositives`` lints.  A digest that
moves means a report changed: re-record only for a change that is meant
to change what the analyses find, and say so.  ``python
tests/test_traversal_pins.py`` prints the current digests.
"""

import glob
import hashlib
import os

import pytest

from repro.analysis import lint_instance, lint_text
from repro.analysis.domains import analyze_program
from repro.asp.parser import ParseError, parse_program
from repro.synthesis.encoding import encode
from repro.workloads import WorkloadConfig, generate_specification
from repro.workloads.curated import CURATED_NAMES, curated

TESTS = os.path.dirname(os.path.abspath(__file__))

#: The keyword arguments of the generated-encoding variants.
GENERATED = {
    "plain": {},
    "serialize": {"serialize": True},
    "link_contention": {"link_contention": True},
}


def corpus_files():
    """Corpus paths relative to ``tests/`` (the lint filename, too)."""
    paths = sorted(glob.glob(os.path.join(TESTS, "corpus", "*.lp")))
    paths += sorted(glob.glob(os.path.join(TESTS, "corpus", "lint", "*.lp")))
    return [os.path.relpath(path, TESTS) for path in paths]


def read(relative: str) -> str:
    with open(os.path.join(TESTS, relative)) as handle:
        return handle.read()


def instance_of(key: str):
    kind, name = key.split("/", 1)
    if kind == "curated":
        return encode(curated(name))
    return encode(generate_specification(WorkloadConfig()), **GENERATED[name])


def digest(lines) -> str:
    hasher = hashlib.sha256()
    for line in lines:
        hasher.update(line.encode())
        hasher.update(b"\n")
    return hasher.hexdigest()[:16]


def lint_lines(report):
    for diagnostic in report.diagnostics:
        span = diagnostic.span
        where = None
        if span is not None:
            where = (span.file, span.line, span.column, span.end_line, span.end_column)
        yield f"{diagnostic.rule}|{diagnostic.severity}|{diagnostic.message}|{where}"


def domain_lines(text: str):
    try:
        program = parse_program(text)
    except ParseError:
        yield "parse-error"
        return
    analysis = analyze_program(program)
    for sig in sorted(analysis.domains):
        yield f"{sig}: {[repr(dom) for dom in analysis.domains[sig]]}"
    for index in sorted(analysis.dead):
        dead = analysis.dead[index]
        yield f"dead {index}: {dead.cause}|{dead.detail}|{dead.location}"


def case_digests(key: str) -> tuple:
    """(lint digest, domain digest) of one input."""
    if key.startswith("corpus"):
        text = read(key)
        report = lint_text(text, filename=key)
    else:
        instance = instance_of(key)
        text = instance.program
        report = lint_instance(instance)
    return digest(lint_lines(report)), digest(domain_lines(text))


def all_keys():
    keys = corpus_files()
    keys += [f"curated/{name}" for name in CURATED_NAMES]
    keys += [f"generated/{variant}" for variant in GENERATED]
    return keys


PINS = {
    "corpus/01_facts.lp": ("e3b0c44298fc1c14", "44b2a1598b1360f8"),
    "corpus/02_choice.lp": ("e3b0c44298fc1c14", "88699e3b3f00c435"),
    "corpus/03_exactly_one.lp": ("e3b0c44298fc1c14", "d7ee1ab2276beaef"),
    "corpus/04_negation.lp": ("9042bef7f96d7696", "88699e3b3f00c435"),
    "corpus/05_odd_loop.lp": ("edc67f03a30827b4", "8d88091f0ae8be34"),
    "corpus/06_positive_loop.lp": ("9ca85e2bababfff7", "f5dbc7901b777db1"),
    "corpus/07_constraint.lp": ("e3b0c44298fc1c14", "8d88091f0ae8be34"),
    "corpus/08_count.lp": ("e3b0c44298fc1c14", "7db361eacd3eb2c3"),
    "corpus/09_sum.lp": ("e3b0c44298fc1c14", "3904438bf3497958"),
    "corpus/10_interval_pool.lp": ("e3b0c44298fc1c14", "64d51a42615a3a98"),
    "corpus/11_binder.lp": ("e3b0c44298fc1c14", "93fde12c6629d406"),
    "corpus/12_reachability.lp": ("2e504b1e8cdee0ef", "85689eefd8269fbd"),
    "corpus/13_show.lp": ("efc05259afaf9783", "d63fd4514b86ab35"),
    "corpus/14_strat_negation.lp": ("e3b0c44298fc1c14", "0e3905c6a7a4f360"),
    "corpus/15_min_max.lp": ("e3b0c44298fc1c14", "5cfe41a9868d7434"),
    "corpus/lint/arity_clash.lp": ("463d019a469aa965", "1221787927d14129"),
    "corpus/lint/bad_theory.lp": ("ebb023438e4ce39e", "e3b0c44298fc1c14"),
    "corpus/lint/blowup.lp": ("b4b1615db2583a28", "cc0185e1a0075545"),
    "corpus/lint/dead_rule.lp": ("8b6eb25f07942f11", "7ed859da6f9f0db7"),
    "corpus/lint/suppressed.lp": ("e3b0c44298fc1c14", "b96cd66ddb2b8e68"),
    "corpus/lint/typo_predicate.lp": ("8ea585eae20ef765", "16dad5f7ac58be38"),
    "corpus/lint/unsafe_var.lp": ("edf0762a1852b5fa", "c42d7547e6bd4ced"),
    "corpus/lint/unstratified.lp": ("a24da639b5539ac6", "88699e3b3f00c435"),
    "corpus/lint/unused.lp": ("0647e40e08e0e7a3", "11e55ba39b5e8b87"),
    "curated/consumer_jpeg": ("2205fb0fe79229ae", "429835986873f539"),
    "curated/telecom_modem": ("2205fb0fe79229ae", "50e31686aed5668f"),
    "curated/auto_engine": ("d0bcaa3c338399a5", "7c066edba5660c62"),
    "curated/network_firewall": ("e88e494eec1eef0e", "81a1fdc59ad25fbf"),
    "curated/mesh_symmetric": ("81631ff629ad6659", "381a5cf2c220e39d"),
    "generated/plain": ("2205fb0fe79229ae", "feb1c1340590427a"),
    "generated/serialize": ("2205fb0fe79229ae", "032784f40c38b1fe"),
    "generated/link_contention": ("2205fb0fe79229ae", "c192d453bb5936e8"),
}


@pytest.mark.parametrize("key", all_keys())
def test_analysis_reports_keep_their_digests(key):
    assert case_digests(key) == PINS[key]


def test_every_input_is_pinned():
    assert sorted(PINS) == sorted(all_keys())


if __name__ == "__main__":
    for key in all_keys():
        print(f"    {key!r}: {case_digests(key)!r},")
