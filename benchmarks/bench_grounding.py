"""Grounding benchmark: naive vs. semi-naive on the curated suite.

For every curated workload the instance encoding is parsed and ground
in both modes; the per-mode wall time is the best of ``REPEATS`` runs
(parse included each time so both modes pay the same fixed cost).
Shape claims: the ground rule sets are bit-identical in every mode, and
on the largest curated instance (network_firewall) the semi-naive
grounder with argument-indexed joins is at least 2x faster than the
naive fixpoint.  The per-instance numbers ride along in ``extra_info``
for ``--benchmark-json``.
"""

from time import perf_counter

from repro.asp.grounder import Grounder
from repro.asp.parser import parse_program
from repro.synthesis.encoding import encode
from repro.workloads.curated import CURATED_NAMES, curated

REPEATS = 3
LARGEST = "network_firewall"


def _time_mode(text: str, mode: str):
    best = None
    outcome = None
    for _ in range(REPEATS):
        started = perf_counter()
        grounder = Grounder(parse_program(text), mode=mode)
        rules = grounder.ground()
        elapsed = perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
        outcome = (
            frozenset(str(rule) for rule in rules),
            grounder.statistics.instantiations,
            grounder.statistics.delta_rounds,
        )
    return best, outcome


def run_grounding_comparison():
    rows = []
    for name in CURATED_NAMES:
        text = encode(curated(name)).program
        naive_time, naive_out = _time_mode(text, "naive")
        semi_time, semi_out = _time_mode(text, "seminaive")
        assert naive_out[0] == semi_out[0], f"{name}: ground programs differ"
        rows.append(
            {
                "instance": name,
                "rules": len(naive_out[0]),
                "naive_seconds": round(naive_time, 6),
                "seminaive_seconds": round(semi_time, 6),
                "speedup": round(naive_time / semi_time, 3),
                "instantiations": semi_out[1],
                "delta_rounds": semi_out[2],
            }
        )
    return rows


def test_grounding_speedup(benchmark):
    rows = benchmark.pedantic(run_grounding_comparison, rounds=1, iterations=1)
    assert {row["instance"] for row in rows} == set(CURATED_NAMES)

    largest = next(row for row in rows if row["instance"] == LARGEST)
    assert largest["speedup"] >= 2.0, (
        f"semi-naive speedup on {LARGEST}: {largest['speedup']}x (need >= 2x)"
    )
    benchmark.extra_info["rows"] = rows
