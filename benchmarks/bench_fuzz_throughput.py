"""Fuzzer throughput benchmark: inputs/second per oracle.

Runs a fixed seeded budget through the full oracle matrix and records
per-oracle throughput (inputs checked per second, skips excluded from
neither count — a skip still costs generation and dispatch) in
``extra_info`` for ``--benchmark-json``.  Shape claims: the run is
green (the fuzzer finds nothing on main), every oracle sees inputs, and
no oracle is pathologically slow — the matrix must stay cheap enough
for the PR-time smoke budget to finish in seconds.
"""

from repro.fuzz import FuzzHarness
from repro.fuzz.oracles import ORACLES

BUDGET = 150
BASE_SEED = 0
MIN_INPUTS_PER_SECOND = 5.0


def run_fuzz_sweep():
    report = FuzzHarness(base_seed=BASE_SEED).run(BUDGET)
    rows = []
    for name, stats in sorted(report.oracle_stats.items()):
        rows.append(
            {
                "oracle": name,
                "kind": ORACLES[name].kind,
                "inputs": stats.inputs,
                "skips": stats.skips,
                "failures": stats.failures,
                "seconds": round(stats.seconds, 6),
                "inputs_per_second": round(stats.inputs_per_second, 1),
            }
        )
    return report, rows


def test_fuzz_throughput(benchmark):
    report, rows = benchmark.pedantic(run_fuzz_sweep, rounds=1, iterations=1)
    assert report.ok, [finding.to_dict() for finding in report.findings]
    assert {row["oracle"] for row in rows} == set(ORACLES)

    for row in rows:
        assert row["inputs"] > 0, f"{row['oracle']}: oracle never exercised"
        assert row["inputs_per_second"] >= MIN_INPUTS_PER_SECOND, (
            f"{row['oracle']}: {row['inputs_per_second']} inputs/s "
            f"(need >= {MIN_INPUTS_PER_SECOND})"
        )
    benchmark.extra_info["oracles"] = rows
