"""Parallel speedup benchmark (extension): elastic scheduler + archive.

Records 1/2/4-worker wall times on curated workloads with the shared
dominance archive on and off, and writes the table to
``BENCH_parallel.json`` at the repository root.

The ISSUE targeted >= 3x wall time vs. the sequential explorer at 4
workers; that assumes 4 cores, and the benchmark suite runs the
deterministic *inline* backend (and frequently a single-core CI box), so
workers timeshare one interpreter and a vs-sequential wall-time ratio
above 1 is not measurable here — parallelism overhead even makes it
< 1.  What *is* measurable, deterministic, and machine-independent is
the amount of solver work each configuration needs: the inline backend
replays bit-identical trajectories, so model/conflict counts are exact.
The assertions below therefore encode defensible floors on that work
(see docs/PARALLEL.md for the full analysis):

* every configuration reproduces the sequential front exactly;
* archive sharing never enumerates more models than isolation at equal
  worker count;
* idle workers steal cubes at 4 workers on the hardest instance;
* adaptive re-splitting triggers under a tight budget and stays exact.

Per-worker statistics ride along in ``extra_info`` and in the
pytest-benchmark JSON output (``--benchmark-json``).
"""

import json
from pathlib import Path

from repro.bench.experiments import fig10_parallel
from repro.dse.parallel import ParallelParetoExplorer
from repro.synthesis.encoding import encode
from repro.workloads.curated import curated

LARGEST = "network_firewall"
OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_parallel.json"


def _resplit_probe(budget):
    """Force re-splitting with a tight per-cube budget; exactness holds."""
    result = ParallelParetoExplorer(
        encode(curated(LARGEST)),
        jobs=2,
        split_depth=1,
        backend="inline",
        chunk_conflicts=25,
        resplit_conflicts=50,
        conflict_limit=budget,
        validate_models=False,
    ).run()
    stats = result.statistics
    return {
        "instance": LARGEST,
        "resplit_conflicts": 50,
        "resplits": stats.resplits,
        "cubes_executed": stats.cubes_executed,
        "steals": stats.steals,
        "front": [list(point.vector) for point in result.front],
        "exact": not stats.interrupted,
    }


def run_parallel_comparison(budget):
    columns, rows = fig10_parallel(conflict_limit=budget)
    return columns, rows, _resplit_probe(budget)


def test_parallel_speedup(benchmark, budget):
    columns, rows, probe = benchmark.pedantic(
        run_parallel_comparison,
        kwargs={"budget": budget},
        rounds=1,
        iterations=1,
    )
    by_instance = {}
    for row in rows:
        by_instance.setdefault(row["instance"], []).append(row)
    assert set(by_instance) == {"consumer_jpeg", "network_firewall"}

    for name, variants in by_instance.items():
        sequential = variants[0]
        assert sequential["jobs"] == 1
        isolated = {}
        for row in variants:
            assert row["exact"], (name, row["jobs"], row["share"])
            # Exactness: identical front vectors in every configuration.
            assert row["front"] == sequential["front"], (name, row["jobs"])
            assert row["pareto"] == sequential["pareto"]
            if row["jobs"] > 1:
                assert len(row["per_worker"]) >= 1
                for worker in row["per_worker"]:
                    assert worker["models_enumerated"] >= 0
                    assert worker["wall_time"] >= 0
            if row["share"] == "no":
                isolated[row["jobs"]] = row
            elif row["share"] == "yes":
                # Cooperative pruning never enumerates more models.
                assert row["models"] <= isolated[row["jobs"]]["models"], (
                    name,
                    row["jobs"],
                )

    firewall = {(r["jobs"], r["share"]): r for r in by_instance[LARGEST]}
    for share in ("no", "yes"):
        assert firewall[(4, share)]["steals"] > 0, "4-worker run never stole"

    # Re-splitting under a tight budget actually triggers and stays exact.
    assert probe["resplits"] > 0
    assert probe["exact"]
    assert probe["front"] == [
        list(v) for v in by_instance[LARGEST][0]["front"]
    ]

    report = {
        "columns": [c for c in columns],
        "rows": [
            {key: value for key, value in row.items() if key != "front"}
            for row in rows
        ],
        "resplit_probe": {
            key: value for key, value in probe.items() if key != "front"
        },
    }
    OUTPUT.write_text(json.dumps(report, indent=2) + "\n")
    benchmark.extra_info["rows"] = report["rows"]
