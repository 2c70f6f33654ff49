"""Table III benchmark (extension): curated E3S-style domain instances.

Shape claims: every domain instance solves to completion within the
budget, fronts are non-trivial, and adding objectives never shrinks the
front (a projection of a higher-dimensional front cannot have more
points than the front itself... the reverse: more objectives can only
reveal more trade-offs)."""

from repro.bench.experiments import table3_curated
from repro.workloads.curated import CURATED_NAMES


def test_table3_curated(benchmark, budget):
    columns, rows = benchmark.pedantic(
        table3_curated, kwargs={"conflict_limit": budget}, rounds=1, iterations=1
    )
    by_instance = {}
    for row in rows:
        by_instance.setdefault(row["instance"], {})[row["objectives"]] = row
    assert set(by_instance) == set(CURATED_NAMES)
    for name, variants in by_instance.items():
        two = variants["lat/cos"]
        three = variants["lat/ene/cos"]
        assert two["exact"] and three["exact"], name
        assert two["pareto"] >= 1, name
        # Adding an objective never loses trade-offs.
        assert three["pareto"] >= two["pareto"], name
