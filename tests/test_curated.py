"""Tests for the curated E3S-style instances."""

import pytest

from repro.baselines import exhaustive_front
from repro.dse.explorer import explore
from repro.synthesis.encoding import encode
from repro.synthesis.solution import validate
from repro.workloads.curated import CURATED_NAMES, curated, curated_instances


EXPECTED_TASKS = {
    "consumer_jpeg": 6,
    "telecom_modem": 6,
    "auto_engine": 6,
    "network_firewall": 10,
    "mesh_symmetric": 3,
}

#: Work counters (conflicts, decisions, propagations, models_enumerated)
#: of sequential ``explore()`` with default options.  They repeat
#: exactly across runs and hash seeds, so a change that moves them
#: changes the search trajectory and has to say so.  Only mesh_symmetric
#: has a non-trivial platform group, so only its search carries
#: lex-leader constraints.
EXPECTED_WORK = {
    "consumer_jpeg": (213, 414, 11739, 14),
    "telecom_modem": (120, 209, 5673, 5),
    "auto_engine": (77, 143, 4190, 6),
    "network_firewall": (1559, 2357, 99662, 19),
    "mesh_symmetric": (149, 412, 7315, 1),
}

#: The same counters for mesh_symmetric explored with ``symmetry="off"``.
EXPECTED_WORK_SYMMETRY_OFF = (1751, 3823, 104677, 1)


def work_counters(stats):
    return (
        stats.conflicts,
        stats.decisions,
        stats.propagations,
        stats.models_enumerated,
    )


class TestConstruction:
    @pytest.mark.parametrize("name", CURATED_NAMES)
    def test_valid_specifications(self, name):
        spec = curated(name)
        assert spec.summary()["tasks"] == EXPECTED_TASKS[name]

    def test_all_names_have_expected_counts(self):
        assert set(EXPECTED_TASKS) == set(CURATED_NAMES)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            curated("office_suite")

    def test_instances_wrapper(self):
        instances = curated_instances()
        assert [i.name for i in instances] == list(CURATED_NAMES)
        for instance in instances:
            assert instance.config.tasks == EXPECTED_TASKS[instance.name]

    def test_domain_restrictions_respected(self):
        # The monitor task is RISC-only in the telecom instance.
        spec = curated("telecom_modem")
        assert {o.resource for o in spec.options_of("monitor")} == {"risc"}


class TestExploration:
    @pytest.mark.parametrize("name", CURATED_NAMES)
    def test_exact_front_nonempty_and_valid(self, name):
        spec = curated(name)
        result = explore(spec, conflict_limit=40_000)
        assert result.front, name
        assert not result.statistics.interrupted, name
        for point in result.front:
            assert validate(spec, point.implementation) == []

    @pytest.mark.parametrize("name", CURATED_NAMES)
    def test_work_counters_pinned(self, name):
        stats = explore(curated(name)).statistics
        assert work_counters(stats) == EXPECTED_WORK[name]

    def test_work_counters_pinned_symmetry_off(self):
        stats = explore(curated("mesh_symmetric"), symmetry="off").statistics
        assert work_counters(stats) == EXPECTED_WORK_SYMMETRY_OFF

    def test_consumer_front_matches_exhaustive(self):
        spec = curated("consumer_jpeg")
        truth = exhaustive_front(
            encode(spec, objectives=("latency", "cost"), symmetry="off")
        )
        result = explore(spec, objectives=("latency", "cost"))
        assert result.vectors() == truth.vectors()

    def test_auto_engine_tradeoff_exists(self):
        result = explore(curated("auto_engine"), objectives=("latency", "cost"))
        assert len(result.front) >= 2  # cheap-slow vs. fast-expensive
