"""Tests for JSON (de)serialization of specifications."""

import json

import pytest

from repro.synthesis.io import (
    load_specification,
    save_specification,
    specification_from_dict,
    specification_to_dict,
)
from repro.synthesis.model import Message
from repro.workloads import WorkloadConfig, generate_specification


@pytest.fixture
def spec():
    return generate_specification(WorkloadConfig(tasks=5, seed=7))


class TestRoundTrip:
    def test_dict_round_trip(self, spec):
        rebuilt = specification_from_dict(specification_to_dict(spec))
        assert rebuilt == spec

    def test_file_round_trip(self, spec, tmp_path):
        path = tmp_path / "instance.json"
        save_specification(spec, path)
        assert load_specification(path) == spec

    def test_json_is_valid_and_stable(self, spec, tmp_path):
        path = tmp_path / "instance.json"
        save_specification(spec, path)
        first = path.read_text()
        save_specification(load_specification(path), path)
        assert path.read_text() == first

    def test_multicast_round_trip(self, spec):
        message = Message("mx", spec.application.tasks[0].name,
                          spec.application.tasks[1].name,
                          extra_targets=(spec.application.tasks[2].name,))
        from repro.synthesis.model import Application, Specification

        extended = Specification(
            Application(spec.application.tasks, spec.application.messages + (message,)),
            spec.architecture,
            spec.mappings,
        )
        rebuilt = specification_from_dict(specification_to_dict(extended))
        assert rebuilt == extended


class TestErrors:
    def test_unsupported_version(self, spec):
        data = specification_to_dict(spec)
        data["format"] = 99
        with pytest.raises(ValueError):
            specification_from_dict(data)

    def test_invalid_payload_validated(self, spec):
        data = specification_to_dict(spec)
        data["mappings"] = []  # tasks without options
        with pytest.raises(Exception):
            specification_from_dict(data)

    def test_defaults_filled(self, spec):
        data = specification_to_dict(spec)
        for message in data["application"]["messages"]:
            message.pop("size")
            message.pop("extra_targets")
        rebuilt = specification_from_dict(data)
        assert all(m.size == 1 for m in rebuilt.application.messages)


class TestExplorationFromFile:
    def test_cli_spec_file(self, spec, tmp_path):
        from repro.dse.__main__ import main

        path = tmp_path / "instance.json"
        save_specification(spec, path)
        assert main(["--spec", str(path), "--objectives", "energy,cost"]) == 0


class TestLatencyBound:
    def test_bound_prunes_designs(self):
        from repro.baselines import exhaustive_front
        from repro.synthesis.encoding import encode

        spec = generate_specification(WorkloadConfig(tasks=4, seed=0))
        unbounded = exhaustive_front(
            encode(spec, objectives=("latency",), symmetry="off")
        )
        best = min(v[0] for v in unbounded.vectors())
        worst_allowed = best  # deadline at the optimum: only optima remain
        bounded = exhaustive_front(
            encode(
                spec,
                objectives=("latency",),
                latency_bound=worst_allowed,
                symmetry="off",
            )
        )
        assert bounded.vectors() == [(best,)]
        assert bounded.models_enumerated <= unbounded.models_enumerated

    def test_infeasible_bound(self):
        from repro.asp import Control
        from repro.synthesis.encoding import encode
        from repro.theory.linear import LinearPropagator

        spec = generate_specification(WorkloadConfig(tasks=4, seed=0))
        instance = encode(spec, latency_bound=0)
        ctl = Control()
        ctl.add(instance.program)
        ctl.register_propagator(LinearPropagator())
        ctl.ground()
        assert not ctl.solve().satisfiable
