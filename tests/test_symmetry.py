"""Tests for the platform symmetry analyzer and lex-leader breaking.

Three layers:

* the colored-graph automorphism engine (known group orders, a
  brute-force differential, hypothesis properties of orbits/generators),
* the platform analysis + constraint synthesis
  (:mod:`repro.analysis.symmetry`),
* end-to-end exactness: curated and generated fronts are vector-identical
  under the default (``symmetry="auto"``) and ``symmetry="off"``,
  sequentially and with two parallel workers (the acceptance property
  of docs/SYMMETRY.md).
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.spec import lint_instance
from repro.analysis.symmetry import analyze_specification, lex_leader_program
from repro.asp.control import Control
from repro.dse.explorer import ExactParetoExplorer, explore
from repro.dse.parallel import ParallelParetoExplorer
from repro.graphs import ColoredGraph, automorphism_group, orbits_of
from repro.synthesis.encoding import encode
from repro.theory.linear import LinearPropagator
from repro.workloads.curated import curated
from repro.workloads.generator import WorkloadConfig, generate_specification


def brute_force_group(n, colors, edges):
    """All color/edge-preserving permutations, by exhaustive search."""
    graph = ColoredGraph(n, colors, edges)
    return sorted(
        perm
        for perm in itertools.permutations(range(n))
        if graph.is_automorphism(perm)
    )


def clique(n):
    return {(u, v): 0 for u in range(n) for v in range(n) if u != v}


def grid_edges(cols, rows):
    edges = {}
    for y in range(rows):
        for x in range(cols):
            here = y * cols + x
            for dx, dy in ((1, 0), (0, 1)):
                nx, ny = x + dx, y + dy
                if nx < cols and ny < rows:
                    there = ny * cols + nx
                    edges[(here, there)] = 0
                    edges[(there, here)] = 0
    return edges


class TestKnownGroups:
    @pytest.mark.parametrize("n,order", [(2, 2), (3, 6), (4, 24), (5, 120)])
    def test_uniform_clique_is_symmetric_group(self, n, order):
        group = automorphism_group(n, [0] * n, clique(n))
        assert group.order == order
        assert group.orbits == (tuple(range(n)),)

    def test_star_is_symmetric_on_leaves(self):
        # Center 0 with 4 leaves: Aut = S4 on the leaves.
        edges = {(0, leaf): 0 for leaf in range(1, 5)}
        group = automorphism_group(5, [0] * 5, edges)
        assert group.order == 24
        assert group.nontrivial_orbits == ((1, 2, 3, 4),)

    def test_directed_cycle_is_cyclic_group(self):
        edges = {(i, (i + 1) % 5): 0 for i in range(5)}
        group = automorphism_group(5, [0] * 5, edges)
        assert group.order == 5
        assert group.orbits == ((0, 1, 2, 3, 4),)

    def test_uniform_grid_is_dihedral(self):
        group = automorphism_group(9, [0] * 9, grid_edges(3, 3))
        assert group.order == 8  # D4
        assert group.orbits == ((0, 2, 6, 8), (1, 3, 5, 7), (4,))

    def test_vertex_colors_cut_the_group(self):
        colors = [1] + [0] * 8  # distinguish one corner of the 3x3 grid
        group = automorphism_group(9, colors, grid_edges(3, 3))
        assert group.order == 2  # only the diagonal reflection fixing 0

    def test_edge_colors_cut_the_group(self):
        edges = clique(3)
        edges[(0, 1)] = 1  # one asymmetric edge
        group = automorphism_group(3, [0, 0, 0], edges)
        assert group.order == 1
        assert group.trivial

    def test_every_generator_is_verified(self):
        group = automorphism_group(9, [0] * 9, grid_edges(3, 3))
        graph = ColoredGraph(9, [0] * 9, grid_edges(3, 3))
        for perm in group.generators:
            assert graph.is_automorphism(perm)


@st.composite
def random_colored_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    colors = draw(
        st.lists(
            st.integers(min_value=0, max_value=2), min_size=n, max_size=n
        )
    )
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    edges = {}
    for pair in pairs:
        kind = draw(st.integers(min_value=0, max_value=3))
        if kind:  # 0 = absent, 1..3 = edge colors
            edges[pair] = kind
    return n, colors, edges


class TestGraphProperties:
    @settings(max_examples=60, deadline=None)
    @given(random_colored_graphs())
    def test_exact_against_brute_force(self, case):
        n, colors, edges = case
        group = automorphism_group(n, colors, edges)
        truth = brute_force_group(n, colors, edges)
        assert group.order == len(truth)
        assert set(group.generators) <= set(truth)
        # Orbits of the generator set equal orbits of the full group.
        assert group.orbits == orbits_of(n, truth)

    @settings(max_examples=60, deadline=None)
    @given(random_colored_graphs())
    def test_orbits_partition_the_vertices(self, case):
        n, colors, edges = case
        group = automorphism_group(n, colors, edges)
        flattened = sorted(v for orbit in group.orbits for v in orbit)
        assert flattened == list(range(n))  # disjoint and exhaustive

    @settings(max_examples=60, deadline=None)
    @given(random_colored_graphs())
    def test_generators_preserve_colors(self, case):
        n, colors, edges = case
        graph = ColoredGraph(n, colors, edges)
        group = graph.automorphism_group()
        for perm in group.generators:
            assert graph.is_automorphism(perm)
            assert [colors[perm[v]] for v in range(n)] == list(colors)

    @settings(max_examples=40, deadline=None)
    @given(random_colored_graphs())
    def test_orbit_relation_is_equivalence(self, case):
        n, colors, edges = case
        group = automorphism_group(n, colors, edges)
        member = {}
        for orbit in group.orbits:
            for v in orbit:
                member[v] = orbit
        for v in range(n):
            assert v in member[v]  # reflexive
        for perm in group.generators:
            for v in range(n):
                # Generator images stay within the orbit (symmetry +
                # transitivity of the union-find closure).
                assert member[perm[v]] is member[v]


class TestPlatformAnalysis:
    def test_mesh_symmetric_has_full_grid_group(self):
        symmetry = analyze_specification(curated("mesh_symmetric"))
        assert symmetry.order == 8
        assert symmetry.nontrivial_orbits == (
            ("tile00", "tile20", "tile02", "tile22"),
            ("tile10", "tile01", "tile21", "tile12"),
        )

    def test_heterogeneous_curated_platforms_are_asymmetric(self):
        # consumer_jpeg: three distinct PE classes around a bus.
        assert analyze_specification(curated("consumer_jpeg")).trivial

    def test_mapping_options_break_platform_symmetry(self):
        # network_firewall has two same-cost NPUs, but their mapping
        # option sets differ (acl vs qos/shape), so they are *not*
        # interchangeable and the analyzer must see that.
        symmetry = analyze_specification(curated("network_firewall"))
        assert symmetry.trivial

    def test_homogeneous_bus_platform(self):
        spec = generate_specification(
            WorkloadConfig(
                tasks=3,
                seed=1,
                platform="bus",
                platform_size=(3, 0),
                options_per_task=(16, 16),
                pe_homogeneity=1.0,
            )
        )
        symmetry = analyze_specification(spec)
        assert symmetry.order == 6  # S3 on the identical PEs
        assert len(symmetry.nontrivial_orbits) == 1

    def test_lex_leader_counts(self):
        spec = curated("mesh_symmetric")
        symmetry = analyze_specification(spec)
        text, count = lex_leader_program(spec, symmetry)
        constraint_lines = [
            line for line in text.splitlines() if line.startswith(":-")
        ]
        # Two generators share first-position constraints; each is
        # emitted once, and the count is of distinct constraints.
        assert len(set(constraint_lines)) == len(constraint_lines)
        assert len(constraint_lines) == count == 26


def count_feasible_models(instance):
    """Stable models of the encoding (no dominance pruning)."""
    control = Control()
    control.add(instance.program)
    control.register_propagator(LinearPropagator())
    control.ground()
    return control.solve(models=0).models


class TestEncodingIntegration:
    def test_off_attaches_no_info(self):
        instance = encode(curated("mesh_symmetric"), symmetry="off")
        assert instance.symmetry is None

    def test_auto_injects_constraints(self):
        instance = encode(curated("mesh_symmetric"))
        info = instance.symmetry
        assert info.mode == "auto" and info.applied
        assert info.constraints == 26 and info.order == 8
        assert "sym_pre" in instance.program

    def test_auto_declines_trivial_platforms(self):
        instance = encode(curated("consumer_jpeg"))
        assert instance.symmetry is not None
        assert not instance.symmetry.applied
        assert instance.symmetry.declined == "trivial automorphism group"

    def test_on_mode_removed(self):
        with pytest.raises(ValueError, match="symmetry"):
            encode(curated("mesh_symmetric"), symmetry="on")

    def test_auto_declines_fixed_routing(self):
        instance = encode(curated("mesh_symmetric"), routing="fixed")
        assert not instance.symmetry.applied

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="symmetry"):
            encode(curated("mesh_symmetric"), symmetry="yes")

    def test_pins_rejected_on_broken_instance(self):
        instance = encode(curated("mesh_symmetric"))
        with pytest.raises(ValueError, match="symmetry"):
            ExactParetoExplorer(instance, fixed_bindings={"sense": "tile22"})
        with pytest.raises(ValueError, match="symmetry"):
            ParallelParetoExplorer(
                instance, jobs=2, fixed_bindings={"sense": "tile22"}
            )

    def test_explore_with_pins_encodes_off(self):
        spec = curated("mesh_symmetric")
        pins = {"sense": "tile22"}
        pinned = explore(spec, fixed_bindings=pins)
        unbroken = ExactParetoExplorer(
            encode(spec, symmetry="off"), fixed_bindings=pins
        ).run()
        assert pinned.vectors() == unbroken.vectors() == [(8, 5, 6)]
        assert pinned.statistics.symmetry_mode == ""

    def test_feasible_models_reduced(self):
        spec = curated("mesh_symmetric")
        assert count_feasible_models(encode(spec, symmetry="off")) == 213
        assert count_feasible_models(encode(spec)) == 37


class TestFrontEquivalence:
    """The acceptance property: fronts are vector-identical auto vs off."""

    def test_mesh_symmetric_sequential(self):
        off = explore(curated("mesh_symmetric"), symmetry="off")
        auto = explore(curated("mesh_symmetric"))
        assert auto.vectors() == off.vectors() == [(8, 5, 6)]
        stats = auto.statistics
        assert stats.symmetry_applied and stats.symmetry_order == 8
        assert stats.symmetry_constraints == 26
        # Breaking must not make the search harder on the showcase.
        assert stats.conflicts < off.statistics.conflicts

    def test_mesh_symmetric_parallel(self):
        spec = curated("mesh_symmetric")
        off = explore(spec, symmetry="off")
        result = ParallelParetoExplorer(
            encode(spec), jobs=2, backend="inline"
        ).run()
        assert result.vectors() == off.vectors() == [(8, 5, 6)]
        assert result.statistics.symmetry_applied
        assert result.statistics.symmetry_order == 8

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_homogeneous_instances(self, seed):
        spec = generate_specification(
            WorkloadConfig(
                tasks=3,
                seed=seed,
                platform="mesh",
                platform_size=(2, 2),
                options_per_task=(16, 16),
                pe_homogeneity=1.0,
            )
        )
        off = explore(spec, symmetry="off")
        auto = explore(spec)
        assert auto.vectors() == off.vectors()

    def test_serialize_keeps_front(self):
        spec = curated("mesh_symmetric")
        off = ExactParetoExplorer(
            encode(spec, serialize=True, symmetry="off")
        ).run()
        auto = ExactParetoExplorer(encode(spec, serialize=True)).run()
        assert auto.vectors() == off.vectors()

    def test_statistics_surface_in_to_dict(self):
        result = explore(curated("mesh_symmetric"))
        stats = result.to_dict()["statistics"]
        assert stats["symmetry_applied"] is True
        assert stats["symmetry_order"] == 8
        assert stats["symmetry_constraints"] == 26
        assert stats["symmetry_mode"] == "auto"


class TestLintIntegration:
    def test_symmetric_platform_info(self):
        report = lint_instance(encode(curated("mesh_symmetric"), symmetry="off"))
        rules = {d.rule for d in report.diagnostics}
        assert "spec-symmetric-platform" in rules
        diag = next(
            d for d in report.diagnostics if d.rule == "spec-symmetric-platform"
        )
        assert "7 non-trivial automorphism(s)" in diag.message

    def test_no_info_when_breaking_applied(self):
        report = lint_instance(encode(curated("mesh_symmetric")))
        assert "spec-symmetric-platform" not in {
            d.rule for d in report.diagnostics
        }

    def test_no_info_on_trivial_platforms(self):
        report = lint_instance(encode(curated("consumer_jpeg")))
        assert "spec-symmetric-platform" not in {
            d.rule for d in report.diagnostics
        }

    def test_suppressed_count_in_json(self):
        from repro.analysis import lint_text

        text = "p(X) :- not q(X). % lint: disable=unsafe-variable\nq(1).\n"
        report = lint_text(text)
        assert report.suppressed >= 1
        assert report.to_dict()["suppressed"] == report.suppressed

    def test_lint_cli_json_reports_suppressed(self, tmp_path, capsys):
        import json

        from repro.analysis.cli import lint_main

        path = tmp_path / "prog.lp"
        path.write_text(
            "p(X) :- not q(X). % lint: disable=unsafe-variable\nq(1).\n"
        )
        assert lint_main([str(path), "--format=json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["suppressed"] >= 1


class TestWorkloadKnob:
    def test_homogeneity_zero_preserves_historical_platforms(self):
        base = generate_specification(WorkloadConfig(tasks=3, seed=5))
        knob = generate_specification(
            WorkloadConfig(tasks=3, seed=5, pe_homogeneity=0.0)
        )
        assert base == knob

    def test_homogeneity_one_gives_identical_tiles(self):
        spec = generate_specification(
            WorkloadConfig(tasks=2, seed=5, pe_homogeneity=1.0)
        )
        costs = {r.cost for r in spec.architecture.resources}
        assert len(costs) == 1

    def test_homogeneity_validated(self):
        with pytest.raises(ValueError, match="pe_homogeneity"):
            WorkloadConfig(tasks=2, pe_homogeneity=1.5)

    def test_fuzz_generator_produces_homogeneous_specs(self):
        from repro.fuzz.generators import generate_spec

        notes = set()
        for seed in range(40):
            notes.update(generate_spec(seed).notes)
        assert "homogeneous platform" in notes
