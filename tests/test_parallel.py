"""Parallel exact Pareto enumeration: partitioning and equivalence.

The load-bearing property is *exactness*: for every curated workload the
parallel explorer returns bit-for-bit the sequential front — same
vectors, same count — for any worker count, split depth, backend,
archive-sharing mode, and re-split budget.
"""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asp.control import clear_ground_cache
from repro.dse.explorer import ExactParetoExplorer, explore
from repro.dse.parallel import (
    ParallelParetoExplorer,
    auto_split_depth,
    binding_choices,
    derive_cubes,
)
from repro.dse.pareto import dominates
from repro.dse.scheduler import MAX_STEALING_CUBES, TARGET_CUBE_FACTOR
from repro.synthesis.encoding import encode
from repro.synthesis.solution import recompute_objectives, validate
from repro.workloads.curated import CURATED_NAMES, curated


@pytest.fixture(scope="module")
def sequential_fronts():
    """Reference fronts (vectors) from the sequential explorer."""
    return {
        name: ExactParetoExplorer(encode(curated(name))).run().vectors()
        for name in CURATED_NAMES
    }


class TestCubes:
    def test_binding_choices_skip_forced_and_pinned(self):
        spec = curated("telecom_modem")
        choices = dict(binding_choices(spec))
        assert "monitor" not in choices  # single mapping option
        assert "fft" in choices
        assert "fft" not in dict(binding_choices(spec, {"fft": "dsp_a"}))

    def test_cubes_enumerate_the_choice_product(self):
        spec = curated("consumer_jpeg")
        for depth in range(4):
            cubes = derive_cubes(spec, depth)
            expected = 1
            for _task, options in binding_choices(spec)[:depth]:
                expected *= len(options)
            assert len(cubes) == expected
            # Same task set per cube + unique combinations = a partition
            # of the design space (each binding satisfies exactly one).
            keysets = {frozenset(cube) for cube in cubes}
            assert len(keysets) == 1
            assert len({tuple(sorted(c.items())) for c in cubes}) == len(cubes)

    def test_depth_zero_is_the_single_base_cube(self):
        spec = curated("auto_engine")
        assert derive_cubes(spec, 0) == [{}]
        assert derive_cubes(spec, 0, {"fuse": "core"}) == [{"fuse": "core"}]

    def test_cubes_extend_pinned_bindings(self):
        spec = curated("auto_engine")
        cubes = derive_cubes(spec, 2, {"fuse": "core"})
        assert all(cube["fuse"] == "core" for cube in cubes)

    def test_auto_split_depth_overpartitions(self):
        spec = curated("network_firewall")
        for jobs in (2, 4, 8):
            depth = auto_split_depth(spec, jobs)
            assert len(derive_cubes(spec, depth)) >= 2 * jobs
        assert auto_split_depth(spec, 1) == 0

    def test_auto_split_depth_stealing_targets_more_cubes(self):
        spec = curated("network_firewall")
        max_depth = len(binding_choices(spec))
        for jobs in (2, 4):
            depth = auto_split_depth(spec, jobs)
            cubes = len(derive_cubes(spec, depth))
            assert cubes <= MAX_STEALING_CUBES
            # Either the target was reached or every binding level is used.
            assert cubes >= TARGET_CUBE_FACTOR * jobs or depth == max_depth


class TestEquivalence:
    @pytest.mark.parametrize("jobs", (2, 4))
    @pytest.mark.parametrize("name", CURATED_NAMES)
    def test_process_front_matches_sequential(
        self, name, jobs, sequential_fronts
    ):
        result = ParallelParetoExplorer(encode(curated(name)), jobs=jobs).run()
        assert result.vectors() == sequential_fronts[name]
        assert result.statistics.pareto_points == len(sequential_fronts[name])
        assert not result.statistics.interrupted
        assert multiprocessing.active_children() == []

    def test_inline_backend_matches_and_is_deterministic(
        self, sequential_fronts
    ):
        runs = [
            ParallelParetoExplorer(
                encode(curated("auto_engine")), jobs=3, backend="inline"
            ).run()
            for _repeat in range(2)
        ]
        assert runs[0].vectors() == sequential_fronts["auto_engine"]
        assert runs[1].vectors() == sequential_fronts["auto_engine"]

        def effort(result):
            return [
                {
                    key: value
                    for key, value in entry.items()
                    if not key.startswith("time") and key != "wall_time"
                }
                for entry in result.statistics.per_worker
            ]

        assert effort(runs[0]) == effort(runs[1])

    @pytest.mark.parametrize("depth", (1, 2, 3))
    def test_explicit_split_depth(self, depth, sequential_fronts):
        result = ParallelParetoExplorer(
            encode(curated("telecom_modem")),
            jobs=2,
            split_depth=depth,
            backend="inline",
        ).run()
        assert result.vectors() == sequential_fronts["telecom_modem"]

    def test_isolated_archives_stay_exact(self, sequential_fronts):
        result = ParallelParetoExplorer(
            encode(curated("consumer_jpeg")),
            jobs=2,
            share_archive=False,
            backend="inline",
        ).run()
        assert result.vectors() == sequential_fronts["consumer_jpeg"]

    def test_explore_dispatches_on_jobs(self, sequential_fronts):
        result = explore(curated("consumer_jpeg"), jobs=2, backend="inline")
        assert result.vectors() == sequential_fronts["consumer_jpeg"]
        assert result.statistics.per_worker


class TestInjection:
    def test_injected_utopia_point_prunes_everything(self):
        explorer = ExactParetoExplorer(encode(curated("auto_engine")))
        assert explorer.inject_points([((0, 0, 0), None)]) == 1
        # Weakly dominated foreign points are dropped on arrival.
        assert explorer.inject_points([((5, 5, 5), None)]) == 0
        status, point = explorer.solve_step()
        assert (status, point) == ("exhausted", None)
        assert explorer.models_enumerated == 0

    def test_chunked_stepping_resumes(self):
        explorer = ExactParetoExplorer(
            encode(curated("consumer_jpeg")), chunk_conflicts=5
        )
        reference = ExactParetoExplorer(encode(curated("consumer_jpeg"))).run()
        statuses = set()
        for _step in range(100_000):
            status, _point = explorer.solve_step()
            statuses.add(status)
            if status == "exhausted":
                break
        assert status == "exhausted"
        assert "interrupted" in statuses  # the tiny budget actually chunked
        assert [v for v, _p in explorer.front()] == reference.vectors()


class TestStatistics:
    def test_per_worker_statistics_reported_and_serializable(self):
        result = ParallelParetoExplorer(
            encode(curated("auto_engine")), jobs=2, backend="inline"
        ).run()
        stats = result.statistics
        assert len(stats.per_worker) == 2
        for entry in stats.per_worker:
            assert {
                "worker",
                "cubes",
                "injected",
                "models_enumerated",
                "conflicts",
                "decisions",
                "wall_time",
            } <= set(entry)
        payload = result.to_dict()
        assert payload["statistics"]["per_worker"] == stats.per_worker
        json.dumps(payload)

    def test_sequential_timing_counters_populated(self):
        result = ExactParetoExplorer(encode(curated("auto_engine"))).run()
        stats = result.statistics
        assert stats.time_boolean_propagation > 0
        assert stats.time_theory_propagation > 0
        assert stats.time_dominance > 0
        serialized = result.to_dict()["statistics"]
        for key in (
            "time_boolean_propagation",
            "time_theory_propagation",
            "time_dominance",
        ):
            assert serialized[key] == pytest.approx(getattr(stats, key))


class TestGroundSharing:
    """The instance is ground once per run and shipped to the workers."""

    def test_inline_workers_reuse_parent_ground_program(self):
        clear_ground_cache()
        result = ParallelParetoExplorer(
            encode(curated("auto_engine")), jobs=2, backend="inline"
        ).run()
        stats = result.statistics
        assert stats.grounds == 1  # the parent's ground; workers add zero
        assert not stats.ground_cache_hit
        assert stats.instantiations > 0
        assert stats.grounding_seconds > 0
        assert all(entry["grounds"] == 0 for entry in stats.per_worker)

    def test_process_workers_reuse_shipped_ground_program(self, sequential_fronts):
        clear_ground_cache()
        result = ParallelParetoExplorer(
            encode(curated("consumer_jpeg")), jobs=2, backend="process"
        ).run()
        stats = result.statistics
        assert stats.grounds == 1
        assert all(entry["grounds"] == 0 for entry in stats.per_worker)
        assert result.vectors() == sequential_fronts["consumer_jpeg"]

    def test_second_run_hits_the_ground_cache(self):
        clear_ground_cache()
        instance = encode(curated("auto_engine"))
        first = ParallelParetoExplorer(instance, jobs=2, backend="inline").run()
        second = ParallelParetoExplorer(instance, jobs=2, backend="inline").run()
        assert not first.statistics.ground_cache_hit
        assert second.statistics.ground_cache_hit
        assert second.statistics.grounds == 0
        assert second.vectors() == first.vectors()

    def test_grounding_counters_serialize(self):
        clear_ground_cache()
        result = ParallelParetoExplorer(
            encode(curated("auto_engine")), jobs=2, backend="inline"
        ).run()
        serialized = result.to_dict()["statistics"]
        assert serialized["grounds"] == 1
        assert serialized["ground_cache_hit"] is False
        assert serialized["instantiations"] > 0
        assert serialized["delta_rounds"] >= 0
        json.dumps(serialized)


class TestCli:
    def test_jobs_flag_smoke(self, capsys, tmp_path):
        from repro.dse.__main__ import main

        output = tmp_path / "front.json"
        code = main(
            [
                "--tasks", "4",
                "--seed", "1",
                "--platform", "bus",
                "--size", "3",
                "--jobs", "2",
                "--backend", "inline",
                "--output", str(output),
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "worker 0:" in printed
        assert "scheduler: stealing" in printed
        data = json.loads(output.read_text())
        assert data["statistics"]["per_worker"]
        assert data["front"]

    def test_schedule_flags_smoke(self, capsys):
        from repro.dse.__main__ import main

        code = main(
            [
                "--tasks", "4",
                "--seed", "1",
                "--platform", "bus",
                "--size", "3",
                "--jobs", "2",
                "--backend", "inline",
                "--resplit-budget", "100",
                "--chunk-conflicts", "20",
            ]
        )
        assert code == 0
        assert "scheduler: stealing" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "workers",
        (["--jobs", "1"], ["--jobs", "2", "--backend", "inline"]),
        ids=("sequential", "inline"),
    )
    def test_budget_interrupted_front_is_titled_partial(self, workers, capsys):
        from repro.dse.__main__ import main

        code = main(
            [
                "--tasks", "8",
                "--seed", "1",
                "--platform", "mesh",
                "--size", "3x2",
                "--budget", "100",
                *workers,
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "Exact Pareto front" not in printed
        assert "Partial Pareto front" in printed
        assert "INTERRUPTED (budget)" in printed


class TestElasticScheduling:
    """The stealing scheduler preserves bit-identical fronts.

    Stealing, hypervolume-priority reordering, adaptive re-splitting,
    and delta injection may only change *when* pruning happens, never
    *what* the merged front contains (docs/PARALLEL.md).
    """

    @given(
        name=st.sampled_from(("consumer_jpeg", "auto_engine", "telecom_modem")),
        jobs=st.integers(1, 4),
        depth=st.one_of(st.none(), st.integers(1, 3)),
        resplit=st.sampled_from((None, 25, 200, 1_000)),
        share=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_stealing_front_matches_sequential(
        self, name, jobs, depth, resplit, share, sequential_fronts
    ):
        reference = sequential_fronts[name]
        result = ParallelParetoExplorer(
            encode(curated(name)),
            jobs=jobs,
            split_depth=depth,
            backend="inline",
            resplit_conflicts=resplit,
            share_archive=share,
        ).run()
        assert result.vectors() == reference

    def test_process_backend_three_workers(self, sequential_fronts):
        result = ParallelParetoExplorer(
            encode(curated("network_firewall")),
            jobs=3,
            backend="process",
        ).run()
        assert result.vectors() == sequential_fronts["network_firewall"]

    def test_to_dict_front_is_stable_across_runs(self, sequential_fronts):
        payloads = [
            ParallelParetoExplorer(
                encode(curated("telecom_modem")),
                jobs=3,
                backend="inline",
            )
            .run()
            .to_dict()
            for _repeat in range(2)
        ]
        assert payloads[0]["front"] == payloads[1]["front"]
        assert payloads[0]["objectives"] == payloads[1]["objectives"]
        vectors = [tuple(point["vector"]) for point in payloads[0]["front"]]
        assert vectors == sequential_fronts["telecom_modem"]
        # Inline scheduling itself is deterministic, not just the front.
        for key in ("steals", "resplits", "cubes_executed"):
            assert (
                payloads[0]["statistics"][key] == payloads[1]["statistics"][key]
            )

    def test_resplit_budget_triggers_and_stays_exact(self, sequential_fronts):
        result = ParallelParetoExplorer(
            encode(curated("network_firewall")),
            jobs=2,
            split_depth=1,
            backend="inline",
            chunk_conflicts=25,
            resplit_conflicts=50,
        ).run()
        stats = result.statistics
        assert stats.resplits > 0
        assert stats.cubes_executed > len(
            derive_cubes(curated("network_firewall"), 1)
        )
        assert not stats.interrupted
        assert result.vectors() == sequential_fronts["network_firewall"]

    def test_scheduler_statistics_surface_everywhere(self):
        result = ParallelParetoExplorer(
            encode(curated("auto_engine")),
            jobs=2,
            backend="inline",
        ).run()
        stats = result.statistics
        assert stats.cubes_executed >= len(
            ParallelParetoExplorer(
                encode(curated("auto_engine")), jobs=2
            ).cubes()
        )
        assert stats.archive_delta_bytes > 0
        serialized = result.to_dict()["statistics"]
        for key in (
            "steals",
            "resplits",
            "cubes_executed",
            "archive_delta_bytes",
            "archive_dedup_skips",
        ):
            assert serialized[key] == getattr(stats, key)
        for entry in stats.per_worker:
            assert {"steals", "delta_bytes", "dedup_skips"} <= set(entry)
        json.dumps(serialized)

    def test_dedup_skips_count_foreign_reofferings(self):
        explorer = ExactParetoExplorer(encode(curated("auto_engine")))
        assert explorer.inject_points([((3, 3, 3), None)]) == 1
        # The same vector re-offered is skipped by hash, not re-compared.
        assert explorer.inject_points([((3, 3, 3), None)]) == 0
        assert explorer.dedup_skips == 1


#: (models, conflicts, steals) of the isolated and the shared inline run
#: (the fig10 ablation).  The inline backend replays one trajectory, so
#: these are exact and do not depend on ``PYTHONHASHSEED``.
SHARING_WORK = {
    ("consumer_jpeg", 2): ((12, 168, 4), (9, 157, 3)),
    ("consumer_jpeg", 4): ((29, 219, 7), (8, 175, 1)),
    ("network_firewall", 2): ((54, 2906, 1), (54, 2643, 1)),
    ("network_firewall", 4): ((84, 4190, 6), (59, 3359, 5)),
}


class TestArchiveSharing:
    """Shared archives prune across workers; the front stays exact."""

    @pytest.mark.parametrize("name, jobs", sorted(SHARING_WORK))
    def test_sharing_work_is_pinned(self, name, jobs, sequential_fronts):
        work = {}
        for share in (False, True):
            result = ParallelParetoExplorer(
                encode(curated(name)),
                jobs=jobs,
                backend="inline",
                share_archive=share,
            ).run()
            stats = result.statistics
            assert not stats.interrupted
            assert result.vectors() == sequential_fronts[name], share
            work[share] = (stats.models_enumerated, stats.conflicts, stats.steals)
        assert (work[False], work[True]) == SHARING_WORK[name, jobs]
        # Sharing never enumerates more models than isolation ...
        assert work[True][0] <= work[False][0]
        # ... and idle workers steal at four workers.
        if jobs == 4:
            assert work[False][2] > 0 and work[True][2] > 0

    @pytest.mark.parametrize("hash_seed", ("0", "12345"))
    def test_inline_work_ignores_the_hash_seed(self, hash_seed):
        script = (
            "import json\n"
            "from repro.dse.parallel import ParallelParetoExplorer\n"
            "from repro.synthesis.encoding import encode\n"
            "from repro.workloads.curated import curated\n"
            "work = []\n"
            "for share in (False, True):\n"
            "    stats = ParallelParetoExplorer(\n"
            "        encode(curated('consumer_jpeg')), jobs=4,\n"
            "        backend='inline', share_archive=share,\n"
            "    ).run().statistics\n"
            "    work.append(\n"
            "        [stats.models_enumerated, stats.conflicts, stats.steals]\n"
            "    )\n"
            "print(json.dumps(work))\n"
        )
        source = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (source, env.get("PYTHONPATH")))
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        isolated, shared = json.loads(completed.stdout)
        assert (tuple(isolated), tuple(shared)) == SHARING_WORK[
            "consumer_jpeg", 4
        ]


class TestProcessPaths:
    """The process backend's budget, cancel, re-split and fault paths.

    Every run must leave no worker process behind.
    """

    def test_budget_halts_every_worker(self):
        stats = (
            ParallelParetoExplorer(
                encode(curated("network_firewall")), jobs=2, conflict_limit=300
            )
            .run()
            .statistics
        )
        assert stats.interrupted
        assert len(stats.per_worker) == 2
        for entry in stats.per_worker:
            assert entry["interrupted"]
            assert entry["conflicts"] <= 300
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("polls", (1, 3))
    def test_cancel_returns_sound_streamed_points(self, polls):
        spec = curated("network_firewall")
        instance = encode(spec)
        streamed = set()
        asked = []

        def should_stop():
            asked.append(None)
            return len(asked) > polls

        result = ParallelParetoExplorer(instance, jobs=2).run(
            on_points=lambda batch: streamed.update(map(tuple, batch)),
            should_stop=should_stop,
        )
        assert result.statistics.interrupted
        vectors = result.vectors()
        assert not any(dominates(a, b) for a in vectors for b in vectors)
        for point in result.front:
            implementation = point.implementation
            assert validate(
                spec,
                implementation,
                serialized=instance.serialize,
                link_contention=instance.link_contention,
            ) == []
            recomputed = recompute_objectives(spec, implementation)
            assert tuple(recomputed[name] for name in result.objectives) == (
                point.vector
            )
        assert set(vectors) <= streamed
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("share", (True, False))
    def test_resplits_stay_exact(self, share, sequential_fronts):
        result = ParallelParetoExplorer(
            encode(curated("network_firewall")),
            jobs=2,
            split_depth=1,
            chunk_conflicts=25,
            resplit_conflicts=50,
            share_archive=share,
        ).run()
        stats = result.statistics
        assert not stats.interrupted
        assert stats.resplits > 0
        assert stats.cubes_executed > len(
            derive_cubes(curated("network_firewall"), 1)
        )
        # The parent relays points only between sharing workers.
        injected = sum(entry["injected"] for entry in stats.per_worker)
        assert (injected > 0) == share
        assert result.vectors() == sequential_fronts["network_firewall"]
        assert multiprocessing.active_children() == []

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched step reaches the workers only by fork",
    )
    @pytest.mark.parametrize("fault", ("raise", "exit"))
    def test_worker_fault_aborts_the_run(self, fault, monkeypatch):
        # The workers are forked, so each inherits the patched step and
        # a fresh count: every worker fails on its fourth solver call.
        step = ExactParetoExplorer.step
        calls = []

        def faulty(self):
            calls.append(None)
            if len(calls) > 3:
                if fault == "raise":
                    raise ValueError("injected fault")
                os._exit(7)
            return step(self)

        monkeypatch.setattr(ExactParetoExplorer, "step", faulty)
        expected = "injected fault" if fault == "raise" else r"died \(exit code 7\)"
        with pytest.raises(RuntimeError, match=expected):
            ParallelParetoExplorer(encode(curated("network_firewall")), jobs=2).run()
        assert multiprocessing.active_children() == []


class TestConflictBudget:
    """``conflict_limit`` caps the conflicts each worker spends in a run.

    Every solver call gets ``min(chunk_conflicts, remaining budget)``;
    network_firewall needs 1559 conflicts sequentially.
    """

    def test_sequential_budget_interrupts_within_the_limit(self):
        stats = explore(
            curated("network_firewall"), conflict_limit=1000
        ).statistics
        assert stats.interrupted
        assert stats.conflicts <= 1000

    @pytest.mark.parametrize("chunk", (200, None))
    def test_every_worker_stays_within_the_limit(self, chunk):
        stats = (
            ParallelParetoExplorer(
                encode(curated("network_firewall")),
                jobs=2,
                backend="inline",
                conflict_limit=300,
                chunk_conflicts=chunk,
            )
            .run()
            .statistics
        )
        assert stats.interrupted
        assert len(stats.per_worker) == 2
        assert all(entry["conflicts"] <= 300 for entry in stats.per_worker)


class TestOneLoop:
    """Sequential exploration is the one-worker, one-cube loop."""

    def test_sequential_run_builds_one_control(self, monkeypatch):
        from repro.asp.control import Control

        built = []
        original = Control.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(Control, "__init__", counting)
        ExactParetoExplorer(encode(curated("auto_engine"))).run()
        assert len(built) == 1

    def test_sequential_statistics_describe_one_worker(self):
        stats = ExactParetoExplorer(encode(curated("auto_engine"))).run().statistics
        assert stats.cubes_executed == 1
        assert stats.steals == stats.resplits == 0
        assert stats.archive_delta_bytes == 0  # no one to publish to
        (entry,) = stats.per_worker
        assert entry["conflicts"] == stats.conflicts
        assert entry["models_enumerated"] == stats.models_enumerated

    def test_one_job_is_the_sequential_explorer(self):
        sequential = ExactParetoExplorer(encode(curated("telecom_modem"))).run()
        one_job = ParallelParetoExplorer(
            encode(curated("telecom_modem")), jobs=1, backend="process"
        ).run()
        assert one_job.to_dict()["front"] == sequential.to_dict()["front"]
        assert one_job.statistics.conflicts == sequential.statistics.conflicts
