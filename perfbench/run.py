"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload curated_seq --seed 0 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  Every
front is checked against ``perfbench/golden.json``; any failed
operation makes the command exit 1.  The last line of standard output
is one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``);
a readable table and the environment come before it, and the full
record is written to ``.perfbench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from collections import defaultdict
from statistics import geometric_mean, median, quantiles
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import HERE, OUT, ROOT, SRC, SetupError, child_env, use_source  # noqa: E402

WORKLOAD_NAMES = ("curated_seq", "firewall_par2", "serve_mixed")

#: Fewest passes a run makes, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Fresh processes timed for ``setup_s`` (the median is reported).
SETUP_PROBES = 5


def metric_units() -> tuple:
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise SetupError(f"missing {path}")
    spec = json.loads(path.read_text())
    return tuple({m["name"]: m["unit"] for m in spec[key]} for key in ("end_to_end", "per_layer"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-probe",
        action="store_true",
        help="only do the workload's set-up and exit (timed by the parent run)",
    )
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "loadavg": list(os.getloadavg()),
        "commit": git_commit(),
        "source_digest": source_digest(),
    }


# ---------------------------------------------------------------------------
# Set-up probes
# ---------------------------------------------------------------------------


def setup_probe(workload: str, seed: int) -> int:
    from workloads import WORKLOADS

    WORKLOADS[workload]().prepare(seed)
    return 0


def time_setup(workload: str, seed: int) -> list:
    """Wall seconds of fresh processes doing imports, inputs and golden load."""
    times = []
    command = [
        sys.executable,
        str(HERE / "run.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--setup-probe",
    ]
    for _probe in range(SETUP_PROBES):
        started = perf_counter()
        completed = subprocess.run(
            command, env=child_env(), cwd=str(ROOT), capture_output=True, timeout=120
        )
        if completed.returncode != 0:
            raise SetupError(f"set-up probe failed: {completed.stderr.decode()[-500:]}")
        times.append(perf_counter() - started)
    return times


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def layer_values(workload: str, sample, seconds, calls, counts, wall, ground_hits) -> dict:
    """One traced pass's per-layer numbers."""
    c = sample.counters
    parallel = workload == "firewall_par2"
    models = c.get("models_enumerated", 0)
    values = {
        "encoding.s": seconds.get("synthesis.encoding", 0.0),
        "encoding.calls": calls.get("synthesis.encoding", 0),
        "encoding.program_bytes": counts.get("encoding.program_bytes", 0),
        "analysis.admit_s": seconds.get("analysis.admit", 0.0),
        "analysis.estimate_s": seconds.get("analysis.estimate", 0.0),
        "analysis.canonical_s": seconds.get("analysis.canonical", 0.0),
        "analysis.domains_s": seconds.get("analysis.domains", 0.0),
        "parser.s": seconds.get("asp.parser", 0.0),
        "parser.calls": calls.get("asp.parser", 0),
        "grounder.s": seconds.get("asp.grounder", 0.0),
        "grounder.instantiations": counts.get("grounder.instantiations", 0),
        "grounder.ground_rules": counts.get("grounder.ground_rules", 0),
        "grounder.cache_hits": ground_hits,
        "dependency.s": seconds.get("asp.dependency", 0.0),
        "completion.s": seconds.get("asp.completion", 0.0),
        "completion.calls": calls.get("asp.completion", 0),
        # Worker processes are forked, so their spans stay in the workers:
        # firewall_par2 takes solver-side times from DseStatistics.per_worker.
        "solver.bool_s": c.get("worker_bool_s", 0.0) if parallel else seconds.get("asp.flatsolver", 0.0),
        "solver.conflicts": c.get("conflicts", 0),
        "solver.decisions": c.get("decisions", 0),
        "solver.propagations": c.get("propagations", 0),
        "solver.restarts": c.get("restarts", 0),
        "solver.clause_db_bytes": c.get("clause_db_bytes", 0),
        "theory.linear_s": c.get("worker_theory_s", 0.0) if parallel else seconds.get("theory.linear", 0.0),
        "theory.linear_calls": calls.get("theory.linear", 0),
        "unfounded.s": seconds.get("asp.unfounded", 0.0),
        "unfounded.calls": calls.get("asp.unfounded", 0),
        "dominance.s": c.get("worker_dominance_s", 0.0) if parallel else seconds.get("dse.dominance", 0.0),
        "dominance.pruned_partial": c.get("pruned_partial", 0),
        "dominance.pruned_total": c.get("pruned_total", 0),
        "dominance.useful_ratio": c.get("pareto_points", 0) / models if models else 0.0,
        "archive.comparisons": c.get("archive_comparisons", 0),
        "solution.decode_s": seconds.get("solution.decode", 0.0),
        "solution.validate_s": seconds.get("solution.validate", 0.0),
        "solution.models": models,
        "parallel.cubes": c.get("cubes_executed", 0),
        "parallel.steals": c.get("steals", 0),
        "parallel.resplits": c.get("resplits", 0),
        "parallel.delta_bytes": c.get("archive_delta_bytes", 0),
        "parallel.dedup_skips": c.get("archive_dedup_skips", 0),
        "parallel.worker_busy_s": c.get("worker_busy_s", 0.0),
        "parallel.worker_idle_s": c.get("worker_idle_s", 0.0),
        "serve.hit_ratio": c["hits"] / c["requests"] if c.get("requests") else 0.0,
        "serve.solves": c.get("solves", 0),
        "serve.accept_ms": median(sample.accept_ms) if sample.accept_ms else 0.0,
        "serve.queue_solve_ms": median(sample.queue_solve_ms) if sample.queue_solve_ms else 0.0,
        "serve.snapshots": c.get("snapshots", 0),
        "serve.hit_p50_ms": median(sample.hit_ms) if sample.hit_ms else 0.0,
        "serve.p95_ms": percentile(all_latencies(sample), 0.95) if c.get("requests") else 0.0,
        "explorer.s": seconds.get("dse.explorer", 0.0),
        "control.s": seconds.get("asp.control", 0.0),
        "parallel.s": seconds.get("dse.parallel", 0.0),
        "scheduler.s": seconds.get("dse.scheduler", 0.0),
        "serve.cache_s": seconds.get("serve.cache", 0.0),
        "bench.verify_s": seconds.get("bench.verify", 0.0),
        "trace.unattributed_s": seconds.get("unattributed", 0.0),
        "trace.coverage": 1.0 - seconds.get("unattributed", 0.0) / wall if wall else 0.0,
    }
    return values


def all_latencies(sample) -> list:
    return [ms for _input, ms in sample.solve_ms] + sample.hit_ms


def solve_by_input(passes) -> dict:
    """Median solve latency (ms) of each distinct input over ``passes``."""
    latencies = defaultdict(list)
    for sample in passes:
        for key, ms in sample.solve_ms:
            latencies[key].append(ms)
    return {key: median(values) for key, values in sorted(latencies.items())}


def percentile(values, fraction: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def trace_pass(workload: str, sample, tracer) -> dict:
    """Attribute a traced pass's spans and derive its per-layer numbers."""
    from tracer import attribute, load_spans

    if sample.trace_path is not None:  # serve_mixed: spans of the server child
        spans, extra = load_spans(sample.trace_path)
        counts = extra.get("counts", {})
        ground_hits = sample.counters.get("ground_cache_hits", 0)
    else:
        from repro.asp.control import ground_cache_info

        spans = tracer.take()
        counts = tracer.take_counts()
        ground_hits = ground_cache_info()["hits"]
    seconds, calls, wall = attribute(spans, [sample.window])
    sample.layers = seconds
    return layer_values(workload, sample, seconds, calls, counts, wall, ground_hits)


def spread(values) -> dict:
    if len(values) >= 2:
        q1, q2, q3 = quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(run, workload: str, setup_times: list) -> dict:
    untraced = [p for p in run.passes if not p.traced]
    setup = median(setup_times)
    if run.server_start_s:
        setup += median(run.server_start_s)
    per_input = solve_by_input(untraced)
    solves = sum(len(p.solve_ms) for p in untraced)
    return {
        "setup_s": (setup, len(setup_times)),
        "peak_rss_mb": (run.peak_rss_mb, 1),
        "pass_s": (median(p.wall_s for p in untraced), len(untraced)),
        "pass_cpu_s": (median(p.cpu_s for p in untraced), len(untraced)),
        "solve_ms": (geometric_mean(per_input.values()) if per_input else 0.0, solves),
    }


def named_views(run, workload: str) -> list:
    """The named end-to-end views (explore_*, serve_*) with sample counts."""
    untraced = [p for p in run.passes if not p.traced]
    failed_frac = run.failed / run.attempted if run.attempted else 1.0
    rows = [("failed_frac", failed_frac, "ratio", run.attempted)]
    if workload == "serve_mixed":
        latencies = [ms for p in untraced for ms in all_latencies(p)]
        hits = [ms for p in untraced for ms in p.hit_ms]
        misses = [ms for p in untraced for _input, ms in p.solve_ms]
        requests = sum(len(all_latencies(p)) for p in untraced)
        seconds = sum(p.wall_s for p in untraced)
        rows += [
            ("serve_rps", requests / seconds if seconds else 0.0, "1/s", len(untraced)),
            ("serve_p50_ms", percentile(latencies, 0.5), "ms", len(latencies)),
            ("serve_p95_ms", percentile(latencies, 0.95), "ms", len(latencies)),
            ("serve_miss_p50_ms", percentile(misses, 0.5), "ms", len(misses)),
            ("serve_hit_p50_ms", percentile(hits, 0.5), "ms", len(hits)),
        ]
    else:
        rows += [
            ("explore_s", median(p.wall_s for p in untraced), "s", len(untraced)),
            ("explore_cpu_s", median(p.cpu_s for p in untraced), "s", len(untraced)),
        ]
    return rows


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------


def check_names(values: dict, units: dict) -> None:
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(units))}"
        )


def refuse_overrides() -> list:
    return sorted(key for key in os.environ if key.startswith("REPRO_"))


def main(argv=None) -> int:
    args = parse_args(argv)
    overrides = refuse_overrides()
    if overrides:
        print(
            f"refusing to measure with non-default settings: {', '.join(overrides)}",
            file=sys.stderr,
        )
        return 2
    try:
        use_source()
        if args.setup_probe:
            return setup_probe(args.workload, args.seed)
        OUT.mkdir(exist_ok=True)
        return measure(args)
    except SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2


def measure(args) -> int:
    from tracer import Tracer
    from workloads import WORKLOADS, RunResult

    end_to_end_units, per_layer_units = metric_units()
    env = environment()
    tracer = Tracer()
    if args.trace:
        from layers import install

        install(tracer)
    workload = WORKLOADS[args.workload]()
    workload.prepare(args.seed)
    run = RunResult()
    layer_samples = []
    deadline = perf_counter() + args.seconds
    while True:
        gc.collect()
        traced = bool(args.trace) and len(run.passes) % 2 == 1
        tracer.enabled = traced
        try:
            sample = workload.run_pass(run, tracer)
        finally:
            tracer.enabled = False
        sample.traced = traced
        if traced:
            layer_samples.append(trace_pass(args.workload, sample, tracer))
        run.passes.append(sample)
        if perf_counter() >= deadline and len(run.passes) >= MIN_PASSES:
            break
    workload.finish(run)
    setup_times = time_setup(args.workload, args.seed)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "passes": [
            {
                "wall_s": p.wall_s,
                "cpu_s": p.cpu_s,
                "traced": p.traced,
                "counters": p.counters,
                "layers": p.layers,
            }
            for p in run.passes
        ],
        "setup_probes_s": setup_times,
        "server_start_s": run.server_start_s,
        "solve_ms_by_input": solve_by_input(p for p in run.passes if not p.traced),
        "instance_counters": run.instance_counters,
    }
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run.passes)} passes, {run.attempted} operations, {run.failed} failed")
    print("environment: " + json.dumps(env, sort_keys=True))
    for problem in run.problems:
        print(f"FAILED {problem}")
    if run.instance_counters:
        reference = getattr(workload, "reference", {})
        for name, counters in sorted(run.instance_counters.items()):
            drift = "" if reference.get(name) == counters else f"  (reference {reference.get(name)})"
            print(f"counters {name}: {json.dumps(counters, sort_keys=True)}{drift}")

    metrics = {}
    if args.trace:
        untraced = [p.wall_s for p in run.passes if not p.traced]
        traced = [p.wall_s for p in run.passes if p.traced]
        samples = {name: [sample[name] for sample in layer_samples] for name in layer_samples[0]}
        samples["trace.overhead_frac"] = [median(traced) / median(untraced) - 1.0]
        check_names(samples, per_layer_units)
        summary = {name: spread(samples[name]) for name in per_layer_units}
        record["per_layer"] = summary
        for name, unit in per_layer_units.items():
            row = summary[name]
            metrics[name] = {"value": row["median"], "unit": unit}
            print(f"  {name:28s} {row['median']:14.6g} {unit:6s} (n={row['n']}, q1 {row['q1']:.6g}, q3 {row['q3']:.6g})")
        first = next(p for p in run.passes if p.traced)
        print(f"self time by span, first traced pass (wall {first.wall_s:.4f} s):")
        for name, value in sorted(first.layers.items(), key=lambda item: -item[1]):
            print(f"  {name:28s} {value:10.4f} s  {value / first.wall_s:7.2%}")
        print(f"  {'sum':28s} {sum(first.layers.values()):10.4f} s")
    else:
        values = end_to_end(run, args.workload, setup_times)
        check_names(values, end_to_end_units)
        for name, unit in end_to_end_units.items():
            value, count = values[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name:20s} {value:12.6g} {unit:5s} (n={count})")
        for name, value, unit, count in named_views(run, args.workload):
            print(f"  {name:20s} {value:12.6g} {unit:5s} (n={count})")
        record["end_to_end"] = {name: {"value": values[name][0], "n": values[name][1]} for name in end_to_end_units}
    record["metrics"] = metrics
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}.json"
    path.write_text(json.dumps(record, sort_keys=True) + "\n")
    print(f"record: {path.relative_to(ROOT)}")
    correct = run.failed == 0 and run.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
