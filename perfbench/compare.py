"""Compare benchmark records of a parent and a change.

Usage::

    python3 perfbench/compare.py PARENT CHANGE

``PARENT`` and ``CHANGE`` are directories (or single files) of the
records ``run.py`` writes to ``.perfbench_out/``; make both sides with
the same benchmark code, ``--seconds`` and seeds.  For every workload
and end-to-end metric it prints each side's median and quartiles over
runs and a verdict under the bounds in ``BENCHMARK.json``:

* ``worse``: the change's median is worse than the parent's by more than
  the bound;
* ``better``: it is better by more than the parent's own quartile
  spread, and the change wins at least nine tenths of the seed-paired
  runs;
* ``unresolved``: either side spreads wider than the bound, unless every
  change run beats every parent run;
* ``unchanged``: otherwise.

Per-layer medians of the traced records follow each workload's rows,
with their relative delta.  Per-instance work counters of curated_seq
are checked for drift across the runs of each side.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import quantiles

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = []
    for file in files:
        try:
            record = json.loads(file.read_text())
        except (OSError, ValueError):
            continue
        if isinstance(record, dict) and "workload" in record and "metrics" in record:
            records.append(record)
    return records


def summary(values: list) -> tuple:
    if len(values) >= 2:
        q1, q2, q3 = quantiles(values, n=4)
    else:
        q1 = q2 = q3 = values[0]
    return q1, q2, q3


def verdict(parent: dict, change: dict, better: str, bound: float) -> str:
    """``parent``/``change`` map seed -> value."""
    p1, p2, p3 = summary(list(parent.values()))
    c1, c2, c3 = summary(list(change.values()))
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (c2 - p2) / p2 if p2 else 0.0
    if worsening > bound:
        return "worse"
    p_spread = (p3 - p1) / p2 if p2 else 0.0
    c_spread = (c3 - c1) / c2 if c2 else 0.0
    if sign > 0:
        dominated = max(change.values()) < min(parent.values())
    else:
        dominated = min(change.values()) > max(parent.values())
    if (p_spread > bound or c_spread > bound) and not dominated:
        return "unresolved"
    paired = [seed for seed in parent if seed in change and parent[seed] != change[seed]]
    wins = sum(1 for seed in paired if sign * (change[seed] - parent[seed]) < 0)
    if -worsening > p_spread and paired and wins >= 0.9 * len(paired):
        return "better"
    return "unchanged"


def by_seed(records: list, workload: str, trace: int, metric: str) -> dict:
    return {
        record["seed"]: record["metrics"][metric]["value"]
        for record in records
        if record["workload"] == workload
        and record["trace"] == trace
        and metric in record["metrics"]
    }


def counter_drift(records: list) -> list:
    """Instances whose curated_seq counters differ between runs."""
    seen = {}
    drift = []
    for record in records:
        for name, counters in record.get("instance_counters", {}).items():
            first = seen.setdefault(name, counters)
            if counters != first and name not in drift:
                drift.append(name)
    return drift


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = (load(Path(arg)) for arg in argv)
    if not parent or not change:
        print("no benchmark records found on one side", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    header = f"{'workload':14s} {'metric':24s} {'parent median [q1, q3] (n)':36s} {'change median [q1, q3] (n)':36s} verdict"
    print(header)
    print("-" * len(header))
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = by_seed(parent, workload, 0, name)
            c = by_seed(change, workload, 0, name)
            if not p or not c:
                continue
            cells = []
            for side in (p, c):
                q1, q2, q3 = summary(list(side.values()))
                cells.append(f"{q2:.5g} [{q1:.5g}, {q3:.5g}] ({len(side)})")
            print(
                f"{workload:14s} {name:24s} {cells[0]:36s} {cells[1]:36s} "
                f"{verdict(p, c, metric['better'], metric['bound'])}"
            )
        for metric in spec["per_layer"]:
            name = metric["name"]
            p = by_seed(parent, workload, 1, name)
            c = by_seed(change, workload, 1, name)
            if not p or not c:
                continue
            pm = summary(list(p.values()))[1]
            cm = summary(list(c.values()))[1]
            if pm == 0 and cm == 0:
                continue
            delta = f"{(cm - pm) / pm:+.1%}" if pm else "new"
            print(f"{'':14s}   {name:24s} {pm:<34.5g} {cm:<36.5g} {delta}")
        for side, records in (("parent", parent), ("change", change)):
            drift = counter_drift([r for r in records if r["workload"] == workload])
            if drift:
                print(f"{'':14s}   counter drift across {side} runs: {', '.join(drift)}")
        if workload == "curated_seq":
            p_counts = next((r["instance_counters"] for r in parent if r["workload"] == workload), {})
            c_counts = next((r["instance_counters"] for r in change if r["workload"] == workload), {})
            for name in sorted(set(p_counts) & set(c_counts)):
                if p_counts[name] != c_counts[name]:
                    print(f"{'':14s}   counters {name}: {p_counts[name]} -> {c_counts[name]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
