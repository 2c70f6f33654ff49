"""Write ``golden.json``: exact fronts from an independent oracle.

One-off generator, run by hand and checked in; the timed runs only read
its output.  Every front comes from
:func:`repro.baselines.exhaustive.exhaustive_front`, which enumerates
every model of the encoding and Pareto-filters afterwards, without the
dominance propagator the explorers rely on.

The file holds:

* ``curated``: the exact front of each curated instance (default
  objectives) plus reference work counters of a default sequential
  ``explore()`` run (a base for later count comparisons);
* ``serve_pool``: the distinct admissible specifications the
  ``serve_mixed`` stream draws from, stored in full so the pool does
  not depend on the fuzz generator staying unchanged, each with its
  objectives, encode options and exact front.

Usage (takes a few minutes; network_firewall alone has ~17.5k models)::

    python3 perfbench/gen_golden.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import CURATED, GOLDEN, SRC  # noqa: E402

sys.path.insert(0, str(SRC))

from repro.analysis.canonical import canonical_digest  # noqa: E402
from repro.asp.control import clear_ground_cache  # noqa: E402
from repro.baselines.exhaustive import exhaustive_front  # noqa: E402
from repro.dse.explorer import explore  # noqa: E402
from repro.fuzz.generators import generate_spec  # noqa: E402
from repro.serve.admission import admit  # noqa: E402
from repro.synthesis.encoding import encode  # noqa: E402
from repro.synthesis.io import specification_to_dict  # noqa: E402
from repro.workloads.curated import curated  # noqa: E402
from workloads import GATED_COUNTERS  # noqa: E402

#: Distinct specifications in the serve pool.
POOL_SIZE = 150
#: Keeps each served solve small, so the stream exercises the front end.
MAX_BINDING_SPACE = 64
#: Oracle budget per pool candidate; candidates it cannot finish are skipped.
POOL_CONFLICT_LIMIT = 200_000


def curated_entry(name: str) -> dict:
    spec = curated(name)
    started = time.perf_counter()
    oracle = exhaustive_front(encode(spec))
    if not oracle.exact:
        raise RuntimeError(f"oracle interrupted on {name}")
    clear_ground_cache()
    stats = explore(spec).statistics
    print(
        f"{name}: {len(oracle.front)} points from {oracle.models_enumerated} "
        f"models in {time.perf_counter() - started:.1f}s",
        flush=True,
    )
    return {
        "objectives": list(oracle.objectives),
        "front": [list(vector) for vector in oracle.vectors()],
        "oracle_models": oracle.models_enumerated,
        "reference_counters": {key: getattr(stats, key) for key in GATED_COUNTERS},
    }


def serve_pool() -> list:
    pool = []
    seen = set()
    candidate = 0
    while len(pool) < POOL_SIZE:
        spec_input = generate_spec(candidate)
        fuzz_seed = candidate
        candidate += 1
        spec = spec_input.specification
        if spec.binding_space_size() > MAX_BINDING_SPACE:
            continue
        if not admit(spec, spec_input.objectives).admitted:
            continue
        key = (canonical_digest(spec), spec_input.objectives, spec_input.latency_bound)
        if key in seen:
            continue
        instance = encode(
            spec,
            objectives=spec_input.objectives,
            latency_bound=spec_input.latency_bound,
        )
        oracle = exhaustive_front(instance, conflict_limit=POOL_CONFLICT_LIMIT)
        if not oracle.exact:
            continue
        seen.add(key)
        pool.append(
            {
                "fuzz_seed": fuzz_seed,
                "spec": specification_to_dict(spec),
                "objectives": list(spec_input.objectives),
                "options": {"latency_bound": spec_input.latency_bound},
                "front": [list(vector) for vector in oracle.vectors()],
                "oracle_models": oracle.models_enumerated,
            }
        )
    print(f"serve pool: {len(pool)} specs from {candidate} candidates", flush=True)
    return pool


def main() -> int:
    golden = {
        "oracle": "repro.baselines.exhaustive.exhaustive_front",
        "serve_pool": serve_pool(),
        "curated": {name: curated_entry(name) for name in CURATED},
    }
    GOLDEN.write_text(json.dumps(golden, sort_keys=True, separators=(",", ":")) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
