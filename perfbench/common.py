"""Paths and input loading shared by the benchmark's scripts.

The benchmark runs from a plain checkout: it imports the package from
``src/`` next to this directory and never installs anything.
"""

from __future__ import annotations

import json
import os
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
#: Result records, trace span files and scratch files of runs.
OUT = ROOT / ".perfbench_out"

CURATED = (
    "consumer_jpeg",
    "telecom_modem",
    "auto_engine",
    "network_firewall",
    "mesh_symmetric",
)

#: Requests per serve_mixed pass: every pool spec once, plus as many
#: repeats (half of them renamed isomorphic twins).
SERVE_REPEATS = 150


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark (missing sources or data)."""


def use_source() -> None:
    """Make ``import repro`` resolve to the checkout's ``src/``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no package sources under {SRC}")
    if not GOLDEN.is_file():
        raise SetupError(f"missing golden fronts {GOLDEN}")
    path = str(SRC)
    if path not in sys.path:
        sys.path.insert(0, path)
    existing = os.environ.get("PYTHONPATH", "")
    if path not in existing.split(os.pathsep):
        os.environ["PYTHONPATH"] = path + (os.pathsep + existing if existing else "")


def child_env() -> dict:
    """Environment for child interpreters (same sources, same hashing)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_golden() -> dict:
    with GOLDEN.open() as handle:
        return json.load(handle)


def front_key(vectors) -> list:
    """Canonical form of a front for equality checks: sorted lists."""
    return sorted(list(vector) for vector in vectors)


def rename_spec(data: dict, tag: str) -> dict:
    """An isomorphic twin of a specification dict: every task, resource
    and link gets a new name whose prefix scrambles the name order."""
    app, arch = data["application"], data["architecture"]

    def task_name(task):
        return task if isinstance(task, str) else task["name"]

    tasks = {
        task_name(task): f"{tag}t{i}_{task_name(task)}"
        for i, task in enumerate(reversed(app["tasks"]))
    }
    resources = {
        res["name"]: f"{tag}r{i}_{res['name']}"
        for i, res in enumerate(reversed(arch["resources"]))
    }
    return {
        **data,
        "application": {
            "tasks": [
                tasks[task] if isinstance(task, str) else {**task, "name": tasks[task["name"]]}
                for task in app["tasks"]
            ],
            "messages": [
                {
                    **message,
                    "source": tasks[message["source"]],
                    "target": tasks[message["target"]],
                    "extra_targets": [tasks[t] for t in message["extra_targets"]],
                }
                for message in app["messages"]
            ],
        },
        "architecture": {
            "resources": [{**res, "name": resources[res["name"]]} for res in arch["resources"]],
            "links": [
                {
                    **link,
                    "name": f"{tag}l{i}_{link['name']}",
                    "source": resources[link["source"]],
                    "target": resources[link["target"]],
                }
                for i, link in enumerate(arch["links"])
            ],
        },
        "mappings": [
            {**option, "task": tasks[option["task"]], "resource": resources[option["resource"]]}
            for option in data["mappings"]
        ],
    }


def serve_stream(golden: dict, seed: int) -> list:
    """The seeded serve_mixed request stream over the checked-in pool.

    Every pool entry appears once and ``SERVE_REPEATS`` entries a second
    time; half of the repeats are renamed isomorphic twins.  The seed
    picks the repeats, the renaming tags and the order, so every seed
    asks for the same amount of solving.  Each item is
    ``(pool_index, renamed_tag_or_None)``.
    """
    rng = random.Random(f"perfbench-serve-{seed}")
    pool = golden["serve_pool"]
    stream = [(index, None) for index in range(len(pool))]
    for index in rng.sample(range(len(pool)), min(SERVE_REPEATS, len(pool))):
        tag = f"x{rng.randrange(3)}" if rng.random() < 0.5 else None
        stream.append((index, tag))
    rng.shuffle(stream)
    return stream
