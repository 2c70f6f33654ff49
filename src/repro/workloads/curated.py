"""Curated realistic instances (E3S-style application domains).

The embedded-synthesis literature evaluates on domain benchmarks in the
style of the E3S suite (EEMBC-derived task graphs: consumer, telecom,
automotive, networking, office).  The numbers here are original but
follow the same structure: a handful of pipeline-plus-branch task
graphs per domain, heterogeneous processors with domain-typical
strengths, and bus or mesh interconnects.

Use :func:`curated_instances` for the full set or :func:`curated` for a
single one by name.
"""

from __future__ import annotations

from typing import Dict, List

from repro.synthesis.model import (
    Application,
    Architecture,
    Link,
    MappingOption,
    Message,
    Resource,
    Specification,
    Task,
)
from repro.workloads.generator import NamedInstance, WorkloadConfig

__all__ = ["curated", "curated_instances", "CURATED_NAMES"]

CURATED_NAMES = (
    "consumer_jpeg",
    "telecom_modem",
    "auto_engine",
    "network_firewall",
    "mesh_symmetric",
)


def _bus_platform(pes: List[Resource], delay: int = 1, energy: int = 1):
    hub = Resource("bus", cost=2)
    links = []
    for pe in pes:
        links.append(Link(f"l_{pe.name}_tx", pe.name, "bus", delay=delay, energy=energy))
        links.append(Link(f"l_{pe.name}_rx", "bus", pe.name, delay=delay, energy=energy))
    return Architecture(tuple(pes) + (hub,), tuple(links))


def _mappings(table: Dict[str, Dict[str, tuple]]) -> tuple:
    options = []
    for task, per_pe in table.items():
        for pe, (wcet, energy) in per_pe.items():
            options.append(MappingOption(task, pe, wcet=wcet, energy=energy))
    return tuple(options)


def _consumer_jpeg() -> Specification:
    """JPEG encoder: RGB->YCbCr, DCT, quantize, RLE, Huffman, out.

    Platform: a RISC core, a DSP (great at DCT/quant), and a small
    microcontroller, on a shared bus.
    """
    stages = ["rgb2ycc", "dct", "quant", "rle", "huffman", "out"]
    application = Application(
        tasks=tuple(Task(s) for s in stages),
        messages=tuple(
            Message(f"j{i}", a, b, size=2 if i < 3 else 1)
            for i, (a, b) in enumerate(zip(stages, stages[1:]))
        ),
    )
    pes = [
        Resource("risc", cost=40),
        Resource("dsp", cost=55),
        Resource("mcu", cost=12),
    ]
    table = {
        "rgb2ycc": {"risc": (3, 5), "dsp": (3, 6), "mcu": (7, 3)},
        "dct": {"risc": (9, 14), "dsp": (3, 7), "mcu": (22, 12)},
        "quant": {"risc": (4, 6), "dsp": (2, 4), "mcu": (9, 5)},
        "rle": {"risc": (2, 3), "mcu": (5, 2)},
        "huffman": {"risc": (4, 6), "mcu": (10, 5)},
        "out": {"risc": (1, 2), "mcu": (2, 1)},
    }
    return Specification(application, _bus_platform(pes), _mappings(table))


def _telecom_modem() -> Specification:
    """Modem receive path with a parallel monitoring branch.

    Platform: two DSPs and a RISC on a bus; the FFT/equalizer stages are
    DSP-bound, the framing/monitoring stages general-purpose.
    """
    application = Application(
        tasks=tuple(
            Task(s)
            for s in ["frontend", "fft", "equalize", "demap", "deframe", "monitor"]
        ),
        messages=(
            Message("m0", "frontend", "fft", size=3),
            Message("m1", "fft", "equalize", size=3),
            Message("m2", "equalize", "demap", size=2),
            Message("m3", "demap", "deframe", size=1),
            # The equalizer's statistics feed a monitoring task too.
            Message("m4", "equalize", "monitor", size=1),
        ),
    )
    pes = [
        Resource("dsp_a", cost=50),
        Resource("dsp_b", cost=50),
        Resource("risc", cost=35),
    ]
    table = {
        "frontend": {"dsp_a": (2, 4), "dsp_b": (2, 4), "risc": (4, 5)},
        "fft": {"dsp_a": (4, 8), "dsp_b": (4, 8), "risc": (13, 16)},
        "equalize": {"dsp_a": (5, 9), "dsp_b": (5, 9), "risc": (11, 13)},
        "demap": {"dsp_a": (2, 4), "dsp_b": (2, 4), "risc": (3, 4)},
        "deframe": {"risc": (2, 3), "dsp_a": (4, 7)},
        "monitor": {"risc": (3, 3)},
    }
    return Specification(application, _bus_platform(pes), _mappings(table))


def _auto_engine() -> Specification:
    """Engine control: sensor fusion fans out to ignition/injection/diag.

    Platform: lockstep safety core (expensive, mandatory-capable),
    a standard core, and a cheap I/O controller on a bus.
    """
    application = Application(
        tasks=tuple(
            Task(s)
            for s in ["sample", "fuse", "ignite", "inject", "diag", "actuate"]
        ),
        messages=(
            Message("a0", "sample", "fuse", size=2),
            Message("a1", "fuse", "ignite", size=1),
            Message("a2", "fuse", "inject", size=1),
            Message("a3", "fuse", "diag", size=1),
            Message("a4", "ignite", "actuate", size=1),
            Message("a5", "inject", "actuate", size=1),
        ),
    )
    pes = [
        Resource("lockstep", cost=70),
        Resource("core", cost=30),
        Resource("ioctrl", cost=10),
    ]
    table = {
        # The lockstep core is also the fastest: paying its cost buys
        # latency, which is exactly the trade-off the front exposes.
        "sample": {"ioctrl": (2, 1), "core": (1, 2)},
        "fuse": {"lockstep": (2, 6), "core": (4, 4)},
        "ignite": {"lockstep": (1, 4), "core": (3, 3)},
        "inject": {"lockstep": (1, 4), "core": (3, 3)},
        "diag": {"core": (4, 4), "ioctrl": (9, 3)},
        "actuate": {"ioctrl": (1, 1), "lockstep": (1, 2)},
    }
    return Specification(application, _bus_platform(pes), _mappings(table))


def _network_firewall() -> Specification:
    """Packet-processing pipeline: rx through crypto/QoS to tx.

    Platform: two symmetric NPUs, a general-purpose RISC core, and a
    crypto accelerator on a bus.  Ten stages with many two-way and
    three-way mapping choices make this the largest curated design space
    — the stress instance for the parallel explorer.
    """
    stages = [
        "rx", "parse", "classify", "nat", "lookup",
        "acl", "crypto", "qos", "shape", "tx",
    ]
    application = Application(
        tasks=tuple(Task(s) for s in stages),
        messages=tuple(
            Message(f"n{i}", a, b, size=2 if i in (0, 1, 6) else 1)
            for i, (a, b) in enumerate(zip(stages, stages[1:]))
        ),
    )
    pes = [
        Resource("npu_a", cost=60),
        Resource("npu_b", cost=60),
        Resource("risc", cost=30),
        Resource("cryptoacc", cost=45),
    ]
    table = {
        "rx":       {"npu_a": (1, 2), "npu_b": (1, 2), "risc": (2, 2)},
        "parse":    {"npu_a": (2, 4), "npu_b": (2, 4), "risc": (5, 5)},
        "classify": {"npu_a": (3, 6), "npu_b": (3, 6), "risc": (7, 8)},
        "nat":      {"npu_a": (2, 4), "npu_b": (2, 4), "risc": (4, 4)},
        "lookup":   {"npu_a": (2, 5), "npu_b": (2, 5), "risc": (6, 6)},
        "acl":      {"npu_a": (2, 4), "risc": (4, 5)},
        "crypto":   {"cryptoacc": (2, 3), "npu_a": (8, 14), "risc": (15, 18)},
        "qos":      {"npu_b": (2, 4), "risc": (4, 4)},
        "shape":    {"npu_b": (2, 3), "risc": (3, 3)},
        "tx":       {"npu_a": (1, 2), "npu_b": (1, 2), "risc": (2, 2)},
    }
    return Specification(application, _bus_platform(pes), _mappings(table))


def _mesh_symmetric() -> Specification:
    """Sensor chain on a 3x3 mesh of *identical* tiles.

    The canonical symmetry showcase: every tile has the same cost and
    the same per-task WCET/energy, and the mesh links are uniform, so
    the platform's automorphism group is the full D4 of the grid (order
    8) with orbits {corners, edge midpoints, center}.  Without symmetry
    breaking (``symmetry="off"``) the solver re-proves every placement
    once per grid symmetry; the deadlines (``sense`` by 3, ``emit``
    end-to-end by 10) make distributed placements route-sensitive, so
    the unbroken search does real work that the default lex-leader
    constraints then cut by roughly 4x in conflicts and 5x in feasible
    models; see ``tests/test_symmetry.py`` and ``docs/SYMMETRY.md``.
    """
    application = Application(
        tasks=(
            Task("sense", deadline=3),
            Task("proc"),
            Task("emit", deadline=10),
        ),
        messages=(
            Message("s0", "sense", "proc", size=1),
            Message("s1", "proc", "emit", size=1),
        ),
    )
    pes = [Resource(f"tile{x}{y}", cost=6) for y in range(3) for x in range(3)]
    links: List[Link] = []

    def name(x: int, y: int) -> str:
        return f"tile{x}{y}"

    for y in range(3):
        for x in range(3):
            for dx, dy in ((1, 0), (0, 1)):
                nx, ny = x + dx, y + dy
                if nx < 3 and ny < 3:
                    links.append(
                        Link(f"m{x}{y}_{nx}{ny}", name(x, y), name(nx, ny), delay=1, energy=1)
                    )
                    links.append(
                        Link(f"m{nx}{ny}_{x}{y}", name(nx, ny), name(x, y), delay=1, energy=1)
                    )
    table = {
        "sense": {pe.name: (2, 1) for pe in pes},
        "proc": {pe.name: (4, 3) for pe in pes},
        "emit": {pe.name: (2, 1) for pe in pes},
    }
    return Specification(
        application, Architecture(tuple(pes), tuple(links)), _mappings(table)
    )


_BUILDERS = {
    "consumer_jpeg": _consumer_jpeg,
    "telecom_modem": _telecom_modem,
    "auto_engine": _auto_engine,
    "network_firewall": _network_firewall,
    "mesh_symmetric": _mesh_symmetric,
}


def curated(name: str) -> Specification:
    """One curated instance by name (see :data:`CURATED_NAMES`)."""
    builder = _BUILDERS.get(name)
    if builder is None:
        raise KeyError(f"unknown curated instance {name!r}; have {CURATED_NAMES}")
    return builder()


def curated_instances() -> List[NamedInstance]:
    """All curated instances wrapped like generator suites."""
    out = []
    for name in CURATED_NAMES:
        spec = curated(name)
        if name == "mesh_symmetric":
            config = WorkloadConfig(
                tasks=len(spec.application.tasks),
                seed=0,
                platform="mesh",
                platform_size=(3, 3),
            )
        else:
            config = WorkloadConfig(
                tasks=len(spec.application.tasks),
                seed=0,
                platform="bus",
                platform_size=(len(spec.architecture.resources) - 1, 0),
            )
        out.append(NamedInstance(name, config, spec))
    return out
