"""The budgeted differential fuzzing driver.

One *budget unit* is one generated input (seed = base seed + index)
run through every active oracle of its kind.  Failures become
:class:`Finding` records; with shrinking enabled each finding is
minimised by :mod:`repro.fuzz.shrinker` and persisted as a reproducer
(:mod:`repro.fuzz.corpus`).  Per-oracle throughput (inputs/sec) is
tracked for ``BENCH_fuzz.json``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.fuzz.corpus import write_reproducer
from repro.fuzz.generators import (
    ProgramInput,
    SpecInput,
    generate_program,
    generate_spec,
    input_kind,
)
from repro.fuzz.oracles import Divergence, Oracle, Skip, select_oracles
from repro.fuzz.shrinker import shrink_program, shrink_spec

__all__ = ["Finding", "FuzzHarness", "FuzzReport", "OracleStats"]


@dataclass
class OracleStats:
    """Effort counters of one oracle across a fuzzing run."""

    inputs: int = 0
    skips: int = 0
    failures: int = 0
    seconds: float = 0.0

    @property
    def inputs_per_second(self) -> float:
        return self.inputs / self.seconds if self.seconds > 0 else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "inputs": self.inputs,
            "skips": self.skips,
            "failures": self.failures,
            "seconds": round(self.seconds, 6),
            "inputs_per_second": round(self.inputs_per_second, 3),
        }


@dataclass
class Finding:
    """One crash or divergence, plus its (optional) minimised form."""

    seed: int
    oracle: str
    failure: str  # "divergence" | "crash"
    message: str
    input: Union[ProgramInput, SpecInput]
    shrunk: Optional[Union[ProgramInput, SpecInput]] = None
    reproducer: Optional[Path] = None

    @property
    def seed_line(self) -> str:
        """The replay command for this finding."""
        line = (
            f"python -m repro.fuzz --seed {self.seed} --budget 1 "
            f"--oracle {self.oracle}"
        )
        if self.input.kind == "spec":
            line += f"  (instance: python -m repro.dse --fuzz-replay {self.seed})"
        return line

    def to_dict(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "seed": self.seed,
            "oracle": self.oracle,
            "failure": self.failure,
            "message": self.message,
            "kind": self.input.kind,
            "seed_line": self.seed_line,
        }
        if self.shrunk is not None and isinstance(self.shrunk, ProgramInput):
            out["shrunk_program"] = self.shrunk.text
        if self.shrunk is not None and isinstance(self.shrunk, SpecInput):
            out["shrunk_summary"] = self.shrunk.specification.summary()
        if self.reproducer is not None:
            out["reproducer"] = str(self.reproducer)
        return out


@dataclass
class FuzzReport:
    """Everything one :meth:`FuzzHarness.run` produced."""

    budget: int
    base_seed: int
    findings: List[Finding] = field(default_factory=list)
    oracle_stats: Dict[str, OracleStats] = field(default_factory=dict)
    wall_time: float = 0.0
    inputs: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> Dict[str, object]:
        return {
            "budget": self.budget,
            "seed": self.base_seed,
            "inputs": self.inputs,
            "wall_time": round(self.wall_time, 3),
            "ok": self.ok,
            "findings": [finding.to_dict() for finding in self.findings],
            "oracles": {
                name: stats.to_dict()
                for name, stats in self.oracle_stats.items()
            },
        }


class FuzzHarness:
    """Drives generators and oracles under a fixed input budget."""

    def __init__(
        self,
        oracles: Optional[Sequence[str]] = None,
        base_seed: int = 0,
        shrink: bool = False,
        corpus_dir: Union[str, Path, None] = None,
        shrink_checks: int = 200,
    ):
        self.oracles: List[Oracle] = select_oracles(oracles)
        self.base_seed = base_seed
        self.shrink = shrink
        self.corpus_dir = Path(corpus_dir) if corpus_dir else None
        self.shrink_checks = shrink_checks
        self._kinds = {oracle.kind for oracle in self.oracles}
        if not self._kinds:
            raise ValueError("no oracles selected")

    # -- input scheduling ---------------------------------------------------

    def _input_for(self, seed: int):
        """The input owned by ``seed``, restricted to the active kinds."""
        if self._kinds == {"spec"}:
            return generate_spec(seed)
        if self._kinds == {"program"}:
            return generate_program(seed)
        if input_kind(seed) == "spec":
            return generate_spec(seed)
        return generate_program(seed)

    # -- driving ------------------------------------------------------------

    def run(self, budget: int, on_finding=None) -> FuzzReport:
        """Fuzz ``budget`` inputs; returns the full report."""
        report = FuzzReport(budget=budget, base_seed=self.base_seed)
        report.oracle_stats = {o.name: OracleStats() for o in self.oracles}
        started = time.perf_counter()
        for index in range(budget):
            seed = self.base_seed + index
            input = self._input_for(seed)
            report.inputs += 1
            for finding in self.check_input(input, report.oracle_stats):
                if self.shrink:
                    self._shrink_finding(finding)
                report.findings.append(finding)
                if on_finding is not None:
                    on_finding(finding)
        report.wall_time = time.perf_counter() - started
        return report

    def check_input(
        self,
        input: Union[ProgramInput, SpecInput],
        stats: Optional[Dict[str, OracleStats]] = None,
    ) -> List[Finding]:
        """Run ``input`` through every kind-compatible active oracle."""
        findings: List[Finding] = []
        for oracle in self.oracles:
            if oracle.kind != input.kind:
                continue
            entry = None if stats is None else stats[oracle.name]
            started = time.perf_counter()
            try:
                oracle.check(input)
            except Skip:
                if entry:
                    entry.skips += 1
            except Divergence as divergence:
                findings.append(
                    Finding(
                        seed=input.seed,
                        oracle=oracle.name,
                        failure="divergence",
                        message=str(divergence),
                        input=input,
                    )
                )
                if entry:
                    entry.failures += 1
            except Exception as error:  # noqa: BLE001 — crashes are findings
                findings.append(
                    Finding(
                        seed=input.seed,
                        oracle=oracle.name,
                        failure="crash",
                        message=f"{type(error).__name__}: {error}",
                        input=input,
                    )
                )
                if entry:
                    entry.failures += 1
            finally:
                if entry:
                    entry.inputs += 1
                    entry.seconds += time.perf_counter() - started
        return findings

    # -- shrinking ----------------------------------------------------------

    def _still_fails(self, oracle: Oracle, failure: str):
        """A predicate matching the original failure class."""

        def predicate(candidate) -> bool:
            try:
                oracle.check(candidate)
            except Skip:
                return False
            except Divergence:
                return failure == "divergence"
            except Exception:
                return failure == "crash"
            return False

        return predicate

    def _shrink_finding(self, finding: Finding) -> None:
        oracle = next(o for o in self.oracles if o.name == finding.oracle)
        predicate = self._still_fails(oracle, finding.failure)
        try:
            if isinstance(finding.input, ProgramInput):
                text = shrink_program(
                    finding.input.text,
                    lambda t: predicate(replace(finding.input, text=t)),
                    max_checks=self.shrink_checks,
                )
                finding.shrunk = replace(finding.input, text=text)
            else:
                finding.shrunk = shrink_spec(
                    finding.input, predicate, max_checks=self.shrink_checks
                )
        except ValueError:
            # Flaky failure (did not reproduce at shrink time): keep the
            # original input as the reproducer.
            finding.shrunk = finding.input
        if self.corpus_dir is not None:
            finding.reproducer = write_reproducer(
                self.corpus_dir,
                finding.oracle,
                finding.shrunk,
                description=(
                    f"{finding.failure}: {finding.message} "
                    f"(fuzz seed {finding.seed})"
                ),
            )
