"""CLI: a small clingo-like front-end for the ASP(mT) substrate.

Usage::

    python -m repro.asp program.lp [more.lp ...] [--models N]
    echo "{a;b}. :- a, b." | python -m repro.asp - --models 0
    python -m repro.asp sched.lp --theory          # enable &dom/&sum/&diff
    python -m repro.asp weighted.lp --opt          # run #minimize
    python -m repro.asp lint program.lp --format=json   # static analysis

Prints models clingo-style (``Answer: k`` lines) and a final
SATISFIABLE / UNSATISFIABLE / OPTIMUM FOUND verdict; exits 0 when
satisfiable, 1 when not.  A program that does not parse or ground
prints one error line to stderr (``file:line:column: message`` for a
parse error) and exits 2.  The ``lint`` subcommand runs the static
analyzer instead (see ``docs/LINT.md``) and exits non-zero on
error-severity diagnostics.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from typing import List, Optional

from repro.asp.control import Control
from repro.asp.grounder import GroundingError
from repro.asp.parser import ParseError


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "lint":
        from repro.analysis.cli import lint_main

        return lint_main(argv[1:])
    parser = argparse.ArgumentParser(prog="repro.asp", description=__doc__)
    parser.add_argument("files", nargs="+", help="program files ('-' for stdin)")
    parser.add_argument(
        "--models", "-n", type=int, default=1, help="models to enumerate (0 = all)"
    )
    parser.add_argument(
        "--theory",
        action="store_true",
        help="register the linear + difference-logic theory propagators",
    )
    parser.add_argument(
        "--opt", action="store_true", help="optimize #minimize statements"
    )
    parser.add_argument(
        "--opt-strategy",
        choices=("bb", "oll"),
        default="bb",
        help="optimization algorithm: branch-and-bound or core-guided",
    )
    parser.add_argument(
        "--budget", type=int, default=None, help="conflict limit per solve"
    )
    parser.add_argument(
        "--stats", action="store_true", help="print solver statistics"
    )
    parser.add_argument(
        "--lint",
        action="store_true",
        help="run the static analyzer before grounding (warnings to stderr)",
    )
    parser.add_argument(
        "--project",
        action="store_true",
        help="enumerate distinct #show projections only",
    )
    parser.add_argument(
        "--const",
        "-c",
        action="append",
        default=[],
        metavar="NAME=VALUE",
        help="override a #const (repeatable)",
    )
    args = parser.parse_args(argv)

    control = Control()
    control.conflict_limit = args.budget
    # One source name per Control part, for locating parse errors.
    sources = []
    for path in args.files:
        control.load(path)
        sources.append("<stdin>" if path == "-" else path)
    # Overrides come last: for duplicate #const names the last wins.
    for override in args.const:
        name, _, value = override.partition("=")
        if not name or not value:
            parser.error(f"malformed --const {override!r}")
        control.add(f"#const {name} = {value}.")
        sources.append(f"--const {override}")
    if args.theory:
        from repro.theory import DifferenceLogicPropagator, LinearPropagator

        control.register_propagator(LinearPropagator())
        control.register_propagator(DifferenceLogicPropagator())
    try:
        with warnings.catch_warnings(record=True) as findings:
            warnings.simplefilter("always")
            try:
                control.ground(lint=args.lint)
            finally:
                # Lint findings are located in their own file already.
                for finding in findings:
                    print(finding.message, file=sys.stderr)
    except ParseError as error:
        print(
            f"{sources[error.part]}:{error.line}:{error.column}: {error.message}",
            file=sys.stderr,
        )
        return 2
    except GroundingError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.opt:
        result = control.optimize(strategy=args.opt_strategy)
        if not result.satisfiable:
            print("UNSATISFIABLE")
            return 1
        print(f"Answer: 1\n{result.model}")
        print(f"Optimization: {' '.join(map(str, result.costs))}")
        print("INTERRUPTED" if result.interrupted else "OPTIMUM FOUND")
        return 0

    count = 0

    def on_model(model) -> None:
        nonlocal count
        count += 1
        print(f"Answer: {count}")
        print(model)
        if model.theory.get("ints"):
            values = " ".join(
                f"{name}={value}"
                for name, value in sorted(
                    model.theory["ints"].items(), key=lambda kv: str(kv[0])
                )
            )
            print(f"Theory: {values}")

    summary = control.solve(
        on_model=on_model, models=args.models, project=args.project
    )
    print("SATISFIABLE" if summary.satisfiable else "UNSATISFIABLE")
    if args.stats:
        stats = control.statistics
        print(
            f"Conflicts: {stats.conflicts}  Decisions: {stats.decisions}  "
            f"Restarts: {stats.restarts}  Learned: {stats.learned}"
        )
        print(
            f"Propagations: {stats.propagations}  "
            f"Clause DB: {stats.clause_db_bytes} bytes"
        )
        grounding = control.ground_program.grounding
        if grounding is not None:
            print(
                f"Grounding: {control.grounding_seconds:.3f}s  "
                f"Instantiations: {grounding.instantiations}  "
                f"Delta rounds: {grounding.delta_rounds}"
                + ("  (cache hit)" if control.ground_cache_hit else "")
            )
        if control.lint_report is not None:
            report = control.lint_report
            print(
                f"Lint: {control.lint_seconds:.3f}s  "
                f"Errors: {report.errors}  Warnings: {report.warnings}  "
                f"Infos: {report.infos}"
            )
    return 0 if summary.satisfiable else 1


if __name__ == "__main__":
    sys.exit(main())
