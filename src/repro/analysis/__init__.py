"""Static analysis for ASP programs and synthesis specifications.

The package provides a rule-based linter that runs over the parsed AST
*before* grounding (``repro.analysis.linter``), an abstract domain
analyzer inferring per-argument constant sets/intervals/shapes that
drives the linter's domain checks and serve admission's work estimate
(``repro.analysis.domains``, see ``docs/DOMAINS.md``), a
grounder-equivalent variable-safety analysis
(``repro.analysis.safety``), a
specification/objective validator for the synthesis layer
(``repro.analysis.spec``), and a platform symmetry analyzer — a
colored-graph automorphism engine (``repro.analysis.graph``) plus
lex-leader constraint synthesis over ``bind/2`` atoms
(``repro.analysis.symmetry``, see ``docs/SYMMETRY.md``), and a
renaming-invariant specification canonicalizer powering the serving
layer's result cache (``repro.analysis.canonical``, see
``docs/SERVING.md``).  Findings are
structured
:class:`~repro.analysis.diagnostics.Diagnostic` values suitable for
text or JSON output and CI gating; see ``docs/LINT.md`` for the rule
catalogue and suppression syntax.

Entry points::

    python -m repro.asp lint file.lp --format=json
    python -m repro.dse --lint

    from repro.analysis import lint_text
    report = lint_text(open("encoding.lp").read())
    assert report.errors == 0
"""

from repro.analysis.canonical import (
    CanonicalSpec,
    canonical_digest,
    canonicalize_specification,
    invert_name_map,
    remap_front_entry,
)
from repro.analysis.diagnostics import (
    Diagnostic,
    LintError,
    LintReport,
    Severity,
    SourceSpan,
)
from repro.analysis.domains import (
    Dom,
    DomainAnalysis,
    analyze_program,
    analyze_rules,
    canonical_rule,
)
from repro.analysis.graph import AutomorphismGroup, ColoredGraph, automorphism_group
from repro.analysis.linter import RULES, LintConfig, Linter, lint_files, lint_text
from repro.analysis.safety import SafetyViolation, rule_safety_violations
from repro.analysis.spec import SPEC_RULES, lint_instance, validate_specification
from repro.analysis.symmetry import (
    PlatformSymmetry,
    SymmetryInfo,
    analyze_specification,
    lex_leader_program,
)

__all__ = [
    "Diagnostic",
    "LintError",
    "LintReport",
    "Severity",
    "SourceSpan",
    "RULES",
    "SPEC_RULES",
    "LintConfig",
    "Linter",
    "lint_files",
    "lint_text",
    "SafetyViolation",
    "rule_safety_violations",
    "lint_instance",
    "validate_specification",
    "AutomorphismGroup",
    "ColoredGraph",
    "automorphism_group",
    "PlatformSymmetry",
    "SymmetryInfo",
    "analyze_specification",
    "lex_leader_program",
    "Dom",
    "DomainAnalysis",
    "analyze_program",
    "analyze_rules",
    "canonical_rule",
    "CanonicalSpec",
    "canonical_digest",
    "canonicalize_specification",
    "invert_name_map",
    "remap_front_entry",
]
