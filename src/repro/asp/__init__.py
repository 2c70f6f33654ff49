"""Answer set programming substrate.

This subpackage is a from-scratch, pure-Python reimplementation of the
solving stack the paper builds on (clingo 5 with its theory-propagator
interface):

* :mod:`repro.asp.syntax` -- ground symbols (function terms, numbers,
  strings) and helper constructors.
* :mod:`repro.asp.ast` -- non-ground program AST (rules, aggregates,
  theory atoms).
* :mod:`repro.asp.parser` -- tokenizer and recursive-descent parser for an
  ASP-like input language.
* :mod:`repro.asp.grounder` -- safe-rule instantiation by a fixpoint over
  possibly-true atoms.
* :mod:`repro.asp.ground` -- ground-program representation, dependency
  graph, strongly connected components and tightness analysis.
* :mod:`repro.asp.completion` -- Clark completion and translation of the
  ground program to clauses (including pseudo-Boolean aggregates).
* :mod:`repro.asp.flatsolver` -- the conflict-driven nogood-learning
  (CDNL) engine over flat arrays: two-watched-literal propagation, 1-UIP
  learning, VSIDS, restarts and the propagator interface.
* :mod:`repro.asp.solver` -- the same CDNL search over clause objects,
  kept as the reference the solver tests and the ``solver-core`` fuzz
  oracle compare the engine against.
* :mod:`repro.asp.unfounded` -- unfounded-set propagation for non-tight
  programs.
* :mod:`repro.asp.propagator` -- clingo-style ``Propagator`` protocol used
  by the theory and dominance propagators.
* :mod:`repro.asp.control` -- the high-level facade tying everything
  together (mirrors ``clingo.Control``).
* :mod:`repro.asp.naive` -- brute-force answer-set enumeration used as a
  test oracle.
"""

from repro.asp.control import Control
from repro.asp.syntax import Function, Number, String, Symbol

__all__ = ["Control", "Function", "Number", "String", "Symbol"]
