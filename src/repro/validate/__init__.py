"""Whole-program translation validation for the Figure-7 compiler.

The metatheory suite checks the Simulation theorem on *random L terms*;
this package checks it on *your program*: every step the L evaluator
takes is compiled and discharged as a joinability obligation against the
next step's compilation, and the machine's final answer is compared with
the evaluator's (agreement on ⊥ included).  The first obligation that
fails is reported with its step index — a per-program counterexample,
not a batch statistic.

Entry points:

* :func:`validate_term` — validate an already-lowered L expression;
* :func:`validate_check` / :func:`validate_paths` — validate surface
  modules, files and project directories (``python -m repro validate``);
* the fuzz harness discharges obligations for every fragment program in
  the corpus (see docs/VALIDATION.md).
"""

from .alignment import Obligation, ValidationReport, validate_term
from .runner import validate_check, validate_paths

__all__ = [
    "Obligation",
    "ValidationReport",
    "validate_check",
    "validate_paths",
    "validate_term",
]
