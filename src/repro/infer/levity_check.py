"""The post-inference levity-polymorphism check (Sections 5.1 and 8.2).

GHC performs the two Section 5.1 checks **after** type inference is
complete, in the desugarer, once all unification variables have been solved
(and the types zonked).  This module mirrors that architecture:

* during inference, the engine records every λ/let binder and every function
  argument it elaborates, together with the (possibly not-yet-zonked) type
  it assigned;
* after inference and defaulting, :func:`check_records` zonks each recorded
  type, computes its kind, and applies the two restrictions using the shared
  :class:`repro.core.levity.LevityChecker`.

Keeping the records around (rather than raising eagerly) matches the paper's
observation that the check "can be easily performed after type inference is
complete" and gives far better error messages than failing mid-unification.

The inferencer runs the check once per top-level binding, over the records
of the whole binding, its local ``let`` bindings included.  A ``let`` is not
checked on its own: its binders may get their representations only from
code after it, as ``z`` gets ``IntRep`` from ``y +# 1#`` in
``f x = let y = (\\z -> z) x in y +# 1#``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Union

from ..core.errors import KindError, TypeCheckError
from ..core.kinds import Kind
from ..core.levity import LevityChecker, LevityViolation, kind_is_fixed
from ..surface.ast import Expr
from ..surface.types import SType, kind_of_type
from .unify import UnifierState


@dataclass(frozen=True)
class LevityRecord:
    """One place where the Section 5.1 restrictions must be verified."""

    kind_of_site: str      # "binder" or "argument"
    #: A binder's description (e.g. "lambda binder 'x'"), or an argument
    #: site's expression, which :meth:`description` renders only for a
    #: site that fails the check.
    subject: Union[str, Expr]
    type: SType
    #: Source span of the recorded site (the sub-expression, when the
    #: inference engine had one on record), threaded onto any violation.
    span: Optional[object] = None

    def description(self) -> str:
        if self.kind_of_site == "binder":
            return self.subject
        return f"argument {self.subject.pretty()!r} of an application"


@dataclass
class LevityCheckReport:
    """The outcome of the desugarer-style post-pass."""

    violations: List[LevityViolation] = field(default_factory=list)
    checked_sites: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def pretty(self) -> str:
        if self.ok:
            return (f"levity check passed on {self.checked_sites} "
                    "binder/argument sites")
        lines = [f"levity check failed ({len(self.violations)} violation(s)):"]
        lines.extend("  " + v.pretty() for v in self.violations)
        return "\n".join(lines)


def kind_of_zonked(state: UnifierState, type_: SType) -> Kind:
    """Zonk ``type_`` and compute its kind (also zonked)."""
    zonked = state.zonk_type(type_)
    kind = kind_of_type(zonked)
    return state.zonk_kind(kind)


def check_records(state: UnifierState,
                  records: List[LevityRecord]) -> LevityCheckReport:
    """Run the two Section 5.1 checks over all recorded sites, gathering
    every violation into the report.

    A site's description is rendered only when the site fails.
    """
    checker = LevityChecker()
    report = LevityCheckReport()
    for record in records:
        report.checked_sites += 1
        try:
            kind = kind_of_zonked(state, record.type)
        except (KindError, TypeCheckError) as exc:
            # A site whose type does not even kind-check is reported as a
            # binder violation so the caller sees a single failure channel.
            report.violations.append(
                LevityViolation(record.kind_of_site,
                                f"{record.description()}: {exc}", None,
                                record.span))
            continue
        if kind_is_fixed(kind):
            continue
        seen = len(checker.violations)
        if record.kind_of_site == "binder":
            checker.check_binder(kind, record.description())
        else:
            checker.check_argument(kind, record.description())
        if record.span is not None:
            # Stamp this record's span onto the violations it produced.
            checker.violations[seen:] = [
                dataclasses.replace(violation, span=record.span)
                for violation in checker.violations[seen:]]
    report.violations.extend(checker.violations)
    return report
