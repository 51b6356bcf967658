"""The levity-polymorphism restrictions of Section 5.1.

The paper's fundamental requirement is::

    Never move or store a levity-polymorphic value.   (*)

which is enforced by two checks performed *after* type inference:

1. **Disallow levity-polymorphic binders.**  Every bound term variable must
   have a type whose kind is fixed (``TYPE υ`` for a concrete ``υ``) and free
   of representation variables.
2. **Disallow levity-polymorphic function arguments.**  Arguments are passed
   in registers, so the register class must be known when compiling the call.

This module centralises those checks so that the core calculus L, the surface
type checker, and the dictionary translation all enforce exactly the same
discipline.  The checks are deliberately *syntactic on kinds*: one never asks
whether a levity-polymorphic type "happens to" be lifted — the question is
meaningless (Section 8.2, "We cannot always tell whether a type is lifted").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from .errors import LevityPolymorphicArgument, LevityPolymorphicBinder
from .kinds import Kind, TypeKind


@dataclass(frozen=True)
class LevityViolation:
    """A single violation of the Section 5.1 restrictions."""

    kind_of_violation: str  # "binder" or "argument"
    description: str
    offending_kind: Optional[Kind] = None
    #: Source span of the offending binder/argument site, when the caller
    #: recorded one (a :class:`repro.frontend.lexer.Span`; kept loosely
    #: typed so the core calculus stays frontend-independent).
    span: Optional[object] = None

    def pretty(self) -> str:
        where = ("A levity-polymorphic binder"
                 if self.kind_of_violation == "binder"
                 else "A levity-polymorphic function argument")
        kind_info = ""
        if self.offending_kind is not None:
            kind_info = f" (kind: {self.offending_kind.pretty()})"
        return f"{where} is not allowed: {self.description}{kind_info}"


def kind_is_fixed(kind: Kind) -> bool:
    """Is ``kind`` of the form ``TYPE υ`` with ``υ`` concrete?

    This is the paper's requirement on the kinds of binders and function
    arguments: the highlighted premises ``Γ ⊢ τ : TYPE υ`` in rules E_APP
    and E_LAM of Figure 3.
    """
    return isinstance(kind, TypeKind) and kind.rep.is_concrete()


def check_binder_kind(kind: Kind, what: str = "bound variable") -> None:
    """Enforce restriction 1: a binder's kind must be fixed.

    Raises :class:`LevityPolymorphicBinder` when the kind either is not of
    the form ``TYPE r`` at all, or mentions a representation variable.
    """
    if not isinstance(kind, TypeKind):
        raise LevityPolymorphicBinder(
            f"{what} must have a value kind (TYPE r), got {kind.pretty()}")
    if not kind.rep.is_concrete():
        raise LevityPolymorphicBinder(
            f"{what} has a levity-polymorphic type: its kind "
            f"{kind.pretty()} mentions representation variable(s) "
            f"{sorted(kind.rep.free_rep_vars())}")


def check_argument_kind(kind: Kind, what: str = "function argument") -> None:
    """Enforce restriction 2: an argument's kind must be fixed."""
    if not isinstance(kind, TypeKind):
        raise LevityPolymorphicArgument(
            f"{what} must have a value kind (TYPE r), got {kind.pretty()}")
    if not kind.rep.is_concrete():
        raise LevityPolymorphicArgument(
            f"{what} is levity-polymorphic: its kind {kind.pretty()} "
            f"mentions representation variable(s) "
            f"{sorted(kind.rep.free_rep_vars())}")


@dataclass
class LevityChecker:
    """Collecting checker used by the desugarer-style post-inference pass.

    GHC performs the levity checks in the desugarer, after all unification
    variables have been solved (Section 8.2).  The surface pipeline in
    :mod:`repro.infer.levity_check` mirrors that: it walks the elaborated
    program, calling :meth:`check_binder` / :meth:`check_argument`, which
    collect every violation in ``violations``.
    """

    violations: List[LevityViolation] = field(default_factory=list)

    def check_binder(self, kind: Kind, description: str) -> bool:
        """Check a binder; return True when it is acceptable."""
        try:
            check_binder_kind(kind, description)
            return True
        except LevityPolymorphicBinder as exc:
            self.violations.append(LevityViolation("binder", str(exc), kind))
            return False

    def check_argument(self, kind: Kind, description: str) -> bool:
        """Check a function argument; return True when it is acceptable."""
        try:
            check_argument_kind(kind, description)
            return True
        except LevityPolymorphicArgument as exc:
            self.violations.append(
                LevityViolation("argument", str(exc), kind))
            return False
