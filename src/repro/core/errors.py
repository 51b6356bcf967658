"""Exception hierarchy shared across the repro packages.

The library distinguishes three broad families of failures:

* :class:`LevityError` and its subclasses — violations of the levity
  polymorphism discipline of Section 5.1 of the paper (binding or passing a
  value whose runtime representation is not fixed).
* :class:`TypeCheckError` — ordinary type or kind errors in either the core
  calculus L, the surface language, or the sub-kinding baseline.
* :class:`EvaluationError` / :class:`MachineError` — runtime failures of the
  L small-step semantics, the M machine, or the cost-model runtime.

Keeping these in one module lets every sub-package raise the same exception
types, so tests and downstream users can catch them uniformly.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library.

    ``span`` is an optional source location (a
    :class:`repro.frontend.lexer.Span`) attached by layers that know where
    the offending syntax came from — the inference engine sets it to the
    span of the offending *sub-expression* when one is on record, so the
    driver's diagnostics can point at the identifier or argument rather
    than the whole binding.
    """

    #: Optional source span (set post-construction by span-aware callers).
    span = None


class TypeCheckError(ReproError):
    """A type or kind error (ill-typed term, ill-kinded type, and so on)."""


class KindError(TypeCheckError):
    """A kind mismatch or an ill-formed kind."""


class LevityError(TypeCheckError):
    """Violation of the levity-polymorphism restrictions (Section 5.1)."""


class LevityPolymorphicBinder(LevityError):
    """A bound term variable has a levity-polymorphic type.

    Restriction 1 of Section 5.1: every bound term variable must have a type
    whose kind is fixed and free of representation variables.
    """


class LevityPolymorphicArgument(LevityError):
    """A function argument has a levity-polymorphic type.

    Restriction 2 of Section 5.1: arguments are passed in registers, so the
    register class (and width) must be known at compile time.
    """


class UnificationError(TypeCheckError):
    """Two types, kinds or representations could not be unified."""


class OccursCheckError(UnificationError):
    """A unification variable occurs inside the type it would be bound to."""


class ScopeError(TypeCheckError):
    """An out-of-scope variable, type variable or representation variable."""


class ParseError(ReproError):
    """A lexical or syntactic error in surface-language source text."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        #: The error text without the ``line:column:`` prefix that
        #: ``str(exc)`` carries when the position is known.
        self.message = message
        self.line = line
        self.column = column
        super().__init__(f"{line}:{column}: {message}" if line else message)


class EvaluationError(ReproError):
    """The L small-step semantics or the cost-model runtime got stuck."""


class MachineError(ReproError):
    """The M machine reached a state with no applicable transition rule."""


class CompilationError(ReproError):
    """The L-to-M compiler could not produce code.

    The Compilation theorem (Section 6.3) guarantees this never happens for
    well-typed L programs; encountering it signals an ill-typed input or a
    bug.
    """


class InstanceResolutionError(TypeCheckError):
    """No type-class instance (dictionary) could be found for a constraint."""


class PatternError(EvaluationError):
    """A case expression failed to match its scrutinee."""
