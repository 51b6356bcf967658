"""The legacy (OpenKind) behaviour of ``error`` and friends (Section 3.3).

Under the old design, ``error`` was given the *magical* type
``forall (a :: OpenKind). String -> a`` so that calls like
``error "boom" :: Int#`` were accepted despite the Instantiation Principle.
The magic was fragile: a user-written wrapper::

    myError :: String -> a
    myError s = error ("Program error " ++ s)

got the inferred type ``forall (a :: Type). String -> a`` — the OpenKind was
lost, and ``myError`` could no longer be used at an unlifted type.

This module models exactly that behaviour so the E6 benchmark can put the
two designs side by side:

* :class:`LegacySignature` — a type with a legacy kind for its quantified
  variable (``OpenKind`` for the blessed built-ins, ``Type`` for everything
  the user writes);
* :func:`legacy_instantiation_ok` — may a legacy signature be instantiated
  at a given type?
* :func:`legacy_infer_wrapper_kind` — what kind does the quantified variable
  of a *user-written* wrapper get?  (Always ``Type``: inference never
  produces ``OpenKind``.)
* :func:`describe_error_message` — the embarrassing ``OpenKind`` leaking
  into an error message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.errors import TypeCheckError
from ..surface.types import SType
from .kinds import HASH, LegacyKind, OPEN_KIND, STAR, is_subkind_of, legacy_kind_of


@dataclass(frozen=True)
class LegacySignature:
    """A (schematic) legacy type ``forall (a :: k). ... a ...``."""

    name: str
    quantified_kind: LegacyKind
    magical: bool = False  # True only for compiler-blessed built-ins

    def pretty(self) -> str:
        return (f"{self.name} :: forall (a :: "
                f"{self.quantified_kind.pretty()}). ... a ...")


#: The compiler-blessed legacy signature of ``error``.
LEGACY_ERROR = LegacySignature("error", OPEN_KIND, magical=True)
#: ``undefined`` enjoyed the same special case.
LEGACY_UNDEFINED = LegacySignature("undefined", OPEN_KIND, magical=True)
#: ``($)`` was special-cased in the type checker rather than the kind.
LEGACY_DOLLAR = LegacySignature("$", OPEN_KIND, magical=True)


def legacy_instantiation_ok(signature: LegacySignature,
                            at_type: SType) -> bool:
    """May the legacy signature be instantiated at ``at_type``?

    The quantified variable's kind must be a super-kind of the instantiation
    type's kind.  With ``OpenKind`` everything is allowed; with ``Type`` only
    lifted types are.
    """
    return is_subkind_of(legacy_kind_of(at_type), signature.quantified_kind)


def legacy_infer_wrapper_kind(wraps: LegacySignature) -> LegacySignature:
    """Infer the legacy signature of a user-written wrapper around ``wraps``.

    The old inference engine never generalised to ``OpenKind`` (doing so
    would have required principled sub-kind inference, which GHC did not
    have), so the wrapper's quantified variable gets kind ``Type`` and the
    magic is lost — the paper's ``myError`` example.
    """
    return LegacySignature(f"user wrapper around {wraps.name}", STAR,
                           magical=False)


def describe_error_message(signature: LegacySignature,
                           at_type: SType) -> str:
    """The kind-mismatch message, with OpenKind embarrassingly on display."""
    return (f"Couldn't match kind '{signature.quantified_kind.pretty()}' "
            f"with '{legacy_kind_of(at_type).pretty()}' arising from a use "
            f"of '{signature.name}' at type '{at_type.pretty()}'")


def legacy_restrictions() -> Dict[str, str]:
    """The three brutal restrictions of the pre-levity world (Section 7.1)."""
    return {
        "type_families": "No type family could return an unlifted type: all "
                         "unlifted types shared the kind #, so the calling "
                         "convention of `f :: F a -> a` would be unknown.",
        "indices": "Unlifted types could not be used as indices to type "
                   "families or GADTs.",
        "saturation": "Unlifted type constructors (Array#, (# , #)) had to "
                      "be fully saturated; abstraction over partially "
                      "applied unlifted constructors was forbidden.",
    }
