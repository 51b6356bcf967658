"""Pretty-printing with ``LiftedRep`` defaulting (Section 8.1).

After the type of ``($)`` was generalised, users complained that GHCi now
printed a type "far too complex" for beginners.  GHC's fix — reproduced here
— is to *default all type variables of kind Rep to LiftedRep during pretty
printing*, unless the user passes ``-fprint-explicit-runtime-reps``:

* default display:   ``($) :: (a -> b) -> a -> b``
* explicit display:  ``($) :: forall (r :: Rep) (a :: Type) (b :: TYPE r).
  (a -> b) -> a -> b``

The defaulting is purely cosmetic: the scheme itself is untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..core.kinds import TYPE_LIFTED, TypeKind
from ..core.rep import LIFTED, Rep, RepVar
from ..infer.schemes import Scheme
from ..surface.types import ForAllTy, SType


@dataclass
class PrinterOptions:
    """Mirror of the GHC flags that affect type display."""

    #: ``-fprint-explicit-runtime-reps``: show Rep binders and TYPE r kinds.
    print_explicit_runtime_reps: bool = False


def default_reps_for_display(scheme: Scheme) -> Scheme:
    """Substitute ``LiftedRep`` for every quantified Rep variable (display only)."""
    mapping: Dict[str, Rep] = {name: LIFTED for name in scheme.rep_binders}
    type_binders = tuple((name, kind.substitute_reps(mapping))
                         for name, kind in scheme.type_binders)
    constraints = tuple(type(c)(c.class_name, c.argument.subst_reps(mapping))
                        for c in scheme.constraints)
    return Scheme((), type_binders, constraints,
                  scheme.body.subst_reps(mapping))


def render_scheme(scheme: Scheme,
                  options: Optional[PrinterOptions] = None) -> str:
    """Render a scheme the way GHCi's ``:type`` would."""
    options = options or PrinterOptions()
    if options.print_explicit_runtime_reps:
        return scheme.pretty(explicit_runtime_reps=True)

    displayed = default_reps_for_display(scheme)
    if any(kind != TYPE_LIFTED for _, kind in displayed.type_binders):
        # A binder whose kind is not Type even after defaulting (for example
        # ``(a :: TYPE IntRep)``) carries information the bare body cannot:
        # keep the telescope so the rendering parses back to the same
        # scheme.  (Printer gap found by the frontend round-trip tests.)
        return displayed.pretty(explicit_runtime_reps=False)

    # Hide the forall telescope entirely (every binder kind is now Type, so
    # nothing is lost), as GHCi does by default.
    body = displayed.body
    if displayed.constraints:
        from ..surface.types import QualTy
        body = QualTy(displayed.constraints, body)
    return body.pretty(explicit_runtime_reps=False)


def render_type(type_: SType,
                options: Optional[PrinterOptions] = None) -> str:
    """Render a surface type under the same defaulting convention."""
    return render_scheme(Scheme.from_type(type_), options)
