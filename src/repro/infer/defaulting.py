"""Generalisation and representation defaulting (Section 5.2).

The paper's key inference decision is that GHC **never infers levity
polymorphism**: any representation unification variable that could in
principle be generalised is instead *defaulted* to ``LiftedRep``.  This is
deliberately analogous to Haskell's monomorphism restriction and, like it,
sacrifices principal types for the levity-polymorphic fragment (footnote 11).

"Could be generalised" is decided by level, as in Rémy's ranks and GHC's
``TcLevel``.  The inferencer enters a level of the
:class:`~repro.infer.unify.UnifierState` around the variables of an
unsigned binding and leaves it before generalising; the solver keeps every
variable reachable from a class at level ``L`` at level ``L`` or
shallower.  So a variable of the binding's type that is deeper than the
binding's outer level is reachable from no scheme of the environment:
nothing outside the binding can mention it.  A level belongs to a
variable, not to its name, so a rigid binder of a dependency's signature
does not block the defaulting of a fresh variable that happens to share
its name.

:func:`generalise` implements the full pipeline used when a binding has no
type signature:

1. zonk the inferred type, so every free variable left is an unsolved
   class root of the solver's one store;
2. default every free representation unification variable deeper than the
   outer level to ``LiftedRep`` with :meth:`UnifierState.default_rep`
   (unless the ablation flag ``generalise_reps`` is set, in which case the
   variables are quantified instead — producing exactly the un-compilable
   scheme the paper warns about, which the downstream levity check
   rejects);
3. quantify the free type unification variables deeper than the outer
   level, giving them user-facing names ``a``, ``b``, … and their zonked
   kinds;
4. split the wanted class constraints into those that mention quantified
   variables (which move into the scheme's context) and residual ones
   (returned to the caller for instance resolution).
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ..core.kinds import Kind, TypeKind
from ..core.rep import LIFTED, Rep, RepVar
from ..surface.types import ClassConstraint, SType, TyUVar, TyVar
from .schemes import Scheme
from .unify import UnifierState


@dataclass(frozen=True)
class GeneralisationResult:
    """The scheme plus the constraints that could not be generalised."""

    scheme: Scheme
    residual_constraints: Tuple[ClassConstraint, ...]
    defaulted_rep_vars: Tuple[str, ...]
    generalised_rep_vars: Tuple[str, ...]


def _deeper(level: Optional[int], outer_level: int) -> bool:
    return level is not None and level > outer_level


def default_rep_uvars(state: UnifierState, type_: SType,
                      outer_level: int = -1) -> Tuple[str, ...]:
    """Default the free representation unification variables of ``type_``
    that are deeper than ``outer_level`` to ``LiftedRep``.

    Only variables created by the unifier are defaulted; rigid
    representation variables written by the user (in a checked signature)
    have no level and are never touched.  The default ``outer_level`` takes
    every unification variable.  Returns the names that were defaulted.
    """
    zonked = state.zonk_type(type_)
    defaulted: List[str] = []
    for name in sorted(zonked.free_rep_vars()):
        if _deeper(state.rep_level(name), outer_level):
            state.default_rep(name, LIFTED)
            defaulted.append(name)
    return tuple(defaulted)


def _fresh_names(count: int, taken: FrozenSet[str]) -> List[str]:
    names: List[str] = []
    alphabet = string.ascii_lowercase
    index = 0
    while len(names) < count:
        base = alphabet[index % 26]
        suffix = index // 26
        candidate = base if suffix == 0 else f"{base}{suffix}"
        if candidate not in taken:
            names.append(candidate)
        index += 1
    return names


def generalise(state: UnifierState, type_: SType,
               constraints: Sequence[ClassConstraint] = (),
               generalise_reps: bool = False) -> GeneralisationResult:
    """Generalise an inferred type into a :class:`Scheme`.

    The binding's outer level is ``state.level``: call this after leaving
    the level its variables were born in.  Only variables deeper than it
    are quantified or defaulted.

    ``generalise_reps=True`` is the ablation mode (E7): instead of
    defaulting, free representation unification variables become quantified
    representation binders, reproducing the
    ``forall (r :: Rep) (a :: TYPE r). a -> a`` scheme that the paper shows
    is un-compilable.
    """
    outer_level = state.level
    defaulted: Tuple[str, ...] = ()
    generalised_reps: List[str] = []
    rep_renaming: Dict[str, Rep] = {}

    if generalise_reps:
        zonked = state.zonk_type(type_)
        candidates = [name for name in sorted(zonked.free_rep_vars())
                      if _deeper(state.rep_level(name), outer_level)]
        for index, name in enumerate(candidates):
            new_name = f"r{index + 1}" if len(candidates) > 1 else "r"
            generalised_reps.append(new_name)
            rep_renaming[name] = RepVar(new_name)
    else:
        defaulted = default_rep_uvars(state, type_, outer_level)

    zonked = state.zonk_type(type_)
    if rep_renaming:
        zonked = zonked.subst_reps(rep_renaming)

    zonked_constraints = [
        ClassConstraint(c.class_name,
                        state.zonk_type(c.argument).subst_reps(rep_renaming)
                        if rep_renaming
                        else state.zonk_type(c.argument))
        for c in constraints]

    free = [name for name in sorted(zonked.free_uvars())
            if _deeper(state.type_level(name), outer_level)]
    taken = frozenset(zonked.free_type_vars())
    for constraint in zonked_constraints:
        taken = taken | constraint.argument.free_type_vars()
    names = _fresh_names(len(free), taken)

    substitution: Dict[str, SType] = {}
    type_binders: List[Tuple[str, Kind]] = []
    uvar_kinds: Dict[str, Kind] = {}
    _collect_uvar_kinds(zonked, uvar_kinds)
    for constraint in zonked_constraints:
        _collect_uvar_kinds(constraint.argument, uvar_kinds)
    for uvar_name, fresh_name in zip(free, names):
        kind = uvar_kinds.get(uvar_name, TypeKind(LIFTED))
        if rep_renaming:
            kind = kind.substitute_reps(rep_renaming)
        substitution[uvar_name] = TyVar(fresh_name, kind)
        type_binders.append((fresh_name, kind))

    body = zonked.subst_types(substitution)

    quantified_names = frozenset(free)
    scheme_constraints: List[ClassConstraint] = []
    residual: List[ClassConstraint] = []
    for constraint in zonked_constraints:
        if constraint.argument.free_uvars() & quantified_names:
            scheme_constraints.append(
                ClassConstraint(constraint.class_name,
                                constraint.argument.subst_types(substitution)))
        else:
            residual.append(constraint)

    scheme = Scheme(tuple(generalised_reps), tuple(type_binders),
                    tuple(scheme_constraints), body)
    return GeneralisationResult(scheme, tuple(residual), defaulted,
                                tuple(generalised_reps))


def _collect_uvar_kinds(type_: SType, out: Dict[str, Kind]) -> None:
    """Record the kind of every unification variable occurring in ``type_``."""
    from ..surface.types import (
        ForAllTy,
        FunTy,
        QualTy,
        TyApp,
        UnboxedTupleTy,
    )

    if isinstance(type_, TyUVar):
        out.setdefault(type_.name, type_.kind)
    elif isinstance(type_, FunTy):
        _collect_uvar_kinds(type_.argument, out)
        _collect_uvar_kinds(type_.result, out)
    elif isinstance(type_, TyApp):
        _collect_uvar_kinds(type_.function, out)
        _collect_uvar_kinds(type_.argument, out)
    elif isinstance(type_, UnboxedTupleTy):
        for component in type_.components:
            _collect_uvar_kinds(component, out)
    elif isinstance(type_, ForAllTy):
        _collect_uvar_kinds(type_.body, out)
    elif isinstance(type_, QualTy):
        for constraint in type_.constraints:
            _collect_uvar_kinds(constraint.argument, out)
        _collect_uvar_kinds(type_.body, out)
