"""Generalisation and representation defaulting (Section 5.2).

The paper's key inference decision is that GHC **never infers levity
polymorphism**: any representation unification variable that could in
principle be generalised is instead *defaulted* to ``LiftedRep``.  This is
deliberately analogous to Haskell's monomorphism restriction and, like it,
sacrifices principal types for the levity-polymorphic fragment (footnote 11).

:func:`generalise` implements the full pipeline used when a binding has no
type signature:

1. zonk the inferred type, so every free variable left is an unsolved
   class root of the solver's one store;
2. default every free representation unification variable to ``LiftedRep``
   with :meth:`UnifierState.default_rep` (unless the ablation flag
   ``generalise_reps`` is set, in which case the variables are quantified
   instead — producing exactly the un-compilable scheme the paper warns
   about, which the downstream levity check rejects);
3. quantify the remaining free type unification variables, giving them
   user-facing names ``a``, ``b``, … and their zonked kinds;
4. split the wanted class constraints into those that mention quantified
   variables (which move into the scheme's context) and residual ones
   (returned to the caller for instance resolution).
"""

from __future__ import annotations

import string
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from ..core.kinds import Kind, TypeKind
from ..core.rep import LIFTED, Rep, RepVar
from ..surface.types import ClassConstraint, SType, TyUVar, TyVar
from .schemes import Scheme, TypeEnv
from .unify import UnifierState


@dataclass(frozen=True)
class GeneralisationResult:
    """The scheme plus the constraints that could not be generalised."""

    scheme: Scheme
    residual_constraints: Tuple[ClassConstraint, ...]
    defaulted_rep_vars: Tuple[str, ...]
    generalised_rep_vars: Tuple[str, ...]


def default_rep_uvars(state: UnifierState, type_: SType,
                      avoid: FrozenSet[str] = frozenset()) -> Tuple[str, ...]:
    """Default free representation unification variables to ``LiftedRep``.

    Only variables created by the unifier are defaulted; rigid
    representation variables written by the user (in a checked signature)
    are never touched.  Returns the names that were defaulted.
    """
    zonked = state.zonk_type(type_)
    defaulted: List[str] = []
    for name in sorted(zonked.free_rep_vars()):
        if name in avoid or not state.is_rep_uvar(name):
            continue
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


def generalise(state: UnifierState, env: TypeEnv, type_: SType,
               constraints: Sequence[ClassConstraint] = (),
               generalise_reps: bool = False) -> GeneralisationResult:
    """Generalise an inferred type into a :class:`Scheme`.

    ``generalise_reps=True`` is the ablation mode (E7): instead of
    defaulting, free representation unification variables become quantified
    representation binders, reproducing the
    ``forall (r :: Rep) (a :: TYPE r). a -> a`` scheme that the paper shows
    is un-compilable.
    """
    env_uvars = frozenset(
        name for scheme in env.all_bindings().values()
        for name in state.zonk_type(scheme.body).free_uvars())
    env_rep_vars = frozenset(
        name for scheme in env.all_bindings().values()
        for name in state.zonk_type(scheme.body).free_rep_vars())

    defaulted: Tuple[str, ...] = ()
    generalised_reps: List[str] = []
    rep_renaming: Dict[str, Rep] = {}

    if generalise_reps:
        zonked = state.zonk_type(type_)
        candidates = [name for name in sorted(zonked.free_rep_vars())
                      if state.is_rep_uvar(name)
                      and name not in env_rep_vars]
        for index, name in enumerate(candidates):
            new_name = f"r{index + 1}" if len(candidates) > 1 else "r"
            generalised_reps.append(new_name)
            rep_renaming[name] = RepVar(new_name)
    else:
        defaulted = default_rep_uvars(state, type_, avoid=env_rep_vars)

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
            if name not in env_uvars]
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
