"""The pre-union-find unifier, kept as the measured perf baseline.

This is the original dictionary-chasing solver that shipped with the seed of
this reproduction: solutions live in plain ``{name: term}`` dictionaries,
``zonk_*`` re-walks entire type trees on every call, and solution chains
(``α0 := α1, α1 := α2, …``) are followed link by link — which makes zonking
a chain of *n* variables O(n) per query and the deep-chain workload
quadratic overall.

The production solver (:mod:`repro.infer.unify`) replaces this with
union-find + interned terms.  This module exists so that
``benchmarks/bench_e11_unifier_stress.py`` can measure an honest wall-clock
speedup against the very code it replaced, on the same workloads, in the
same process.  Do not use it outside the benchmark harness.

It keeps the production solver's interface to the inferencer, levels
included: fresh type and rep variables are born at the current level, and
a bind lowers every unsolved variable of the (already zonked) term to the
bound variable's level, so ``generalise`` quantifies the same variables
with either solver.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional

from repro.core.errors import OccursCheckError, UnificationError
from repro.core.kinds import ArrowKind, Kind, TypeKind
from repro.core.rep import Rep, RepVar, SumRep, TupleRep
from repro.surface.types import (
    ForAllTy,
    FunTy,
    QualTy,
    SType,
    TyApp,
    TyCon,
    TyUVar,
    TyVar,
    UnboxedTupleTy,
)


@dataclass
class LegacyUnifierState:
    """Mutable solver state: solutions for both sorts of variables."""

    type_solutions: Dict[str, SType] = field(default_factory=dict)
    rep_solutions: Dict[str, Rep] = field(default_factory=dict)
    #: Name -> level of every type and rep variable this state made.
    type_levels: Dict[str, int] = field(default_factory=dict)
    rep_levels: Dict[str, int] = field(default_factory=dict)
    level: int = 0
    _counter: "itertools.count" = field(default_factory=itertools.count)

    # -- fresh variables -----------------------------------------------------

    def fresh_rep_uvar(self, prefix: str = "rho") -> RepVar:
        var = RepVar(f"{prefix}{next(self._counter)}", unification=True)
        self.rep_levels[var.name] = self.level
        return var

    def default_rep(self, name: str, rep: Rep) -> None:
        self.rep_solutions[name] = rep

    def fresh_type_uvar(self, kind: Optional[Kind] = None,
                        prefix: str = "alpha") -> TyUVar:
        if kind is None:
            kind = TypeKind(self.fresh_rep_uvar())
        var = TyUVar(f"{prefix}{next(self._counter)}", kind)
        self.type_levels[var.name] = self.level
        return var

    # -- levels ----------------------------------------------------------------

    def enter_level(self) -> None:
        self.level += 1

    def leave_level(self) -> None:
        self.level -= 1

    def type_level(self, name: str) -> Optional[int]:
        return self.type_levels.get(name)

    def rep_level(self, name: str) -> Optional[int]:
        return self.rep_levels.get(name)

    @staticmethod
    def _lower(levels: Dict[str, int], names: FrozenSet[str],
               level: int) -> None:
        for name in names:
            if levels.get(name, 0) > level:
                levels[name] = level

    # -- zonking ---------------------------------------------------------------

    def zonk_rep(self, rep: Rep) -> Rep:
        return rep.zonk(self.rep_solutions.get)

    def zonk_kind(self, kind: Kind) -> Kind:
        if isinstance(kind, TypeKind):
            return TypeKind(self.zonk_rep(kind.rep))
        if isinstance(kind, ArrowKind):
            return ArrowKind(self.zonk_kind(kind.argument),
                             self.zonk_kind(kind.result))
        return kind

    def zonk_type(self, type_: SType) -> SType:
        if isinstance(type_, TyUVar):
            solution = self.type_solutions.get(type_.name)
            if solution is not None:
                return self.zonk_type(solution)
            return TyUVar(type_.name, self.zonk_kind(type_.kind))
        if isinstance(type_, TyVar):
            return TyVar(type_.name, self.zonk_kind(type_.kind))
        if isinstance(type_, TyCon):
            return TyCon(type_.name, self.zonk_kind(type_.kind))
        if isinstance(type_, FunTy):
            return FunTy(self.zonk_type(type_.argument),
                         self.zonk_type(type_.result))
        if isinstance(type_, TyApp):
            return TyApp(self.zonk_type(type_.function),
                         self.zonk_type(type_.argument))
        if isinstance(type_, UnboxedTupleTy):
            return UnboxedTupleTy(self.zonk_type(c)
                                  for c in type_.components)
        if isinstance(type_, ForAllTy):
            return ForAllTy(type_.binders, self.zonk_type(type_.body))
        if isinstance(type_, QualTy):
            from repro.surface.types import ClassConstraint
            constraints = tuple(
                ClassConstraint(c.class_name, self.zonk_type(c.argument))
                for c in type_.constraints)
            return QualTy(constraints, self.zonk_type(type_.body))
        return type_

    # -- representation unification --------------------------------------------

    def unify_reps(self, rep1: Rep, rep2: Rep) -> None:
        rep1 = self.zonk_rep(rep1)
        rep2 = self.zonk_rep(rep2)
        if rep1 == rep2:
            return
        if isinstance(rep1, RepVar) and rep1.unification:
            self._bind_rep(rep1, rep2)
            return
        if isinstance(rep2, RepVar) and rep2.unification:
            self._bind_rep(rep2, rep1)
            return
        if isinstance(rep1, TupleRep) and isinstance(rep2, TupleRep):
            if len(rep1.reps) != len(rep2.reps):
                raise UnificationError(
                    f"unboxed tuple representations have different arities: "
                    f"{rep1.pretty()} vs {rep2.pretty()}")
            for left, right in zip(rep1.reps, rep2.reps):
                self.unify_reps(left, right)
            return
        if isinstance(rep1, SumRep) and isinstance(rep2, SumRep):
            if len(rep1.alternatives) != len(rep2.alternatives):
                raise UnificationError(
                    f"unboxed sum representations have different arities: "
                    f"{rep1.pretty()} vs {rep2.pretty()}")
            for left, right in zip(rep1.alternatives, rep2.alternatives):
                self.unify_reps(left, right)
            return
        raise UnificationError(
            f"cannot unify runtime representations {rep1.pretty()} and "
            f"{rep2.pretty()}: the types have different memory layouts / "
            "calling conventions")

    def _bind_rep(self, var: RepVar, rep: Rep) -> None:
        if var.name in rep.free_rep_vars():
            raise OccursCheckError(
                f"representation variable {var.name} occurs in "
                f"{rep.pretty()}")
        self._lower(self.rep_levels, rep.free_rep_vars(),
                    self.rep_levels.get(var.name, 0))
        self.rep_solutions[var.name] = rep

    # -- kind unification --------------------------------------------------------

    def unify_kinds(self, kind1: Kind, kind2: Kind) -> None:
        kind1 = self.zonk_kind(kind1)
        kind2 = self.zonk_kind(kind2)
        if kind1 == kind2:
            return
        if isinstance(kind1, TypeKind) and isinstance(kind2, TypeKind):
            self.unify_reps(kind1.rep, kind2.rep)
            return
        if isinstance(kind1, ArrowKind) and isinstance(kind2, ArrowKind):
            self.unify_kinds(kind1.argument, kind2.argument)
            self.unify_kinds(kind1.result, kind2.result)
            return
        raise UnificationError(
            f"cannot unify kinds {kind1.pretty()} and {kind2.pretty()}")

    # -- type unification ----------------------------------------------------------

    def unify_types(self, type1: SType, type2: SType) -> None:
        type1 = self.zonk_type(type1)
        type2 = self.zonk_type(type2)

        if isinstance(type1, TyUVar):
            self._bind_type(type1, type2)
            return
        if isinstance(type2, TyUVar):
            self._bind_type(type2, type1)
            return

        if isinstance(type1, TyCon) and isinstance(type2, TyCon):
            if type1.name != type2.name:
                raise UnificationError(
                    f"cannot match {type1.name} with {type2.name}")
            return
        if isinstance(type1, TyVar) and isinstance(type2, TyVar):
            if type1.name != type2.name:
                raise UnificationError(
                    f"cannot match rigid type variables {type1.name} and "
                    f"{type2.name}")
            return
        if isinstance(type1, FunTy) and isinstance(type2, FunTy):
            self.unify_types(type1.argument, type2.argument)
            self.unify_types(type1.result, type2.result)
            return
        if isinstance(type1, TyApp) and isinstance(type2, TyApp):
            self.unify_types(type1.function, type2.function)
            self.unify_types(type1.argument, type2.argument)
            return
        if (isinstance(type1, UnboxedTupleTy)
                and isinstance(type2, UnboxedTupleTy)):
            if len(type1.components) != len(type2.components):
                raise UnificationError(
                    "unboxed tuples have different arities: "
                    f"{type1.pretty()} vs {type2.pretty()}")
            for left, right in zip(type1.components, type2.components):
                self.unify_types(left, right)
            return

        raise UnificationError(
            f"cannot unify {type1.pretty()} with {type2.pretty()}")

    def _bind_type(self, var: TyUVar, type_: SType) -> None:
        if isinstance(type_, TyUVar) and type_.name == var.name:
            return
        if var.name in type_.free_uvars():
            raise OccursCheckError(
                f"type variable {var.name} occurs in {type_.pretty()} "
                "(infinite type)")
        level = self.type_levels.get(var.name, 0)
        self._lower(self.type_levels, type_.free_uvars(), level)
        self._lower(self.rep_levels, type_.free_rep_vars(), level)
        from repro.surface.types import kind_of_type
        self.unify_kinds(var.kind, kind_of_type(type_))
        self.type_solutions[var.name] = type_

    # -- queries --------------------------------------------------------------------

    def unsolved_rep_uvars_in(self, type_: SType) -> frozenset:
        zonked = self.zonk_type(type_)
        return frozenset(
            name for name in zonked.free_rep_vars()
            if name not in self.rep_solutions)
