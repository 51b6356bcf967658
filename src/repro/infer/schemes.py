"""Type schemes and typing environments for the surface language.

A :class:`Scheme` is the inference engine's internal view of a polymorphic
type: an ordered list of quantified binders (representation binders first,
then type binders — the same telescope order GHC uses for
``forall (r :: RuntimeRep) (a :: TYPE r). ...``), a list of class
constraints, and a monomorphic body.

Schemes can be converted to and from the surface ``ForAllTy``/``QualTy``
syntax so that the same machinery handles both user-written signatures and
inferred, generalised types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Tuple

from ..core.kinds import Kind, REP_KIND, TYPE_LIFTED, TypeKind
from ..core.rep import Rep, RepVar
from ..surface.types import (
    Binder,
    ClassConstraint,
    ForAllTy,
    QualTy,
    SType,
    TyVar,
)


@dataclass(frozen=True)
class Scheme:
    """``forall reps. forall tyvars. constraints => body``."""

    rep_binders: Tuple[str, ...]
    type_binders: Tuple[Tuple[str, Kind], ...]
    constraints: Tuple[ClassConstraint, ...]
    body: SType

    def __init__(self, rep_binders: Iterable[str] = (),
                 type_binders: Iterable[Tuple[str, Kind]] = (),
                 constraints: Iterable[ClassConstraint] = (),
                 body: Optional[SType] = None) -> None:
        if body is None:
            raise ValueError("a Scheme needs a body type")
        object.__setattr__(self, "rep_binders", tuple(rep_binders))
        object.__setattr__(self, "type_binders", tuple(type_binders))
        object.__setattr__(self, "constraints", tuple(constraints))
        object.__setattr__(self, "body", body)

    # -- queries -----------------------------------------------------------

    def is_levity_polymorphic(self) -> bool:
        """Does the scheme quantify over any runtime representation?"""
        return bool(self.rep_binders)

    def quantified_names(self) -> FrozenSet[str]:
        return frozenset(self.rep_binders) | frozenset(
            name for name, _ in self.type_binders)

    # -- conversions ---------------------------------------------------------

    def to_type(self) -> SType:
        """Render the scheme as a surface ``forall``/``=>`` type."""
        body: SType = self.body
        if self.constraints:
            body = QualTy(self.constraints, body)
        binders: List[Binder] = [Binder(name, REP_KIND)
                                 for name in self.rep_binders]
        binders.extend(Binder(name, kind)
                       for name, kind in self.type_binders)
        if binders:
            body = ForAllTy(binders, body)
        return body

    @staticmethod
    def from_type(type_: SType) -> "Scheme":
        """Parse a surface type into a scheme (rank-1 prenex form only)."""
        rep_binders: List[str] = []
        type_binders: List[Tuple[str, Kind]] = []
        constraints: List[ClassConstraint] = []
        current = type_
        while isinstance(current, ForAllTy):
            for binder in current.binders:
                if binder.is_rep_binder():
                    rep_binders.append(binder.name)
                else:
                    type_binders.append((binder.name, binder.kind))
            current = current.body
        if isinstance(current, QualTy):
            constraints.extend(current.constraints)
            current = current.body
        return Scheme(rep_binders, type_binders, constraints, current)

    @staticmethod
    def monomorphic(type_: SType) -> "Scheme":
        """A scheme with no quantification at all."""
        return Scheme((), (), (), type_)

    def pretty(self, explicit_runtime_reps: bool = True) -> str:
        return self.to_type().pretty(explicit_runtime_reps)

    def __repr__(self) -> str:
        return f"Scheme({self.pretty()})"


@dataclass
class TypeEnv:
    """A typing environment mapping term names to schemes.

    Environments are persistent-ish: :meth:`bind` returns a new environment
    sharing the parent, so the inference engine can extend scopes without
    mutating the caller's environment.
    """

    bindings: Dict[str, Scheme] = field(default_factory=dict)
    parent: Optional["TypeEnv"] = None

    def lookup(self, name: str) -> Optional[Scheme]:
        env: Optional[TypeEnv] = self
        while env is not None:
            if name in env.bindings:
                return env.bindings[name]
            env = env.parent
        return None

    def bind(self, name: str, scheme: Scheme) -> "TypeEnv":
        return TypeEnv({name: scheme}, parent=self)

    def bind_many(self, items: Mapping[str, Scheme]) -> "TypeEnv":
        return TypeEnv(dict(items), parent=self)

    def all_bindings(self) -> Dict[str, Scheme]:
        result: Dict[str, Scheme] = {}
        chain: List[TypeEnv] = []
        env: Optional[TypeEnv] = self
        while env is not None:
            chain.append(env)
            env = env.parent
        for env in reversed(chain):
            result.update(env.bindings)
        return result
