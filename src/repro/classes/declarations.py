"""Type classes, instances and the class environment (Section 7.3).

The paper's headline application of levity polymorphism is the generalised
``Num`` class::

    class Num (a :: TYPE r) where
      (+) :: a -> a -> a
      abs :: a -> a

whose methods get levity-polymorphic *selector* types such as::

    (+) :: forall (r :: Rep) (a :: TYPE r). Num a => a -> a -> a

This module implements the class system around that idea:

* :class:`ClassInfo` — a registered class: its representation binders, its
  class variable (with kind), its method signatures and superclasses;
* :class:`InstanceInfo` — a registered instance: the head type, the compiled
  method implementations and the name of the dictionary it builds;
* :class:`ClassEnv` — the environment the inference engine talks to.  It
  produces the levity-polymorphic selector schemes, type-checks instance
  method implementations (which are always fully monomorphic — exactly why
  the scheme's levity polymorphism is harmless), resolves constraints, and
  records dictionaries for the runtime.

The dictionary story itself (the lifted record, its selectors, and why
``abs1``/``abs2`` differ in arity) lives in
:mod:`repro.classes.dictionaries`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import TypeCheckError
from ..core.kinds import Kind, REP_KIND, TYPE_LIFTED, TypeKind
from ..core.rep import Rep, RepVar
from ..infer.schemes import Scheme, TypeEnv
from ..surface.ast import ClassDecl, Expr, InstanceDecl
from ..surface.types import (
    ClassConstraint,
    FunTy,
    SType,
    TyApp,
    TyCon,
    TyUVar,
    TyVar,
    kind_of_type,
)


@dataclass(frozen=True)
class MethodInfo:
    """One method of a class: its name and its signature.

    The signature is written with the class variable free (as in the source
    declaration); :meth:`ClassInfo.selector_scheme` closes over it.
    """

    name: str
    signature: SType


@dataclass(frozen=True)
class ClassInfo:
    """A registered type class."""

    name: str
    rep_binders: Tuple[str, ...]            # e.g. ("r",) for the generalised Num
    class_var: str                           # e.g. "a"
    class_var_kind: Kind                     # TYPE r  or  Type
    methods: Tuple[MethodInfo, ...]
    superclasses: Tuple[ClassConstraint, ...] = ()

    def is_levity_polymorphic(self) -> bool:
        """Can this class be instantiated at unlifted/unboxed types?"""
        return bool(self.rep_binders) or not (
            isinstance(self.class_var_kind, TypeKind)
            and self.class_var_kind.is_lifted_type_kind())

    def method(self, name: str) -> MethodInfo:
        for method in self.methods:
            if method.name == name:
                return method
        raise KeyError(f"class {self.name} has no method {name!r}")

    def method_names(self) -> Tuple[str, ...]:
        return tuple(m.name for m in self.methods)

    def selector_scheme(self, method: MethodInfo) -> Scheme:
        """The levity-polymorphic selector type of a method.

        For the generalised ``Num`` this is
        ``forall (r :: Rep) (a :: TYPE r). Num a => a -> a -> a`` — the type
        the paper displays in Section 7.3.  Crucially the selector's own
        *argument* is the dictionary (a lifted record) and its result is a
        function type (also lifted), so the selector respects the Section 5.1
        restrictions even though its type is levity-polymorphic.
        """
        constraint = ClassConstraint(
            self.name, TyVar(self.class_var, self.class_var_kind))
        return Scheme(self.rep_binders,
                      ((self.class_var, self.class_var_kind),),
                      (constraint,),
                      method.signature)

    def dictionary_field_types(self, instance_type: SType
                               ) -> Dict[str, SType]:
        """The (monomorphic) field types of the dictionary for one instance."""
        substitution = {self.class_var: instance_type}
        rep_substitution: Dict[str, Rep] = {}
        instance_kind = kind_of_type(instance_type)
        if self.rep_binders and isinstance(instance_kind, TypeKind):
            rep_substitution = {self.rep_binders[0]: instance_kind.rep}
        return {
            method.name: method.signature
            .subst_reps(rep_substitution)
            .subst_types(substitution)
            for method in self.methods}


@dataclass(frozen=True)
class InstanceInfo:
    """A registered instance together with its compiled dictionary."""

    class_name: str
    head: SType                              # e.g. Int#  or  Maybe a (head tycon applied)
    method_implementations: Tuple[Tuple[str, Expr], ...]
    dictionary_name: str                     # e.g. "$dNumInt#"

    def head_constructor(self) -> str:
        return _head_tycon_name(self.head)

    def methods(self) -> Dict[str, Expr]:
        return dict(self.method_implementations)


def _head_tycon_name(type_: SType) -> str:
    current = type_
    while isinstance(current, TyApp):
        current = current.function
    if isinstance(current, TyCon):
        return current.name
    if isinstance(current, FunTy):
        return "->"
    raise TypeCheckError(
        f"instance head {type_.pretty()} does not start with a type "
        "constructor")


class ClassEnv:
    """The class environment used by inference, elaboration and the runtime."""

    def __init__(self) -> None:
        self.classes: Dict[str, ClassInfo] = {}
        self.instances: Dict[Tuple[str, str], InstanceInfo] = {}

    # -- registration ---------------------------------------------------------

    def register_class_info(self, info: ClassInfo) -> None:
        if info.name in self.classes:
            raise TypeCheckError(f"duplicate class declaration {info.name!r}")
        self.classes[info.name] = info

    def register_class(self, decl: ClassDecl) -> ClassInfo:
        """Register a class from a surface declaration."""
        rep_binders = tuple(b.name for b in decl.class_var_kind_binders
                            if b.kind == REP_KIND)
        info = ClassInfo(
            name=decl.name,
            rep_binders=rep_binders,
            class_var=decl.class_var,
            class_var_kind=decl.class_var_binder.kind,
            methods=tuple(MethodInfo(name, sig) for name, sig in decl.methods),
            superclasses=decl.superclasses)
        self.register_class_info(info)
        return info

    def register_instance(self, decl: InstanceDecl, inferencer=None,
                          env: Optional[TypeEnv] = None) -> InstanceInfo:
        """Register (and optionally type-check) an instance declaration.

        When an inference engine and environment are supplied, every method
        implementation is checked against the method signature instantiated
        at the instance head — producing exactly the "fully monomorphic"
        top-level functions the paper describes (``plusInt#``, ``absInt#``).
        """
        info = self.class_info(decl.class_name)
        provided = dict(decl.methods)
        missing = [m for m in info.method_names() if m not in provided]
        if missing:
            raise TypeCheckError(
                f"instance {decl.class_name} {decl.instance_type.pretty()} "
                f"is missing methods: {', '.join(missing)}")
        unexpected = [m for m in provided if m not in info.method_names()]
        if unexpected:
            raise TypeCheckError(
                f"instance {decl.class_name} {decl.instance_type.pretty()} "
                f"defines unknown methods: {', '.join(unexpected)}")

        # Kind check: the instance head must fit the class variable's kind.
        # For a classic class (a :: Type) this is what forbids `Num Int#` —
        # the restriction levity polymorphism lifts (Section 7.3).
        instance_kind = kind_of_type(decl.instance_type)
        if not isinstance(instance_kind, TypeKind):
            raise TypeCheckError(
                f"instance head {decl.instance_type.pretty()} has non-value "
                f"kind {instance_kind.pretty()}")
        if not info.rep_binders:
            if instance_kind != info.class_var_kind:
                raise TypeCheckError(
                    f"cannot make {decl.instance_type.pretty()} (kind "
                    f"{instance_kind.pretty()}) an instance of "
                    f"{info.name}: its class variable has kind "
                    f"{info.class_var_kind.pretty()}; generalise the class "
                    "with levity polymorphism to allow unlifted instances")

        if inferencer is not None and env is not None:
            field_types = info.dictionary_field_types(decl.instance_type)
            for method_name, implementation in decl.methods:
                expected = field_types[method_name]
                inferencer.check(env, implementation, expected)

        head_name = _head_tycon_name(decl.instance_type)
        dictionary_name = f"$d{decl.class_name}{head_name}"
        instance = InstanceInfo(decl.class_name, decl.instance_type,
                                tuple(decl.methods), dictionary_name)
        key = (decl.class_name, head_name)
        if key in self.instances:
            raise TypeCheckError(
                f"duplicate instance {decl.class_name} {head_name}")
        self.instances[key] = instance
        return instance

    # -- queries ------------------------------------------------------------------

    def class_info(self, name: str) -> ClassInfo:
        try:
            return self.classes[name]
        except KeyError:
            raise TypeCheckError(f"unknown class {name!r}") from None

    def method_schemes(self, decl_or_info) -> Dict[str, Scheme]:
        """Selector schemes for every method of a class (for the type env)."""
        if isinstance(decl_or_info, ClassInfo):
            info = decl_or_info
        else:
            info = self.class_info(decl_or_info.name)
        return {method.name: info.selector_scheme(method)
                for method in info.methods}

    def all_method_schemes(self) -> Dict[str, Scheme]:
        out: Dict[str, Scheme] = {}
        for info in self.classes.values():
            out.update(self.method_schemes(info))
        return out

    def lookup_instance(self, class_name: str,
                        type_: SType) -> Optional[InstanceInfo]:
        try:
            head = _head_tycon_name(type_)
        except TypeCheckError:
            return None
        return self.instances.get((class_name, head))

    def resolve(self, constraint: ClassConstraint, state=None) -> bool:
        """Can ``constraint`` be discharged by a registered instance?

        Constraints whose argument is still an unsolved unification variable
        or a rigid type variable cannot be resolved here (they stay as
        residual/given constraints), mirroring GHC's behaviour.
        """
        argument = constraint.argument
        if state is not None:
            argument = state.zonk_type(argument)
        if isinstance(argument, (TyUVar, TyVar)):
            return False
        return self.lookup_instance(constraint.class_name, argument) is not None
