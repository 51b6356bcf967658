"""Dictionary-passing elaboration of type classes (Section 7.3).

The paper explains *why* a levity-polymorphic class is compilable by
appealing to how classes are implemented: a constraint ``Num a`` becomes an
ordinary **lifted record** of method implementations::

    data Num (a :: TYPE r) = MkNum { (+) :: a -> a -> a, abs :: a -> a }

so a "levity-polymorphic" method selector such as

``(+) :: forall (r :: Rep) (a :: TYPE r). Num a => a -> a -> a``

takes a *lifted* argument (the dictionary) and returns a *lifted* result
(the function ``a -> a -> a``), never binding a levity-polymorphic value.
The per-instance method implementations (``plusInt#``, ``absInt#``) are
fully monomorphic, and the dictionary ``$dNumInt#`` is an entirely
monomorphic record.

This module makes that elaboration concrete:

* :func:`dictionary_data_decl` — the record type for a class;
* :func:`dictionary_binding` — the ``$dC T`` dictionary value for an
  instance, as a surface expression (a saturated record construction);
* :func:`selector_arity` / :func:`method_reference_arity` — the arity
  analysis that explains why ``abs1 = abs`` (arity 1: just the dictionary)
  is accepted while its η-expansion ``abs2 x = abs x`` (arity 2: dictionary
  *and* a levity-polymorphic value) is rejected.

At run time the cost-model evaluator allocates a dictionary as a
:class:`repro.runtime.values.DictionaryCell`: a boxed, lifted record
mapping method names to closures.
"""

from __future__ import annotations

from typing import Tuple

from ..core.kinds import REP_KIND, TYPE_LIFTED
from ..surface.ast import ConstructorDecl, DataDecl, EApp, EVar, Expr
from ..surface.types import Binder, FunTy, SType, TyVar
from .declarations import ClassInfo, InstanceInfo


def dictionary_constructor_name(class_name: str) -> str:
    """The record constructor name, e.g. ``MkNum``."""
    return f"Mk{class_name}"


def dictionary_data_decl(info: ClassInfo) -> DataDecl:
    """The dictionary record type of a class.

    For the generalised ``Num`` of Section 7.3 this is::

        data Num (a :: TYPE r) = MkNum (a -> a -> a) (a -> a)

    Note that the record itself is an ordinary lifted data type regardless of
    the representation of ``a`` — its fields are function types, and function
    types are always boxed and lifted (rule T_ARROW).
    """
    binders = tuple(Binder(name, REP_KIND) for name in info.rep_binders) + (
        Binder(info.class_var, info.class_var_kind),)
    fields = tuple(method.signature for method in info.methods)
    constructor = ConstructorDecl(dictionary_constructor_name(info.name),
                                  fields)
    return DataDecl(info.name, binders, (constructor,))


def dictionary_binding(info: ClassInfo,
                       instance: InstanceInfo) -> Tuple[str, Expr]:
    """The monomorphic dictionary value for an instance.

    Returns the pair ``("$dNumInt#", MkNum plusInt# absInt#)`` — "this
    snippet is indeed entirely monomorphic" (Section 7.3).
    """
    expr: Expr = EVar(dictionary_constructor_name(info.name))
    implementations = instance.methods()
    for method in info.methods:
        expr = EApp(expr, implementations[method.name])
    return instance.dictionary_name, expr


def selector_arity(info: ClassInfo, method_name: str) -> int:
    """The compiled arity of a bare method selector.

    A selector such as ``abs`` takes exactly one argument: the dictionary.
    Its result — whatever function the dictionary stores — is returned as a
    heap pointer.  This is the arity-1 reading of ``abs1 = abs``.
    """
    del method_name  # every selector takes only the dictionary
    return 1 if info.methods else 0


def method_reference_arity(info: ClassInfo, method_name: str,
                           eta_expanded_args: int) -> int:
    """The compiled arity of an η-expanded method reference.

    ``abs2 x = abs x`` has arity 2: the dictionary *and* the value ``x``.
    The extra argument is the levity-polymorphic one, which is why the
    Section 5.1 argument/binder restrictions reject ``abs2`` but not
    ``abs1``: "when compiling, η-equivalent definitions are not equivalent!"
    """
    return selector_arity(info, method_name) + eta_expanded_args


def eta_expansion_binds_levity_polymorphic_value(
        info: ClassInfo, method_name: str, eta_expanded_args: int) -> bool:
    """Does η-expanding a selector by ``n`` arguments bind a levity-polymorphic value?

    It does exactly when the class is levity-polymorphic (its class variable
    has a representation-variable kind) and at least one value argument is
    bound — the formal content of the ``abs1``/``abs2`` contrast.
    """
    method = info.method(method_name)
    if eta_expanded_args <= 0:
        return False
    if not info.is_levity_polymorphic():
        return False
    # Count how many of the first `eta_expanded_args` arguments of the
    # method's signature mention the class variable (and hence have a
    # levity-polymorphic kind once the class is generalised).
    current: SType = method.signature
    for _ in range(eta_expanded_args):
        if not isinstance(current, FunTy):
            break
        if info.class_var in current.argument.free_type_vars():
            return True
        current = current.result
    return False

