"""Unification of types, kinds and runtime representations (Section 5.2).

The paper observes that phrasing "which concrete instantiation of ``TYPE``?"
as the choice of a ``Rep`` is a boon for type inference: when GHC checks
``λx → e`` it invents a type unification variable ``α`` *and* a
representation unification variable ``ρ`` with ``α :: TYPE ρ``, and ordinary
unification does the rest.  This module provides exactly that machinery:

* :class:`UnifierState` — the one store of solutions for the two sorts of
  unification variable, type variables (``TyUVar``) and representation
  variables (``RepVar(unification=True)``); defaulting
  (:mod:`repro.infer.defaulting`) writes to it only through
  :meth:`UnifierState.default_rep`;
* ``unify_types`` / ``unify_reps`` — first-order unification with occurs
  checks; ``unify_kinds`` — a structural walk over two kinds that
  bottoms out in ``unify_reps`` (kinds hold no variables but the reps
  inside ``TYPE``);
* ``zonk_*`` — replace solved variables by their solutions, the analogue of
  GHC's *zonking* (Section 8.2 notes that levity checks must happen on
  zonked types).

In GHC the solutions live in mutable cells inside the variables themselves;
here they live in an explicit store, which keeps the type ASTs immutable and
makes the tests easier to write, but the observable behaviour is the same.

**Solver architecture** (see ``docs/PERF.md`` for the full story).  The
original seed implementation kept one ``{name: term}`` dictionary per
variable sort and re-zonked both sides of every ``unify_*`` call, which is
quadratic on variable→variable solution chains.  The production solver
instead uses, per sort (type and rep):

* a **union-find** forest with iterative path compression and union by rank,
  so a chain ``α0 ~ α1 ~ … ~ αn`` collapses to a single equivalence class
  with near-O(α) ``find``;
* a **solution table keyed on class roots** mapping each solved class to its
  (non-variable) solution term;
* **head resolution** instead of up-front zonking: ``unify_*`` walk the two
  terms with an explicit worklist, resolving only the *head* of each subterm,
  so no recursion depth is consumed by either solution chains or deep
  structural spines;
* **zonking with an inertness fast path**: a term containing no
  unification variables touched by this state zonks to itself, unwalked;
* **one kinding function**: a binding's kind check resolves the head and
  otherwise hands the zonked term to the memoised
  :func:`repro.surface.types.kind_of_type`;
* **levels** (Rémy's ranks, GHC's ``TcLevel``): the state has a current
  level that the inferencer enters around each unsigned binding, every
  fresh type or rep variable is born at the current level, and each class
  keeps a level at its root.  Binding a class to a term lowers every
  unsolved class of the zonked term (the rep variables in the kinds of its
  type variables included) to the bound class's level, in the occurs
  check's own walk, and a union keeps the shallower level.  So a variable
  reachable by zonking from a class at level ``L`` is at level ``L`` or
  shallower, and a variable of a binding's type that is deeper than the
  binding's outer level is not reachable from its environment:
  :func:`repro.infer.defaulting.generalise` quantifies or defaults
  exactly those.

Fresh variables are numbered from a per-state integer counter shared by
both sorts (matching the seed's name sequence) and format their user-facing
name lazily, so ``fresh_*`` allocates no strings.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from ..core.errors import OccursCheckError, UnificationError
from ..core.kinds import ArrowKind, Kind, TypeKind
from ..core.rep import Rep, RepVar, SumRep, TupleRep
from ..surface.types import (
    Binder,
    ClassConstraint,
    ForAllTy,
    FunTy,
    QualTy,
    SType,
    TyApp,
    TyCon,
    TyUVar,
    TyVar,
    UnboxedTupleTy,
    kind_of_type,
)


class UnifierStats:
    """Operation counters for the solver — exported into ``BENCH_perf.json``."""

    __slots__ = ("unify_types_calls", "unify_reps_calls", "unify_kinds_calls",
                 "type_bindings", "rep_bindings",
                 "finds", "unions", "occurs_checks")

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)

    def as_dict(self) -> Dict[str, int]:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"UnifierStats({inner})"


class _UnionFind:
    """Union-find over variable names: iterative path compression, rank
    union, and the level of each class kept at its root."""

    __slots__ = ("parent", "rank", "level", "stats")

    def __init__(self, stats: UnifierStats) -> None:
        self.parent: Dict[str, str] = {}
        self.rank: Dict[str, int] = {}
        #: Name -> level of the type or rep variables the state made; at a
        #: class root, the level of the class.  A name missing here was born
        #: at the state's current level and is not entered yet (or was made
        #: outside the state).
        self.level: Dict[str, int] = {}
        self.stats = stats

    def find(self, name: str) -> str:
        parent = self.parent
        root = name
        while True:
            up = parent.get(root)
            if up is None:
                break
            root = up
        # Second pass: point every node on the path straight at the root.
        while name != root:
            up = parent[name]
            parent[name] = root
            name = up
        self.stats.finds += 1
        return root

    def union(self, root1: str, root2: str, unentered: int) -> str:
        """Merge two distinct class roots; returns the surviving root.

        ``unentered`` is the level of a root not in the level map, and the
        survivor keeps the shallower of the two levels.
        """
        rank = self.rank
        r1 = rank.get(root1, 0)
        r2 = rank.get(root2, 0)
        if r1 < r2:
            root1, root2 = root2, root1
        self.parent[root2] = root1
        if r1 == r2:
            rank[root1] = r1 + 1
        level = self.level
        shallower = level.get(root2, unentered)
        if shallower < level.get(root1, unentered):
            level[root1] = shallower
        self.stats.unions += 1
        return root1


class UnifierState:
    """Mutable solver state: solutions for both sorts of variables."""

    __slots__ = ("stats", "level", "_next_id", "_tuf", "_ruf",
                 "_type_sol", "_rep_sol", "_type_vars", "_rep_vars", "_born")

    def __init__(self) -> None:
        self.stats = UnifierStats()
        #: The current level; fresh variables are born at it.
        self.level = 0
        self._next_id = 0
        self._tuf = _UnionFind(self.stats)
        self._ruf = _UnionFind(self.stats)
        #: Class root -> non-variable solution term, per sort.
        self._type_sol: Dict[str, SType] = {}
        self._rep_sol: Dict[str, Rep] = {}
        #: Name -> variable object, for picking class representatives.
        self._type_vars: Dict[str, TyUVar] = {}
        self._rep_vars: Dict[str, RepVar] = {}
        #: Variables born at ``level`` whose (lazily formatted) names are not
        #: yet in their sort's level map; entered on the next level change
        #: or level query.  Until then the solver reads a missing name as
        #: the current level.
        self._born: List[object] = []

    # -- fresh variables -----------------------------------------------------

    def _fresh_id(self) -> int:
        uid = self._next_id
        self._next_id = uid + 1
        return uid

    def fresh_rep_uvar(self, prefix: str = "rho") -> RepVar:
        """A fresh representation unification variable ``ρ``."""
        var = RepVar._fresh(self._fresh_id(), prefix)
        self._born.append(var)
        return var

    def default_rep(self, name: str, rep: Rep) -> None:
        """Solve the class of rep unification variable ``name`` to ``rep``."""
        self._rep_sol[self._ruf.find(name)] = rep

    def fresh_type_uvar(self, kind: Optional[Kind] = None,
                        prefix: str = "alpha") -> TyUVar:
        """A fresh type unification variable ``α :: kind``.

        When no kind is supplied, a fresh ``TYPE ρ`` kind is invented — the
        Section 5.2 recipe.
        """
        if kind is None:
            kind = TypeKind(self.fresh_rep_uvar())
        var = TyUVar._fresh(self._fresh_id(), prefix, kind)
        self._born.append(var)
        return var

    # -- levels ------------------------------------------------------------------

    def enter_level(self) -> None:
        """Enter a deeper level: the variables born until the matching
        :meth:`leave_level` are the ones a generalisation may quantify."""
        if self._born:
            self._register_born()
        self.level += 1

    def leave_level(self) -> None:
        if self._born:
            self._register_born()
        self.level -= 1

    def _register_born(self) -> None:
        """Enter every variable born since the last level change at the
        current level, in its sort's level map, unless a bind has already
        entered a shallower one."""
        level = self.level
        type_levels = self._tuf.level
        rep_levels = self._ruf.level
        for var in self._born:
            if type(var) is TyUVar:
                type_levels.setdefault(var.name, level)
            else:
                rep_levels.setdefault(var.name, level)
        self._born.clear()

    def _class_level(self, uf: _UnionFind, name: str) -> Optional[int]:
        """The level of ``name``'s class, or ``None`` for a name the state
        has no level for: a rigid variable, or one made outside the state
        and never unified."""
        if self._born:
            self._register_born()
        root = name if name not in uf.parent else uf.find(name)
        return uf.level.get(root)

    def type_level(self, name: str) -> Optional[int]:
        """The level of type unification variable ``name``'s class."""
        return self._class_level(self._tuf, name)

    def rep_level(self, name: str) -> Optional[int]:
        """The level of rep unification variable ``name``'s class."""
        return self._class_level(self._ruf, name)

    def _lower_kind(self, kind: Kind, level: int) -> None:
        """Lower every unsolved rep class of zonked ``kind`` that is deeper
        than ``level`` to ``level``."""
        levels = self._ruf.level
        unentered = self.level
        for name in self.zonk_kind(kind).free_rep_vars():
            if levels.get(name, unentered) > level:
                levels[name] = level

    # -- inertness -------------------------------------------------------------

    def _names_inert_rep(self, names: FrozenSet[str]) -> bool:
        """No name in ``names`` was unioned or solved at the rep sort."""
        parent = self._ruf.parent
        sols = self._rep_sol
        for name in names:
            if name in parent or name in sols:
                return False
        return True

    # -- zonking ---------------------------------------------------------------

    def zonk_rep(self, rep: Rep) -> Rep:
        """Replace solved representation variables by their solutions."""
        if isinstance(rep, RepVar):
            if not rep.unification:
                return rep
            name = rep.name
            root = (name if name not in self._ruf.parent
                    else self._ruf.find(name))
            solution = self._rep_sol.get(root)
            if solution is not None:
                return self.zonk_rep(solution)
            if root == rep.name:
                return rep
            return self._rep_vars[root]
        free = rep.free_rep_vars()
        if not free or self._names_inert_rep(free):
            return rep
        if isinstance(rep, TupleRep):
            return TupleRep(self.zonk_rep(r) for r in rep.reps)
        if isinstance(rep, SumRep):
            return SumRep(self.zonk_rep(r) for r in rep.alternatives)
        return rep  # pragma: no cover - no other compound reps exist

    def zonk_kind(self, kind: Kind) -> Kind:
        if isinstance(kind, TypeKind):
            rep = kind.rep
            zonked = self.zonk_rep(rep)
            if zonked is rep:
                return kind
            return TypeKind(zonked)
        if isinstance(kind, ArrowKind):
            argument = self.zonk_kind(kind.argument)
            result = self.zonk_kind(kind.result)
            if argument is kind.argument and result is kind.result:
                return kind
            return ArrowKind(argument, result)
        return kind

    def zonk_type(self, type_: SType) -> SType:
        tt = type(type_)
        if tt is TyUVar:
            name = type_.name
            root = (name if name not in self._tuf.parent
                    else self._tuf.find(name))
            solution = self._type_sol.get(root)
            if solution is not None:
                return self.zonk_type(solution)
            var = self._type_vars.get(root, type_)
            kind = self.zonk_kind(var.kind)
            if var is type_ and kind is type_.kind:
                return type_
            return TyUVar(var.name, kind)
        if tt is TyVar:
            kind = self.zonk_kind(type_.kind)
            return type_ if kind is type_.kind else TyVar(type_.name, kind)
        if tt is TyCon:
            kind = self.zonk_kind(type_.kind)
            return type_ if kind is type_.kind else TyCon(type_.name, kind)

        # Composite nodes: inert fast path, then rebuild.
        if not type_.free_uvars():
            free_reps = type_.free_rep_vars()
            if not free_reps or self._names_inert_rep(free_reps):
                return type_
        if tt is FunTy:
            argument = self.zonk_type(type_.argument)
            result = self.zonk_type(type_.result)
            if argument is type_.argument and result is type_.result:
                return type_
            return FunTy(argument, result)
        if tt is TyApp:
            function = self.zonk_type(type_.function)
            argument = self.zonk_type(type_.argument)
            if function is type_.function and argument is type_.argument:
                return type_
            return TyApp(function, argument)
        if tt is UnboxedTupleTy:
            return UnboxedTupleTy(self.zonk_type(c)
                                  for c in type_.components)
        if tt is ForAllTy:
            # NB: binder kinds are zonked too — a solved ``ρ`` inside a
            # binder kind (e.g. ``forall (a :: TYPE ρ). …``) must be
            # substituted, which the seed solver forgot to do.
            binders = tuple(Binder(b.name, self.zonk_kind(b.kind))
                            for b in type_.binders)
            return ForAllTy(binders, self.zonk_type(type_.body))
        if tt is QualTy:
            constraints = tuple(
                ClassConstraint(c.class_name, self.zonk_type(c.argument))
                for c in type_.constraints)
            return QualTy(constraints, self.zonk_type(type_.body))
        return type_

    # -- head resolution -------------------------------------------------------

    def _head_rep(self, rep: Rep) -> Rep:
        parent = self._ruf.parent
        sols = self._rep_sol
        while isinstance(rep, RepVar) and rep.unification:
            name = rep.name
            # Fast path: a variable that was never unioned is its own root.
            root = name if name not in parent else self._ruf.find(name)
            solution = sols.get(root)
            if solution is None:
                if root == name:
                    return rep
                return self._rep_vars[root]
            rep = solution
        return rep

    def _head_type(self, type_: SType) -> SType:
        parent = self._tuf.parent
        sols = self._type_sol
        while type(type_) is TyUVar:
            name = type_.name
            root = name if name not in parent else self._tuf.find(name)
            solution = sols.get(root)
            if solution is None:
                if root == name:
                    return type_
                return self._type_vars[root]
            type_ = solution
        return type_

    # -- representation unification --------------------------------------------

    def unify_reps(self, rep1: Rep, rep2: Rep) -> None:
        """Unify two runtime representations."""
        self.stats.unify_reps_calls += 1
        stack: List[Tuple[Rep, Rep]] = [(rep1, rep2)]
        while stack:
            left, right = stack.pop()
            left = self._head_rep(left)
            right = self._head_rep(right)
            if left is right:
                continue
            if isinstance(left, RepVar) and left.unification:
                self._bind_rep(left, right)
                continue
            if isinstance(right, RepVar) and right.unification:
                self._bind_rep(right, left)
                continue
            if left == right:
                continue
            if isinstance(left, TupleRep) and isinstance(right, TupleRep):
                if len(left.reps) != len(right.reps):
                    raise UnificationError(
                        f"unboxed tuple representations have different "
                        f"arities: {self._zonked_pretty_rep(left)} vs "
                        f"{self._zonked_pretty_rep(right)}")
                stack.extend(zip(reversed(left.reps), reversed(right.reps)))
                continue
            if isinstance(left, SumRep) and isinstance(right, SumRep):
                if len(left.alternatives) != len(right.alternatives):
                    raise UnificationError(
                        f"unboxed sum representations have different "
                        f"arities: {self._zonked_pretty_rep(left)} vs "
                        f"{self._zonked_pretty_rep(right)}")
                stack.extend(zip(reversed(left.alternatives),
                                 reversed(right.alternatives)))
                continue
            raise UnificationError(
                f"cannot unify runtime representations "
                f"{self._zonked_pretty_rep(left)} and "
                f"{self._zonked_pretty_rep(right)}: the types have different "
                "memory layouts / calling conventions")

    def _zonked_pretty_rep(self, rep: Rep) -> str:
        return self.zonk_rep(rep).pretty()

    def _bind_rep(self, var: RepVar, rep: Rep) -> None:
        """Bind head-resolved ``var`` to head-resolved ``rep``."""
        name = var.name
        root = (name if name not in self._ruf.parent
                else self._ruf.find(name))
        if isinstance(rep, RepVar) and rep.unification:
            # Only union participants need a name->object registration:
            # a solution-bound variable is always its own class root.
            self._rep_vars.setdefault(var.name, var)
            self._rep_vars.setdefault(rep.name, rep)
            other = self._ruf.find(rep.name)
            if other == root:
                return
            self._ruf.union(root, other, self.level)
        else:
            if self._occurs_rep(root, rep,
                                self._ruf.level.get(root, self.level)):
                raise OccursCheckError(
                    f"representation variable {var.name} occurs in "
                    f"{self.zonk_rep(rep).pretty()}")
            self._rep_sol[root] = rep
        self.stats.rep_bindings += 1

    def _occurs_rep(self, root: str, rep: Rep, level: int) -> bool:
        """Does the class ``root`` occur in ``rep`` (solutions resolved)?

        The same walk lowers every other unsolved class it meets that is
        deeper than ``level`` to ``level``.
        """
        self.stats.occurs_checks += 1
        find = self._ruf.find
        sols = self._rep_sol
        levels = self._ruf.level
        unentered = self.level
        stack: List[Rep] = [rep]
        seen: Set[int] = set()
        while stack:
            current = stack.pop()
            if isinstance(current, RepVar):
                if not current.unification:
                    continue
                r = find(current.name)
                solution = sols.get(r)
                if solution is not None:
                    stack.append(solution)
                elif r == root:
                    return True
                elif levels.get(r, unentered) > level:
                    levels[r] = level
                continue
            if not current.free_rep_vars():
                continue
            if id(current) in seen:
                continue
            seen.add(id(current))
            if isinstance(current, TupleRep):
                stack.extend(current.reps)
            elif isinstance(current, SumRep):
                stack.extend(current.alternatives)
        return False

    # -- kind unification --------------------------------------------------------

    def unify_kinds(self, kind1: Kind, kind2: Kind) -> None:
        """Unify two kinds.

        Under the old sub-kinding story this is where ``OpenKind`` magic
        lived; with levity polymorphism it is a structural walk that
        bottoms out in :meth:`unify_reps`: equal kinds pass, ``TYPE r1 ~
        TYPE r2`` unifies the reps, arrow kinds unify pointwise, and
        anything else fails.
        """
        self.stats.unify_kinds_calls += 1
        stack: List[Tuple[Kind, Kind]] = [(kind1, kind2)]
        while stack:
            left, right = stack.pop()
            if left is right or left == right:
                continue
            if isinstance(left, TypeKind) and isinstance(right, TypeKind):
                self.unify_reps(left.rep, right.rep)
                continue
            if isinstance(left, ArrowKind) and isinstance(right, ArrowKind):
                stack.append((left.result, right.result))
                stack.append((left.argument, right.argument))
                continue
            raise UnificationError(
                f"cannot unify kinds {self.zonk_kind(left).pretty()} and "
                f"{self.zonk_kind(right).pretty()}")

    # -- type unification ----------------------------------------------------------

    def unify_types(self, type1: SType, type2: SType) -> None:
        """First-order unification of (rank-1, forall-free) surface types."""
        self.stats.unify_types_calls += 1
        stack: List[Tuple[SType, SType]] = [(type1, type2)]
        while stack:
            left, right = stack.pop()
            left = self._head_type(left)
            right = self._head_type(right)
            if left is right:
                continue
            tl = type(left)
            tr = type(right)
            if tl is TyUVar:
                self._bind_type(left, right)
                continue
            if tr is TyUVar:
                self._bind_type(right, left)
                continue
            if tl is TyCon and tr is TyCon:
                if left.name != right.name:
                    raise UnificationError(
                        f"cannot match {left.name} with {right.name}")
                continue
            if tl is TyVar and tr is TyVar:
                if left.name != right.name:
                    raise UnificationError(
                        f"cannot match rigid type variables {left.name} and "
                        f"{right.name}")
                continue
            if tl is FunTy and tr is FunTy:
                stack.append((left.result, right.result))
                stack.append((left.argument, right.argument))
                continue
            if tl is TyApp and tr is TyApp:
                stack.append((left.argument, right.argument))
                stack.append((left.function, right.function))
                continue
            if tl is UnboxedTupleTy and tr is UnboxedTupleTy:
                if len(left.components) != len(right.components):
                    raise UnificationError(
                        "unboxed tuples have different arities: "
                        f"{self.zonk_type(left).pretty()} vs "
                        f"{self.zonk_type(right).pretty()}")
                stack.extend(zip(reversed(left.components),
                                 reversed(right.components)))
                continue
            raise UnificationError(
                f"cannot unify {self.zonk_type(left).pretty()} with "
                f"{self.zonk_type(right).pretty()}")

    def _bind_type(self, var: TyUVar, type_: SType) -> None:
        """Bind head-resolved ``var`` to head-resolved ``type_``."""
        name = var.name
        root = (name if name not in self._tuf.parent
                else self._tuf.find(name))
        if type(type_) is TyUVar:
            self._type_vars.setdefault(var.name, var)
            self._type_vars.setdefault(type_.name, type_)
            other = self._tuf.find(type_.name)
            if other == root:
                return
            # Kind preservation across the merged class: representation
            # information flows through the kinds (Section 5.2).
            self.unify_kinds(var.kind, type_.kind)
            self._tuf.union(root, other, self.level)
        else:
            if self._occurs_type(root, type_,
                                 self._tuf.level.get(root, self.level)):
                raise OccursCheckError(
                    f"type variable {var.name} occurs in "
                    f"{self.zonk_type(type_).pretty()} (infinite type)")
            # Kind preservation: the kinds of the two sides must unify, which
            # is how representation information flows (e.g. unifying
            # α :: TYPE ρ with Int# solves ρ := IntRep).
            self.unify_kinds(var.kind, self._kind_of(type_))
            self._type_sol[root] = type_
        self.stats.type_bindings += 1

    def _occurs_type(self, root: str, type_: SType, level: int) -> bool:
        """Does the class ``root`` occur in ``type_`` (solutions resolved)?

        The same walk lowers every other unsolved class it meets that is
        deeper than ``level`` to ``level``, and the rep classes of its kind
        with it.  (Type constructors and rigid type variables have
        closed kinds, so a subterm without type unification variables holds
        nothing to lower.)
        """
        self.stats.occurs_checks += 1
        find = self._tuf.find
        sols = self._type_sol
        levels = self._tuf.level
        unentered = self.level
        stack: List[SType] = [type_]
        seen: Set[int] = set()
        while stack:
            current = stack.pop()
            tc = type(current)
            if tc is TyUVar:
                r = find(current.name)
                solution = sols.get(r)
                if solution is not None:
                    stack.append(solution)
                elif r == root:
                    return True
                elif levels.get(r, unentered) > level:
                    levels[r] = level
                    self._lower_kind(current.kind, level)
                continue
            if not current.free_uvars():
                continue
            if id(current) in seen:
                continue
            seen.add(id(current))
            if tc is FunTy:
                stack.append(current.argument)
                stack.append(current.result)
            elif tc is TyApp:
                stack.append(current.function)
                stack.append(current.argument)
            elif tc is UnboxedTupleTy:
                stack.extend(current.components)
            elif tc is ForAllTy:
                stack.append(current.body)
            elif tc is QualTy:
                stack.append(current.body)
                stack.extend(c.argument for c in current.constraints)
        return False

    def _kind_of(self, type_: SType) -> Kind:
        """The kind of a possibly-unzonked type.

        A variable or constructor head carries its kind; any other term is
        zonked and kinded by :func:`repro.surface.types.kind_of_type`, whose
        ``KindError`` texts therefore print zonked subterms.  An inert term
        zonks to itself, so repeated binds against the same wide term hit
        ``kind_of_type``'s global memo.
        """
        type_ = self._head_type(type_)
        if isinstance(type_, (TyCon, TyVar, TyUVar)):
            return type_.kind
        return kind_of_type(self.zonk_type(type_))
