"""The paper's joinability relation (§6.3), decided by a common reduct.

Two M-expressions ``t1`` and ``t2`` are *joinable* (written ``t1 ⇔ t2``) when
they have a common reduct for any stack and heap.  The paper uses joinability
to state the Simulation theorem, because compiling an L redex and its reduct
may differ by administrative ``let`` bindings that need a few extra machine
steps before the common behaviour is visible.

:func:`joinable` runs both sides from an empty stack on a :class:`RunTable`,
which keys every non-final empty-stack configuration up to renaming.  A run
stops at the first configuration an earlier run reached: if both sides end
in one group, they have a common reduct (docs/VALIDATION.md gives the
argument that it holds for every stack and heap).  Otherwise the groups'
final results are compared: both abort, both are stuck, equal literals, or
λ values *probed* by applying each to the same argument (a literal for
integer binders, a heap-allocated boxed value for pointer binders) up to a
probe depth, after which the λs are compared by key.  A ``False`` answer
therefore really means "observably different".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

from ..core.errors import MachineError
from .machine import Heap, Machine, MachineResult
from .syntax import (
    MAppLit,
    MAppVar,
    MCase,
    MCaseLit,
    MConLit,
    MConVar,
    MError,
    MExpr,
    MFix,
    MLam,
    MLet,
    MLetStrict,
    MLit,
    MPrimOp,
    MVar,
    MVarRef,
    fresh_pointer_var,
)

#: Literal used to probe integer-expecting λ values.
_PROBE_LITERAL = 17
#: Boxed value used to probe pointer-expecting λ values.
_PROBE_BOXED = MConLit(23)


@dataclass(frozen=True)
class JoinReport:
    """The outcome of a joinability check, with an explanation for failures."""

    joinable: bool
    reason: str = ""
    #: True when both runs reached a common configuration.
    common_reduct: bool = False


class RunTable:
    """The machine runs of one trace and the configurations they reached.

    A run is identified by its term object and its starting heap, and
    happens at most once.  A run that reaches a configuration an earlier
    run reached stops there and joins that run's group.
    """

    def __init__(self) -> None:
        #: (term id, heap id) -> the run, and the two objects kept alive.
        self._runs: Dict[Tuple[int, int], tuple] = {}
        #: Run -> its group: the run of the group that went on to the end.
        self.group: List[int] = []
        #: Group -> its final result, or the error that stopped it.
        self._outcomes: Dict[int, Union[MachineResult, MachineError]] = {}
        #: Configuration key -> the run that reached it first.
        self._seen: Dict[int, int] = {}
        #: Hash-consed key nodes -> their numbers.
        self._nodes: Dict[tuple, int] = {}
        #: id of a closed ``fix`` -> its number, and the term kept alive.
        self._closed: Dict[int, Tuple[int, MFix]] = {}

    def run(self, term: MExpr, heap: Optional[Heap] = None,
            max_steps: int = 1_000_000) -> int:
        """Run ``term`` from an empty stack and ``heap``; returns the run."""
        slot = (id(term), id(heap))
        if slot in self._runs:
            return self._runs[slot][0]
        run = len(self.group)
        self._runs[slot] = (run, term, heap)
        self.group.append(run)
        machine = Machine(term, heap=heap)
        endless = MachineError(
            f"machine did not halt within {max_steps} steps")
        try:
            while not machine.is_final():
                if not machine.stack:
                    seen = len(self._seen)
                    owner = self._seen.setdefault(
                        self.key(machine.expr, machine.heap), run)
                    if owner != run:
                        self.group[run] = self.group[owner]
                        return run
                    if len(self._seen) == seen:
                        raise endless  # back where it was: it never halts
                if machine.costs.steps >= max_steps:
                    raise endless
                machine.step()
            self._outcomes[run] = machine.result()
        except MachineError as exc:
            self._outcomes[run] = exc
        return run

    def outcome(self, run: int) -> Union[MachineResult, MachineError]:
        """The final result of ``run``'s group, or the error that stopped
        it (a stuck machine, or one that never halts)."""
        return self._outcomes[self.group[run]]

    def key(self, expr: MExpr, heap: Heap) -> int:
        """The configuration ``⟨expr; ∅; heap⟩`` up to renaming: variables
        are numbered in order of first occurrence, each binder getting a
        new number, and the heap cells reachable from ``expr`` follow in
        the order their pointers were first seen.  Variables are keyed by
        name: a ``str`` caches its hash, while an ``MVar`` tuple combines
        the hashes of its two fields on every lookup.  A binder's name is
        scoped to its body, and free names are heap addresses, which are
        fresh and never repeat, so a free name stands for one cell.

        A closed ``fix`` refers to nothing around it, so it is keyed apart,
        under its own tag with its binders numbered from 0, and once per
        table: wherever it sits, its node is the same."""
        nodes = self._nodes
        intern = nodes.setdefault  # intern(node, len(nodes)) numbers node
        closed = self._closed
        names: Dict[str, int] = {}
        free: List[MVar] = []
        count = 0

        def var(v: MVar) -> int:
            nonlocal count
            number = names.get(v.name)
            if number is None:
                number = names[v.name] = count
                count += 1
                free.append(v)
            return number

        def bound(v: MVar, body: MExpr, rhs: Optional[MExpr] = None):
            # ``v`` scopes over ``body`` (and ``rhs``) with the next number,
            # which its place implies, so the node does not record it.
            nonlocal count
            name = v.name
            saved = names.get(name)
            names[name] = count
            count += 1
            inner = enc(body) if rhs is None else (enc(rhs), enc(body))
            if saved is None:
                del names[name]
            else:
                names[name] = saved
            return inner

        def enc(e: MExpr) -> int:
            kind = type(e)
            if kind is MVarRef:
                node = ("v", var(e.var))
            elif kind is MLit:
                node = ("n", e.value)
            elif kind is MAppLit:
                node = ("@n", enc(e.function), e.argument)
            elif kind is MAppVar:
                node = ("@v", enc(e.function), var(e.argument))
            elif kind is MLam:
                node = ("λ", e.var.sort, bound(e.var, e.body))
            elif kind is MLetStrict:
                node = ("let!", e.var.sort, enc(e.rhs),
                        bound(e.var, e.body))
            elif kind is MLet:
                # The machine's LET allocates the cell under the binder,
                # so the binder scopes over the right-hand side too.
                node = ("let", bound(e.var, e.body, e.rhs))
            elif kind is MCase:
                node = ("case", enc(e.scrutinee), bound(e.binder, e.body))
            elif kind is MCaseLit:
                node = ("caselit", enc(e.scrutinee),
                        tuple((literal, enc(branch))
                              for literal, branch in e.alternatives),
                        enc(e.default))
            elif kind is MPrimOp:
                node = ("prim", e.name, tuple(enc(a) for a in e.arguments))
            elif kind is MConLit:
                node = ("I", e.value)
            elif kind is MConVar:
                node = ("Iv", var(e.var))
            elif kind is MFix:
                if e.closed:
                    return closed_fix(e)
                node = ("fix", bound(e.var, e.body))
            elif kind is MError:
                node = ("error",)
            else:
                raise MachineError(f"cannot key expression {e.pretty()}")
            return intern(node, len(nodes))

        def closed_fix(e: MFix) -> int:
            nonlocal names, count
            known = closed.get(id(e))
            if known is None:
                outer = names, count
                names, count = {}, 0
                number = intern(("cfix", bound(e.var, e.body)), len(nodes))
                names, count = outer
                known = closed[id(e)] = (number, e)
            return known[0]

        root = enc(expr)
        cells = []
        for pointer in free:  # grows while cells are encoded
            cell = heap.get(pointer)
            cells.append(intern(("free", pointer.sort), len(nodes))
                         if cell is None else enc(cell))
        return intern((root, tuple(cells)), len(nodes))


def joinable(t1: MExpr, t2: MExpr,
             heap1: Optional[Heap] = None,
             heap2: Optional[Heap] = None,
             probe_depth: int = 3,
             max_steps: int = 100_000,
             table: Optional[RunTable] = None) -> JoinReport:
    """Test whether ``t1 ⇔ t2``: by a common reduct, else by comparing
    the final results.  ``table`` holds the runs of earlier tests, which
    these runs may meet; without one, a fresh table is used."""
    if table is None:
        table = RunTable()
    run1 = table.run(t1, heap1, max_steps)
    run2 = table.run(t2, heap2, max_steps)
    if table.group[run1] == table.group[run2]:
        return JoinReport(True, "common reduct", common_reduct=True)
    result1, result2 = table.outcome(run1), table.outcome(run2)

    stuck = [isinstance(r, MachineError) for r in (result1, result2)]
    if any(stuck):
        if all(stuck):
            return JoinReport(True, "both machines got stuck identically")
        return JoinReport(False, "one machine got stuck and the other did not")

    if result1.aborted or result2.aborted:
        if result1.aborted and result2.aborted:
            return JoinReport(True, "both aborted via error")
        return JoinReport(False, "only one side aborted via error")

    return _values_joinable(result1.unwrap(), dict(result1.heap),
                            result2.unwrap(), dict(result2.heap),
                            probe_depth, max_steps, table)


def _values_joinable(v1: MExpr, heap1: Heap, v2: MExpr, heap2: Heap,
                     probe_depth: int, max_steps: int,
                     table: RunTable) -> JoinReport:
    if isinstance(v1, MLit) and isinstance(v2, MLit):
        if v1.value == v2.value:
            return JoinReport(True, "equal integer results")
        return JoinReport(False, f"integers differ: {v1.value} vs {v2.value}")

    if isinstance(v1, MConLit) and isinstance(v2, MConLit):
        if v1.value == v2.value:
            return JoinReport(True, "equal boxed-integer results")
        return JoinReport(False,
                          f"boxed integers differ: {v1.value} vs {v2.value}")

    if isinstance(v1, MLam) and isinstance(v2, MLam):
        if v1.var.sort != v2.var.sort:
            return JoinReport(False, "λ binders expect different registers")
        if probe_depth <= 0:
            if table.key(v1, heap1) == table.key(v2, heap2):
                return JoinReport(True, "α-equivalent λ values")
            return JoinReport(
                True, "probe depth exhausted on λ values; assumed joinable")
        if v1.var.is_integer():
            probed1, new_heap1 = MAppLit(v1, _PROBE_LITERAL), heap1
            probed2, new_heap2 = MAppLit(v2, _PROBE_LITERAL), heap2
        else:
            pointer1 = fresh_pointer_var("probe")
            pointer2 = fresh_pointer_var("probe")
            new_heap1 = dict(heap1)
            new_heap1[pointer1] = _PROBE_BOXED
            new_heap2 = dict(heap2)
            new_heap2[pointer2] = _PROBE_BOXED
            probed1 = MAppVar(v1, pointer1)
            probed2 = MAppVar(v2, pointer2)
        return joinable(probed1, probed2, new_heap1, new_heap2,
                        probe_depth - 1, max_steps, table)

    return JoinReport(False,
                      f"result shapes differ: {v1.pretty()} vs {v2.pretty()}")
