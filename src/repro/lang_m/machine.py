"""The M abstract machine: states ⟨t; S; H⟩ and transitions (Figure 6).

A machine state is a triple of the expression under evaluation, a stack of
continuation frames, and a heap mapping pointer variables to (possibly
unevaluated) expressions.  The transition rules split into two groups:

* when the expression is **not** a value, the rule is chosen by the shape of
  the expression (PAPP, IAPP, VAL, EVAL, LET, SLET, CASE, ERR, and — for
  the whole-language extension — FIX, PRIM/PRIMARG, CASELIT);
* when the expression **is** a value, the rule is chosen by the top stack
  frame (PPOP, IPOP, FCE, ILET, IMAT, PRIMPOP, LMAT).

Rule EVAL pops the heap binding while the thunk is being forced and rule FCE
writes the computed value back — this is exactly GHC's thunk update
("blackholing" plus update frames), and is what makes lazy evaluation share
work.  The machine optionally counts work (allocations, thunk forces, stack
pushes) so the cost-model experiments can compare boxed and unboxed code on
the very semantics the paper formalises.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..core.errors import MachineError
from ..core.primops import primop_delta
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
    VALUE_FORMS,
    fresh_pointer_var,
)

# ---------------------------------------------------------------------------
# Stack frames S ::= ∅ | Force(p),S | App(p),S | App(n),S | Let(y,t),S | Case(y,t),S
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Frame:
    """Abstract base class of stack frames."""


@dataclass(frozen=True)
class ForceFrame(Frame):
    """``Force(p)`` — update pointer ``p`` with the value being computed."""

    pointer: MVar


@dataclass(frozen=True)
class AppVarFrame(Frame):
    """``App(p)`` — a pending application to the pointer variable ``p``."""

    pointer: MVar


@dataclass(frozen=True)
class AppLitFrame(Frame):
    """``App(n)`` — a pending application to the integer literal ``n``."""

    value: int


@dataclass(frozen=True)
class LetFrame(Frame):
    """``Let(y, t)`` — continue with ``t`` once the strict RHS is a value."""

    var: MVar
    body: MExpr


@dataclass(frozen=True)
class CaseFrame(Frame):
    """``Case(y, t)`` — continue with ``t`` once the scrutinee is ``I#[n]``."""

    var: MVar
    body: MExpr


@dataclass(frozen=True)
class PrimFrame(Frame):
    """``Prim(op, n̄; t̄)`` — a primop waiting for its next operand.

    ``done`` holds the literals already computed (left to right) and
    ``pending`` the operand expressions still to evaluate.
    """

    name: str
    done: Tuple[int, ...]
    pending: Tuple[MExpr, ...]


@dataclass(frozen=True)
class CaseLitFrame(Frame):
    """``CaseLit(alts, d)`` — select a branch once the scrutinee is ``n``."""

    alternatives: Tuple[Tuple[int, MExpr], ...]
    default: MExpr


Stack = Tuple[Frame, ...]
Heap = Dict[MVar, MExpr]


# ---------------------------------------------------------------------------
# Machine states and outcomes
# ---------------------------------------------------------------------------


@dataclass
class MachineCosts:
    """Operation counters recorded while the machine runs.

    These counters are the basis of the E1/E4 benchmarks: a boxed program
    performs many heap allocations and thunk forces where the unboxed
    version performs none.
    """

    steps: int = 0
    heap_allocations: int = 0
    thunk_forces: int = 0
    thunk_updates: int = 0
    heap_lookups: int = 0
    stack_pushes: int = 0
    stack_pops: int = 0
    substitutions: int = 0
    primops: int = 0
    fix_unrollings: int = 0
    branches: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "steps": self.steps,
            "heap_allocations": self.heap_allocations,
            "thunk_forces": self.thunk_forces,
            "thunk_updates": self.thunk_updates,
            "heap_lookups": self.heap_lookups,
            "stack_pushes": self.stack_pushes,
            "stack_pops": self.stack_pops,
            "substitutions": self.substitutions,
            "primops": self.primops,
            "fix_unrollings": self.fix_unrollings,
            "branches": self.branches,
        }


@dataclass(frozen=True)
class MachineState:
    """A machine state µ = ⟨t; S; H⟩."""

    expr: MExpr
    stack: Stack = ()
    heap: Tuple[Tuple[MVar, MExpr], ...] = ()

    def pretty(self) -> str:
        stack = ", ".join(type(f).__name__ for f in self.stack) or "∅"
        heap = ", ".join(f"{v.name}↦{e.pretty()}" for v, e in self.heap) or "∅"
        return f"⟨{self.expr.pretty()} ; {stack} ; {heap}⟩"

    def __repr__(self) -> str:
        return self.pretty()


@dataclass(frozen=True)
class MachineResult:
    """Outcome of running the machine to completion."""

    value: Optional[MExpr]          # final value w, or None if the machine aborted
    aborted: bool                   # True when ERR fired (the ⊥ outcome)
    heap: Tuple[Tuple[MVar, MExpr], ...]
    costs: MachineCosts

    @property
    def is_bottom(self) -> bool:
        return self.aborted

    def unwrap(self) -> MExpr:
        if self.value is None:
            raise MachineError("the machine aborted via error")
        return self.value


class Machine:
    """A mutable M machine implementing the Figure 6 transition rules.

    ``stack`` is given and reported top frame first, but kept top frame
    last, so that a push or a pop is O(1).
    """

    def __init__(self, expr: MExpr,
                 heap: Optional[Dict[MVar, MExpr]] = None,
                 stack: Optional[List[Frame]] = None) -> None:
        self.expr: MExpr = expr
        self.stack: List[Frame] = list(reversed(stack or ()))
        self.heap: Dict[MVar, MExpr] = dict(heap or {})
        self.costs = MachineCosts()
        self.aborted = False

    # -- state inspection ----------------------------------------------------

    def state(self) -> MachineState:
        return MachineState(self.expr, tuple(reversed(self.stack)),
                            tuple(self.heap.items()))

    def is_final(self) -> bool:
        """Final states: aborted, or a value with an empty stack."""
        return self.aborted or (not self.stack
                                and type(self.expr) in VALUE_FORMS)

    # -- the transition function ----------------------------------------------

    def step(self) -> bool:
        """Perform one transition.  Returns False when already final.

        Raises :class:`MachineError` when no rule applies (a stuck machine),
        which for compiled well-typed programs never happens.
        """
        if self.is_final():
            return False
        self.costs.steps += 1
        expr = self.expr

        if type(expr) not in VALUE_FORMS:
            self._step_expression(expr)
        else:
            self._step_value(expr)
        return True

    def _step_expression(self, expr: MExpr) -> None:
        if isinstance(expr, MAppVar):  # PAPP
            self.stack.append(AppVarFrame(expr.argument))
            self.costs.stack_pushes += 1
            self.expr = expr.function
            return
        if isinstance(expr, MAppLit):  # IAPP
            self.stack.append(AppLitFrame(expr.argument))
            self.costs.stack_pushes += 1
            self.expr = expr.function
            return
        if isinstance(expr, MVarRef):
            binding = self.heap.get(expr.var)
            if binding is None:
                raise MachineError(
                    f"pointer variable {expr.var.name!r} is not in the heap")
            self.costs.heap_lookups += 1
            if type(binding) in VALUE_FORMS:  # VAL
                self.expr = binding
                return
            # EVAL: blackhole the binding and push an update frame.
            del self.heap[expr.var]
            self.stack.append(ForceFrame(expr.var))
            self.costs.stack_pushes += 1
            self.costs.thunk_forces += 1
            self.expr = binding
            return
        if isinstance(expr, MLet):  # LET
            # Allocate a fresh address: reusing the binder's name would let
            # a second run of the same ``let`` overwrite a live cell.
            pointer = fresh_pointer_var(expr.var.name + "_")
            self.heap[pointer] = expr.rhs.substitute_var(expr.var, pointer)
            self.costs.heap_allocations += 1
            self.expr = expr.body.substitute_var(expr.var, pointer)
            return
        if isinstance(expr, MLetStrict):  # SLET
            self.stack.append(LetFrame(expr.var, expr.body))
            self.costs.stack_pushes += 1
            self.expr = expr.rhs
            return
        if isinstance(expr, MCase):  # CASE
            self.stack.append(CaseFrame(expr.binder, expr.body))
            self.costs.stack_pushes += 1
            self.expr = expr.scrutinee
            return
        if isinstance(expr, MFix):  # FIX
            # Tie the knot through the heap: allocate the fix term itself
            # as a thunk and continue with the body, so recursive
            # occurrences force it like any other pointer.  Under its own
            # Force frame the knot is being re-tied at its own address;
            # otherwise, as in LET, the address is fresh, so a second run
            # of the same ``fix`` cannot overwrite a live cell.
            pointer = expr.var
            top = self.stack[-1] if self.stack else None
            if type(top) is not ForceFrame or top.pointer != pointer:
                pointer = fresh_pointer_var(pointer.name + "_")
                expr = MFix(pointer, expr.body.substitute_var(expr.var,
                                                              pointer))
            self.heap[pointer] = expr
            self.costs.heap_allocations += 1
            self.costs.fix_unrollings += 1
            self.expr = expr.body
            return
        if isinstance(expr, MPrimOp):  # PRIM / PRIMARG
            done: List[int] = []
            rest = expr.arguments
            while rest and isinstance(rest[0], MLit):
                done.append(rest[0].value)
                rest = rest[1:]
            if rest:
                self.stack.append(PrimFrame(expr.name, tuple(done),
                                            tuple(rest[1:])))
                self.costs.stack_pushes += 1
                self.expr = rest[0]
                return
            self._apply_primop(expr.name, done)
            return
        if isinstance(expr, MCaseLit):  # CASELIT
            self.stack.append(CaseLitFrame(expr.alternatives,
                                           expr.default))
            self.costs.stack_pushes += 1
            self.expr = expr.scrutinee
            return
        if isinstance(expr, MError):  # ERR
            self.aborted = True
            return
        if isinstance(expr, MConVar):
            # I#[i] with i unsubstituted can only mean a free variable; the
            # compiler never produces it for closed programs.
            raise MachineError(
                f"I#[{expr.var.name}] has an unbound field variable")
        raise MachineError(f"no rule applies to expression {expr.pretty()}")

    def _step_value(self, value: MExpr) -> None:
        if not self.stack:
            raise MachineError("value with empty stack should be final")
        frame = self.stack.pop()
        self.costs.stack_pops += 1

        if isinstance(frame, AppVarFrame):  # PPOP
            if not isinstance(value, MLam):
                raise MachineError(
                    f"applied a non-function value {value.pretty()}")
            if not value.var.is_pointer():
                raise MachineError(
                    f"pointer argument {frame.pointer.name} passed to a "
                    f"lambda expecting an integer register")
            self.costs.substitutions += 1
            self.expr = value.body.substitute_var(value.var, frame.pointer)
            return
        if isinstance(frame, AppLitFrame):  # IPOP
            if not isinstance(value, MLam):
                raise MachineError(
                    f"applied a non-function value {value.pretty()}")
            if not value.var.is_integer():
                raise MachineError(
                    f"integer literal {frame.value} passed to a lambda "
                    "expecting a pointer register")
            self.costs.substitutions += 1
            self.expr = value.body.substitute_literal(value.var, frame.value)
            return
        if isinstance(frame, ForceFrame):  # FCE
            self.heap[frame.pointer] = value
            self.costs.thunk_updates += 1
            self.expr = value
            return
        if isinstance(frame, LetFrame):  # ILET
            if isinstance(value, MLit) and frame.var.is_integer():
                self.costs.substitutions += 1
                self.expr = frame.body.substitute_literal(frame.var,
                                                          value.value)
                return
            raise MachineError(
                f"strict let expected an integer value for "
                f"{frame.var.name!r}, got {value.pretty()}")
        if isinstance(frame, CaseFrame):  # IMAT
            if isinstance(value, MConLit):
                self.costs.substitutions += 1
                self.expr = frame.body.substitute_literal(frame.var,
                                                          value.value)
                return
            raise MachineError(
                f"case expected I#[n], got {value.pretty()}")
        if isinstance(frame, PrimFrame):  # PRIMPOP
            if not isinstance(value, MLit):
                raise MachineError(
                    f"primop {frame.name!r} expected an integer operand, "
                    f"got {value.pretty()}")
            done = frame.done + (value.value,)
            pending = frame.pending
            while pending and isinstance(pending[0], MLit):
                done += (pending[0].value,)
                pending = pending[1:]
            if pending:
                self.stack.append(PrimFrame(frame.name, done,
                                            pending[1:]))
                self.costs.stack_pushes += 1
                self.expr = pending[0]
                return
            self._apply_primop(frame.name, list(done))
            return
        if isinstance(frame, CaseLitFrame):  # LMAT
            if not isinstance(value, MLit):
                raise MachineError(
                    f"literal case expected an integer scrutinee, got "
                    f"{value.pretty()}")
            self.costs.branches += 1
            for literal, branch in frame.alternatives:
                if literal == value.value:
                    self.expr = branch
                    return
            self.expr = frame.default
            return
        raise MachineError(f"unknown stack frame {frame!r}")

    def _apply_primop(self, name: str, operands: List[int]) -> None:
        """The delta rule (PRIM); division by zero aborts like ERR."""
        try:
            result = primop_delta(name, operands)
        except (KeyError, ValueError) as exc:
            raise MachineError(f"ill-formed primop application: {exc}")
        self.costs.primops += 1
        if result is None:  # PRIMBOT: quot/rem by zero is ⊥
            self.aborted = True
            return
        self.expr = MLit(result)

    # -- drivers ---------------------------------------------------------------

    def run(self, max_steps: int = 1_000_000) -> MachineResult:
        """Run until a final state; raise if it is still not final after
        ``max_steps`` steps."""
        for _ in range(max_steps):
            if not self.step():
                break
        if not self.is_final():
            raise MachineError(
                f"machine did not halt within {max_steps} steps")
        return self.result()

    def result(self) -> MachineResult:
        """The outcome of a machine in a final state."""
        value = None if self.aborted else self.expr
        return MachineResult(value, self.aborted, tuple(self.heap.items()),
                             self.costs)

    def trace(self, max_steps: int = 10_000) -> List[MachineState]:
        """Run and collect every intermediate state (for debugging/tests)."""
        states = [self.state()]
        for _ in range(max_steps):
            if not self.step():
                break
            states.append(self.state())
        return states


def run(expr: MExpr, max_steps: int = 1_000_000,
        heap: Optional[Dict[MVar, MExpr]] = None) -> MachineResult:
    """Run ``expr`` on a fresh machine with an empty stack."""
    return Machine(expr, heap=heap).run(max_steps=max_steps)
