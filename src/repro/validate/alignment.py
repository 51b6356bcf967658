"""Per-program translation validation for the Figure-7 compiler.

The paper's Simulation theorem (§6.3) says: if ``e −→ e'`` in L, then
``C(e)`` and ``C(e')`` are *joinable* in M — compiling every expression
along an L evaluation has a common machine reduct, so the compiled
program cannot drift away from the source semantics.  The proof in the
paper is by induction on the step relation; this module *mechanically
discharges* the theorem's obligations for one concrete program:

* evaluate the lowered L entry with a recorded trace ``e₀ −→ e₁ −→ …``;
* compile each trace term once, and for each consecutive pair run the
  :func:`repro.lang_m.joinability.joinable` test on the trace's one
  ``RunTable``: each compiled term runs at most once, and stops at the
  first configuration an earlier run reached — a common reduct;
* compare the final answer of ``C(e₀)``'s run against the evaluator's
  (including *agreement on ⊥*: L bottoms exactly when the machine aborts).

The first obligation that fails is reported with its step index and the
two L expressions involved, which is exactly the counterexample shape a
translation-validation tool hands to a compiler engineer: not "the
answers differ" but "the simulation broke *here*".

Callers cap the number of obligations with ``align_steps``; the
end-to-end answer comparison is unconditional, so a capped run still
validates the final result — the cap only bounds how precisely a
divergence would be localised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Union

from ..core.errors import CompilationError, EvaluationError, MachineError
from ..lang_l.semantics import evaluate
from ..lang_l.syntax import Context, LExpr
from ..lang_m.joinability import RunTable, joinable
from ..lang_m.syntax import MConLit, MExpr, MLit
from ..compile.compiler import compile_expr

__all__ = [
    "Obligation",
    "ValidationReport",
    "validate_term",
]


@dataclass(frozen=True)
class Obligation:
    """One Simulation obligation ``C(eᵢ) ⇔ C(eᵢ₊₁)`` and its verdict."""

    index: int
    discharged: bool
    reason: str
    before: str = ""
    after: str = ""
    #: True when a common reduct, not the final answers, discharged it.
    common_reduct: bool = False


@dataclass
class ValidationReport:
    """Everything the validator learned about one program."""

    filename: str = "<input>"
    entry: str = "main"
    ok: bool = True
    #: False when validation could not engage at all (the entry did not
    #: lower, or L evaluation exceeded its step budget).
    engaged: bool = True
    reason: str = ""
    l_steps: int = 0
    obligations_checked: int = 0
    #: Obligations discharged by a common reduct / by final answers.
    by_common_reduct: int = 0
    by_final_answer: int = 0
    #: Index of the first L step whose obligation failed, if any.
    first_divergence: Optional[int] = None
    failed: List[Obligation] = field(default_factory=list)
    #: End-to-end machine verdict: True (same answer, or both ⊥),
    #: False (observable disagreement), None (not comparable/not run).
    machine_agrees: Optional[bool] = None
    machine_value: str = ""
    l_value: str = ""

    def as_dict(self) -> dict:
        return {
            "filename": self.filename,
            "entry": self.entry,
            "ok": self.ok,
            "engaged": self.engaged,
            "reason": self.reason,
            "l_steps": self.l_steps,
            "obligations_checked": self.obligations_checked,
            "by_common_reduct": self.by_common_reduct,
            "by_final_answer": self.by_final_answer,
            "first_divergence": self.first_divergence,
            "machine_agrees": self.machine_agrees,
            "machine_value": self.machine_value,
            "l_value": self.l_value,
        }

    def pretty(self) -> str:
        if not self.engaged:
            return (f"validate {self.filename}: skipped ({self.reason})")
        if self.ok:
            agreement = {True: f"machine agrees: {self.machine_value}",
                         False: "machine DISAGREES",
                         None: "machine result not comparable"}
            return (f"validate {self.filename}: ok — {self.l_steps} L "
                    f"step(s), {self.obligations_checked} obligation(s) "
                    f"discharged, {agreement[self.machine_agrees]}")
        lines = [f"validate {self.filename}: FAILED — {self.reason}"]
        for obligation in self.failed[:3]:
            lines.append(f"  step {obligation.index}: {obligation.reason}")
            if obligation.before:
                lines.append(f"    before: {obligation.before}")
                lines.append(f"    after : {obligation.after}")
        return "\n".join(lines)


def _clip(text: str, width: int = 120) -> str:
    return text if len(text) <= width else text[:width - 1] + "…"


def validate_term(term: LExpr, *,
                  filename: str = "<input>",
                  entry: str = "main",
                  align_steps: int = 64,
                  probe_depth: int = 2,
                  eval_steps: int = 10_000,
                  machine_steps: int = 1_000_000) -> ValidationReport:
    """Discharge the Simulation obligations for one lowered L entry."""
    report = ValidationReport(filename=filename, entry=entry)
    ctx = Context()

    try:
        outcome = evaluate(term, ctx, max_steps=eval_steps, keep_trace=True)
    except EvaluationError as exc:
        report.engaged = False
        report.reason = f"L evaluation did not settle: {exc}"
        return report
    trace = outcome.trace or [term]
    report.l_steps = outcome.steps
    report.l_value = ("⊥" if outcome.is_bottom
                      else outcome.unwrap().pretty())

    # Per-step obligations: C(eᵢ) ⇔ C(eᵢ₊₁) for a prefix of the trace.
    budget = min(len(trace) - 1, max(align_steps, 0))
    codes = [_compile(expr, ctx) for expr in trace[:budget + 1]]
    table = RunTable()
    for index in range(budget):
        obligation = _discharge(index, trace, codes, table,
                                probe_depth, machine_steps)
        report.obligations_checked += 1
        if not obligation.discharged:
            report.failed.append(obligation)
            if report.first_divergence is None:
                report.first_divergence = index
        elif obligation.common_reduct:
            report.by_common_reduct += 1
        else:
            report.by_final_answer += 1
    # The machine validates the *answer* even when align_steps capped the
    # per-step sweep (or an obligation already failed mid-trace).
    report.machine_agrees, report.machine_value = _final_agreement(
        codes[0], outcome, table, machine_steps)

    if report.first_divergence is not None:
        report.ok = False
        report.reason = (f"first diverging step is "
                         f"{report.first_divergence} of {report.l_steps}")
    elif report.machine_agrees is False:
        report.ok = False
        report.reason = (f"machine answer {report.machine_value!r} "
                         f"disagrees with L's {report.l_value!r}")
    return report


def _compile(expr: LExpr, ctx: Context) -> Union[MExpr, CompilationError]:
    try:
        return compile_expr(expr, ctx).code
    except CompilationError as exc:
        return exc


def _discharge(index: int, trace: List[LExpr],
               codes: List[Union[MExpr, CompilationError]],
               table: RunTable, probe_depth: int,
               machine_steps: int) -> Obligation:
    before, after = trace[index], trace[index + 1]
    for failure in codes[index:index + 2]:
        if isinstance(failure, CompilationError):
            # Preservation + Compilation say every trace expression
            # compiles; failing to is itself a validation counterexample.
            return Obligation(index, False,
                              f"trace expression failed to compile: {failure}",
                              _clip(before.pretty()), _clip(after.pretty()))
    verdict = joinable(codes[index], codes[index + 1],
                       probe_depth=probe_depth, max_steps=machine_steps,
                       table=table)
    if verdict.joinable:
        return Obligation(index, True, verdict.reason,
                          common_reduct=verdict.common_reduct)
    return Obligation(index, False, f"not joinable: {verdict.reason}",
                      _clip(before.pretty()), _clip(after.pretty()))


def _final_agreement(code: Union[MExpr, CompilationError], outcome,
                     table: RunTable, machine_steps: int):
    """Compare the final answer of ``C(e₀)``'s run with L's."""
    from ..lang_l.syntax import Con, Lit

    if isinstance(code, CompilationError):
        return False, f"machine run failed: {code}"
    machine = table.outcome(table.run(code, max_steps=machine_steps))
    if isinstance(machine, MachineError):
        return False, f"machine run failed: {machine}"

    if outcome.is_bottom:
        if machine.aborted:
            return True, "error"
        return False, machine.unwrap().pretty()
    if machine.aborted:
        return False, "error"

    value = outcome.unwrap()
    answer = machine.unwrap()
    if isinstance(answer, MLit):
        agrees = isinstance(value, Lit) and value.value == answer.value
        return agrees, answer.pretty()
    if isinstance(answer, MConLit):
        # Boxed integer: the L value is the `I#[n]` constructor form.
        if isinstance(value, Con) and isinstance(value.argument, Lit):
            return value.argument.value == answer.value, answer.pretty()
        return False, answer.pretty()
    # λ and anything else: no canonical comparison.
    return None, answer.pretty()
