"""The differential harness: generated programs against six oracles.

Every generated program (:class:`repro.fuzz.generator.GenProgram`) carries
its intended binding types, a reference value for ``main`` and a flag saying
whether it was generated inside the compilable L fragment.  The harness
drives each program through the real pipeline and checks:

=================  ==========================================================
oracle             property checked
=================  ==========================================================
``typecheck``      the program parses and type-checks; inference lands on the
                   generator's intended type for **every** binding (rendered
                   schemes compared exactly — including the deliberately
                   unsigned bindings, whose type inference must reconstruct)
``roundtrip``      ``parse(source)`` equals the generated AST, and
                   ``parse(pretty(parse(source)))`` is a fixpoint — the
                   printer and parser stay inverses over the whole grammar
``run``            ``main`` evaluates without error on the cost-model
                   evaluator
``reference``      the evaluator's value equals the generator's independent
                   reference semantics (exact integers — this is the oracle
                   that caught the ``quotInt#`` float-precision bug)
``differential``   every entry that lowers runs on the Figure-7 M machine
                   and must agree with the evaluator (agreement on ⊥
                   included); fragment-mode programs *must* engage the
                   machine (a silently skipped cross-check is itself a
                   failure), and skips vs not-comparable results are
                   counted separately (``machine_engaged`` /
                   ``machine_not_comparable`` /
                   ``machine_skipped_out_of_fragment``)
``validate``       per-program translation validation
                   (:mod:`repro.validate`): each recorded L step is
                   compiled and discharged as a §6.3 joinability
                   obligation, plus an uncapped end-to-end answer check
=================  ==========================================================

A corpus is type-checked in one
:meth:`repro.driver.session.Session.check_many` call, the unit walk every
check runs; ``jobs=``/``cache=`` are forwarded to it, which is how the CLI
and ``bench_e14`` run 1000+-program corpora.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.errors import ParseError
from ..driver.session import CheckResult, DriverOptions, Session
from ..frontend.parser import parse_module
from ..infer.schemes import Scheme
from ..pretty.printer import render_scheme
from .generator import GenProgram

__all__ = [
    "DifferentialHarness",
    "FuzzFailure",
    "FuzzReport",
]


@dataclass(frozen=True)
class FuzzFailure:
    """One oracle violation on one generated program."""

    oracle: str      # "typecheck" | "roundtrip" | "run" | "reference"
    #                # | "differential" | "validate"
    filename: str
    message: str
    source: str

    def pretty(self) -> str:
        return f"[{self.oracle}] {self.filename}: {self.message}"


@dataclass
class FuzzReport:
    """Outcome of a corpus run."""

    programs: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def bump(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def pretty(self, max_failures: int = 5) -> str:
        lines = [f"fuzz: {self.programs} program(s), "
                 f"{len(self.failures)} failure(s)"]
        for key in sorted(self.counters):
            lines.append(f"  {key}: {self.counters[key]}")
        for failure in self.failures[:max_failures]:
            lines.append(failure.pretty())
            lines.append("--- source " + "-" * 40)
            lines.append(failure.source.rstrip())
            lines.append("-" * 51)
        if len(self.failures) > max_failures:
            lines.append(f"... and {len(self.failures) - max_failures} more")
        return "\n".join(lines)


class DifferentialHarness:
    """Run generated programs through the pipeline and all oracles."""

    def __init__(self, options: Optional[DriverOptions] = None,
                 session: Optional[Session] = None,
                 validate: bool = True,
                 align_steps: int = 12) -> None:
        self.session = session or Session(options)
        #: Discharge the per-program Simulation obligations (the sixth
        #: oracle) for every program that engages the machine.  The small
        #: ``align_steps`` default keeps corpus runs inside a test-suite
        #: time budget; the end-to-end answer comparison is uncapped.
        self.validate = validate
        self.align_steps = align_steps

    # -- single programs -------------------------------------------------------

    def check_program(self, program: GenProgram,
                      check: Optional[CheckResult] = None,
                      report: Optional[FuzzReport] = None
                      ) -> List[FuzzFailure]:
        """All oracle violations for one program (empty list = clean)."""
        failures: List[FuzzFailure] = []

        def fail(oracle: str, message: str) -> None:
            failures.append(FuzzFailure(oracle, program.filename, message,
                                        program.source))

        if check is None:
            check = self.session.check(program.source, program.filename)
        if not check.ok:
            fail("typecheck", "; ".join(d.pretty() for d in check.errors))
            return failures
        self._check_intended_types(program, check, fail)
        self._check_roundtrip(program, fail)
        self._check_execution(program, fail, report, check)
        return failures

    def _check_intended_types(self, program: GenProgram, check: CheckResult,
                              fail) -> None:
        printer_options = self.session.options.printer_options()
        rendered_by_name = {binding.name: binding.rendered
                            for binding in check.bindings}
        for name, intended in program.intended.items():
            want = render_scheme(Scheme.from_type(intended), printer_options)
            got = rendered_by_name.get(name)
            if got != want:
                kind = "unsigned " if name in program.unsigned else ""
                fail("typecheck",
                     f"{kind}binding {name!r} inferred {got!r}, the "
                     f"generator intended {want!r}")

    def _check_roundtrip(self, program: GenProgram, fail) -> None:
        try:
            reparsed = parse_module(program.source, program.filename).module
        except ParseError as exc:
            fail("roundtrip", f"generated source failed to re-parse: {exc}")
            return
        if reparsed != program.module:
            fail("roundtrip",
                 "parse(source) differs from the generated AST")
            return
        printed = reparsed.pretty()
        try:
            again = parse_module(printed, program.filename).module
        except ParseError as exc:
            fail("roundtrip",
                 f"pretty-printed module failed to re-parse: {exc}\n"
                 f"--- printed ---\n{printed}")
            return
        if again != reparsed:
            fail("roundtrip", "parse . pretty is not a fixpoint")

    def _check_execution(self, program: GenProgram, fail,
                         report: Optional[FuzzReport],
                         check: Optional[CheckResult] = None) -> None:
        if check is not None and check.parsed is not None:
            # Full in-process results carry the parse tree and schemes, so
            # the run stage must not pay for a second parse+infer pass.
            run = self.session.run_from_check(check)
        else:
            # Slim results (sharded workers / cache hits) cannot seed the
            # evaluator; re-check in-process for the execution oracles.
            run = self.session.run(program.source, program.filename)
        if not run.ok:
            fail("run", "; ".join(d.pretty() for d in run.check.errors))
            return
        if program.expected_value is not None \
                and run.value != program.expected_value:
            fail("reference",
                 f"evaluator produced {run.value!r}, the reference "
                 f"semantics computed {program.expected_value!r}")
        if run.machine_agrees is False:
            fail("differential",
                 f"M machine produced {run.machine_value!r} "
                 f"({run.machine_steps} steps), the evaluator produced "
                 f"{run.value!r}")
        # The cross-check outcome is genuinely three-valued, and the old
        # `machine_agrees is None` test conflated two of them: "the
        # machine ran but the result is a function" and "the machine
        # never ran".  `machine_skipped` separates them.
        engaged = run.machine_value is not None
        if program.fragment and not engaged:
            fail("differential",
                 "fragment-mode program skipped the machine cross-check: "
                 + (run.machine_skipped
                    or "no lowering diagnostic recorded"))
        if report is not None:
            if engaged:
                report.bump("machine_engaged")
                if run.machine_agrees is None:
                    report.bump("machine_not_comparable")
            elif run.machine_skipped is not None:
                report.bump("machine_skipped_out_of_fragment")
            if program.expected_value is not None:
                report.bump("reference_checked")
        if engaged and self.validate:
            self._check_validation(program, fail, report, run)

    def _check_validation(self, program: GenProgram, fail,
                          report: Optional[FuzzReport], run) -> None:
        """Discharge the per-program Simulation obligations (§6.3)."""
        from ..validate import validate_check

        verdict = validate_check(self.session, run.check,
                                 align_steps=self.align_steps)
        if not verdict.engaged:
            # The entry lowered a moment ago (the machine engaged), so a
            # skip here means L evaluation did not settle inside the
            # validator's budget — informational, not a finding.
            if report is not None:
                report.bump("validation_skipped")
            return
        if report is not None:
            report.bump("validated")
            report.bump("obligations_discharged",
                        verdict.obligations_checked)
        if not verdict.ok:
            fail("validate", verdict.pretty())

    # -- corpora ---------------------------------------------------------------

    def run_corpus(self, programs: Sequence[GenProgram],
                   jobs: Optional[int] = None,
                   cache=None, stats=None) -> FuzzReport:
        """Check a whole corpus through :meth:`Session.check_many`, then
        run every oracle per program.  ``jobs``/``cache`` shard the
        type-check pass at binding granularity, so a re-fuzz over a
        mostly-unchanged corpus re-checks only the bindings that actually
        changed (``stats`` observes the unit cache exactly as ``repro
        check --stats`` does).  The run/roundtrip oracles are inherently
        in-process."""
        report = FuzzReport()
        checks = self.session.check_many(
            [(program.filename, program.source) for program in programs],
            jobs=jobs, cache=cache, stats=stats)
        for program, check in zip(programs, checks):
            report.programs += 1
            if program.fragment:
                report.bump("fragment_programs")
            report.bump("bindings", len(program.intended))
            report.bump("unsigned_bindings", len(program.unsigned))
            report.failures.extend(
                self.check_program(program, check, report))
        return report
