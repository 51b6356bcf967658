"""Per-program translation validation (:mod:`repro.validate`).

Three layers are pinned here:

* :func:`repro.validate.validate_term` — obligation discharge along real
  L traces, agreement on ⊥, and *first-diverging-step* reporting when the
  compiler is (deliberately) sabotaged;
* the runner surface — files, project directories and skip reasons, plus
  the ``python -m repro validate`` exit-code contract (nonzero only on
  genuine divergence);
* the session wiring — :func:`repro.validate.validate_check` validates
  the entry of a module a ``Session`` checked, ⊥ entries included.
"""

import dataclasses
import glob
import json
import os
import re

import pytest

from repro.compile import compile_expr
from repro.core.errors import CompilationError, MachineError
from repro.driver import Session
from repro.driver.lower import LoweringError, lower_entry
from repro.fuzz import GenOptions, generate_corpus
from repro.lang_l import Context, Fix, Lit, PrimOp
from repro.lang_l.semantics import evaluate
from repro.lang_l.syntax import Con
from repro.lang_m import MConLit, MLam, MLit, run as run_machine
from repro.validate import (
    ValidationReport,
    validate_check,
    validate_paths,
    validate_term,
)

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")

SUM_TO = (
    "sumTo# :: Int# -> Int# -> Int#\n"
    "sumTo# acc n = case n <=# 0# of "
    "{ 1# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }\n"
    "main :: Int#\n"
    "main = sumTo# 0# 10#\n")

#: `sumTo#` inlined at two call sites: one closed `fix` object, twice.
TWO_SITES = SUM_TO.replace("main = sumTo# 0# 10#",
                           "main = sumTo# 0# 3# +# sumTo# 0# 4#")

FIB = (
    "fib :: Int# -> Int#\n"
    "fib n = case n <=# 1# of "
    "{ 1# -> n; _ -> fib (n -# 1#) +# fib (n -# 2#) }\n"
    "main :: Int#\n"
    "main = fib 6#\n")

#: Non-tail recursion: its runs return to an empty stack only at the end.
SUM_NT = (
    "sumNT :: Int# -> Int#\n"
    "sumNT n = case n of { 0# -> 0#; _ -> n +# sumNT (n -# 1#) }\n"
    "main :: Int#\n"
    "main = sumNT 20#\n")

#: A lazy accumulator: each call allocates a thunk that reads the
#: previous call's thunk.
LAZY_ACC = (
    "go :: Int -> Int# -> Int\n"
    "go acc k = case k ==# 0# of { 1# -> acc; _ -> go (case acc of "
    "{ I# a -> I# (a +# k) }) (k -# 1#) }\n"
    "main :: Int\n"
    "main = go (I# 0#) 3#\n")


def _example(name):
    with open(os.path.join(EXAMPLES, name), encoding="utf-8") as handle:
        return handle.read()


def _lowered(source):
    """The lowered ``main`` of ``source``, or None outside the fragment."""
    check = Session().check(source)
    if not check.ok:
        return None
    schemes = {b.name: b.scheme for b in check.bindings
               if b.scheme is not None}
    try:
        return lower_entry(check.parsed.module, schemes, "main")
    except LoweringError:
        return None


def _answer(expr):
    """Compile ``expr`` afresh and run it to its final answer."""
    try:
        result = run_machine(compile_expr(expr).code)
    except (CompilationError, MachineError):
        return "stuck", None
    if result.aborted:
        return "error", None
    value = result.unwrap()
    if isinstance(value, MLam):
        return ("λ", value.var.sort), value
    return value, value


def _reference(term, align_steps=64):
    """What ``validate_term`` must report, by running both sides of every
    obligation to their final answers on fresh machines."""
    outcome = evaluate(term, Context(), max_steps=10_000, keep_trace=True)
    trace = outcome.trace or [term]
    budget = min(len(trace) - 1, align_steps)
    answers = [_answer(expr)[0] for expr in trace[:budget + 1]]
    first = next((i for i in range(budget)
                  if answers[i] != answers[i + 1]), None)
    final, value = _answer(trace[0])
    if final == "stuck":
        agrees, shown = False, "machine run failed"
    elif outcome.is_bottom:
        agrees = final == "error"
        shown = "error" if agrees else value.pretty()
    elif final == "error":
        agrees, shown = False, "error"
    else:
        expected = outcome.unwrap()
        if isinstance(value, MLit):
            agrees = isinstance(expected, Lit) and \
                expected.value == value.value
        elif isinstance(value, MConLit):
            agrees = isinstance(expected, Con) and \
                isinstance(expected.argument, Lit) and \
                expected.argument.value == value.value
        else:
            agrees = None
        shown = value.pretty()
    return {"ok": first is None and agrees is not False,
            "first_divergence": first,
            "obligations_checked": budget,
            "machine_agrees": agrees,
            "machine_value": shown}


def _differential_inputs():
    sources = []
    for path in sorted(glob.glob(os.path.join(EXAMPLES, "*.lev"))):
        with open(path, encoding="utf-8") as handle:
            sources.append((os.path.basename(path), handle.read()))
    sources.append(("lazyacc.lev", LAZY_ACC))
    for program in generate_corpus(20260731, 40,
                                   GenOptions(fragment_bias=1.0)):
        sources.append((program.filename, program.source))
    return [pytest.param(source, id=name) for name, source in sources]


class TestValidateTerm:
    def test_discharges_obligations_along_a_primop_trace(self):
        term = PrimOp("+#", (PrimOp("*#", (Lit(2), Lit(3))), Lit(4)))
        report = validate_term(term)
        assert report.ok and report.engaged
        assert report.l_steps >= 2
        assert report.obligations_checked == report.l_steps
        assert report.first_divergence is None
        assert report.machine_agrees is True
        assert report.machine_value == "10"

    def test_agreement_on_bottom(self):
        # quot-by-zero: L steps to ⊥ (S_PRIMBOT), the machine aborts —
        # that is agreement, not a divergence.
        term = PrimOp("quotInt#", (Lit(1), Lit(0)))
        report = validate_term(term)
        assert report.ok, report.pretty()
        assert report.l_value == "⊥"
        assert report.machine_value == "error"
        assert report.machine_agrees is True

    def test_align_steps_caps_the_sweep_not_the_answer(self):
        term = PrimOp("+#", (PrimOp("+#", (Lit(1), Lit(2))),
                             PrimOp("+#", (Lit(3), Lit(4)))))
        report = validate_term(term, align_steps=1)
        assert report.ok
        assert report.obligations_checked == 1
        assert report.machine_agrees is True

    def test_sabotaged_compiler_reports_the_first_diverging_step(
            self, monkeypatch):
        # Simulate a miscompilation: every compiled `Lit 3` becomes
        # `MLit 4`.  The trace PrimOp(+#,1,2) -> Lit 3 then fails its
        # §6.3 obligation at step 0, and the report localises it.
        import repro.validate.alignment as alignment
        from repro.lang_m.syntax import MLit

        real = alignment.compile_expr

        def sabotaged(expr, ctx, **kwargs):
            result = real(expr, ctx, **kwargs)
            if isinstance(expr, Lit) and expr.value == 3:
                return dataclasses.replace(result, code=MLit(4))
            return result

        monkeypatch.setattr(alignment, "compile_expr", sabotaged)
        report = validate_term(PrimOp("+#", (Lit(1), Lit(2))))
        assert not report.ok
        assert report.first_divergence == 0
        assert report.failed and "not joinable" in report.failed[0].reason
        assert "first diverging step is 0" in report.reason
        assert "FAILED" in report.pretty()

    @pytest.mark.parametrize("source", _differential_inputs())
    def test_agrees_with_running_every_obligation_to_its_answer(
            self, source):
        term = _lowered(source)
        if term is None:
            pytest.skip("entry is outside the L fragment")
        report = validate_term(term)
        assert report.engaged
        expected = _reference(term)
        observed = {key: getattr(report, key) for key in expected}
        if expected["machine_value"] == "machine run failed":
            assert report.machine_value.startswith("machine run failed")
            observed["machine_value"] = expected["machine_value"]
        if expected["machine_agrees"] is None:
            # A λ answer prints with the names of its own compilation.
            assert report.machine_value.startswith("\\")
            observed["machine_value"] = expected["machine_value"]
        assert observed == expected
        assert report.by_common_reduct + report.by_final_answer == \
            report.obligations_checked - len(report.failed)

    def test_tail_loop_obligations_meet_at_a_common_reduct(self):
        (report,) = validate_paths([os.path.join(EXAMPLES, "sum_to.lev")])
        assert report.ok
        assert (report.by_common_reduct, report.by_final_answer) == (64, 0)
        document = report.as_dict()
        assert document["by_common_reduct"] == 64
        assert document["by_final_answer"] == 0

    def test_lazy_accumulator_validates(self):
        report = validate_term(_lowered(LAZY_ACC))
        assert report.ok, report.pretty()
        assert report.machine_agrees is True
        assert report.machine_value == "I#[6]"

    def test_one_fix_run_twice_validates(self):
        # `g i = fix f. \x. case x of { 0 -> i; _ -> f (x -# 1) }`: the
        # machine runs the one compiled `fix` for `g 1` and for `g 2`,
        # and `g 1`'s loop must still read its own cell afterwards.
        from repro.compile import compile_and_run
        from repro.lang_l.syntax import (
            App, CaseLit, INT_HASH, Lam, Var, app, arrow)

        int_fun = arrow(INT_HASH, INT_HASH)
        loop = Fix("f", int_fun, Lam("x", INT_HASH, CaseLit(
            Var("x"), ((0, Var("i")),),
            App(Var("f"), PrimOp("-#", (Var("x"), Lit(1)))))))
        uses = Lam("h1", int_fun, Lam("h2", int_fun, App(
            Lam("s", INT_HASH, App(Lam("r", INT_HASH, App(Var("h1"), Lit(1))),
                                   App(Var("h2"), Lit(0)))),
            App(Var("h1"), Lit(0)))))
        term = App(Lam("g", arrow(INT_HASH, INT_HASH, INT_HASH),
                       app(uses, App(Var("g"), Lit(1)),
                           App(Var("g"), Lit(2)))),
                   Lam("i", INT_HASH, loop))
        assert evaluate(term).unwrap() == Lit(1)
        assert compile_and_run(term).unwrap() == MLit(1)
        report = validate_term(term)
        assert report.ok, report.pretty()
        assert report.obligations_checked == 21

    def test_nontermination_is_a_skip_not_a_verdict(self):
        # `(fix f. \x. f x) (I# 0)` spins forever; the validator cannot
        # align a trace that never settles, and says so instead of
        # rendering a verdict.
        from repro.lang_l.syntax import App, INT, Var, arrow, boxed_int, lam

        omega = Fix("f", arrow(INT, INT),
                    lam("x", INT, App(Var("f"), Var("x"))))
        report = validate_term(App(omega, boxed_int(0)), eval_steps=50)
        assert not report.engaged
        assert "did not settle" in report.reason


def _validated(source, align_steps=64):
    session = Session()
    return validate_check(session, session.check(source),
                          align_steps=align_steps)


class TestSharedClosedFix:
    """Trace terms share their closed `fix` objects: a validation compiles
    each once, and reports what it reported when it compiled every copy."""

    @pytest.mark.parametrize("source, align_steps", [
        (_example("sum_to.lev"), 64), (_example("sum_to.lev"), 256),
        (FIB, 256)], ids=["sum_to", "sum_to_256", "fib_256"])
    def test_a_validation_compiles_each_closed_fix_once(
            self, monkeypatch, source, align_steps):
        import repro.validate.alignment as alignment

        real = alignment.compile_expr
        forms = []

        def spy(*args, **kwargs):
            result = real(*args, **kwargs)
            forms.append(result.fix_forms)
            return result

        monkeypatch.setattr(alignment, "compile_expr", spy)
        report = _validated(source, align_steps)
        assert report.ok
        assert len(forms) == report.obligations_checked + 1
        assert sum(forms) == 1

    def test_a_standalone_compile_names_each_copy_apart(self):
        term = _lowered(TWO_SITES)
        alone = compile_expr(term)
        assert alone.fix_forms == 2
        names = re.findall(r"fix (\w+)\.", alone.pretty())
        assert len(names) == len(set(names)) == 2
        shared = compile_expr(term, shared={})
        assert shared.fix_forms == 1
        assert len(set(re.findall(r"fix (\w+)\.", shared.pretty()))) == 1

    def test_the_ci_corpus_discharges_what_the_docs_state(self):
        totals = dict.fromkeys(("engaged", "ok", "obligations",
                                "by_common_reduct", "by_final_answer"), 0)
        with Session() as session:
            for program in generate_corpus(20260731, 120,
                                           GenOptions(fragment_bias=1.0)):
                report = validate_check(
                    session, session.check(program.source,
                                           program.filename))
                totals["engaged"] += report.engaged
                totals["ok"] += report.ok
                totals["obligations"] += report.obligations_checked
                totals["by_common_reduct"] += report.by_common_reduct
                totals["by_final_answer"] += report.by_final_answer
        assert totals == {"engaged": 120, "ok": 120, "obligations": 1063,
                          "by_common_reduct": 859, "by_final_answer": 204}

    @pytest.mark.parametrize("source, pinned", [
        (FIB, (136, 135, 1, "8")),
        (TWO_SITES, (60, 59, 1, "16")),
        (SUM_NT, (103, 102, 1, "210"))],
        ids=["fib", "two_sites", "sum_nt"])
    def test_reports_at_256_steps(self, source, pinned):
        report = _validated(source, align_steps=256)
        assert report.ok and report.machine_agrees is True
        assert (report.obligations_checked, report.by_common_reduct,
                report.by_final_answer, report.machine_value) == pinned


class TestRunnerSurface:
    def test_example_file_validates(self):
        path = os.path.join(EXAMPLES, "sum_to.lev")
        (report,) = validate_paths([path])
        assert report.ok and report.engaged
        assert report.machine_agrees is True
        document = report.as_dict()
        assert document["first_divergence"] is None
        json.dumps(document)  # machine-readable

    def test_out_of_fragment_entry_is_skipped_with_a_reason(self, tmp_path):
        path = tmp_path / "bool.lev"
        path.write_text("main :: Bool\nmain = True\n", encoding="utf-8")
        (report,) = validate_paths([str(path)])
        assert not report.engaged
        assert "out of the L fragment" in report.reason
        assert "skipped" in report.pretty()

    def test_project_directory_goes_through_the_module_dag(self, tmp_path):
        (tmp_path / "lib.lev").write_text(
            "module Lib where\n"
            "twice# :: Int# -> Int#\n"
            "twice# n = n +# n\n", encoding="utf-8")
        (tmp_path / "main.lev").write_text(
            "module Main where\n"
            "import Lib\n"
            "main :: Int#\n"
            "main = twice# 21#\n", encoding="utf-8")
        (report,) = validate_paths([str(tmp_path)])
        assert report.ok and report.engaged, report.pretty()
        assert report.machine_value == "42"

    def test_cli_exit_codes(self, tmp_path, capsys):
        from repro.__main__ import main

        good = os.path.join(EXAMPLES, "sum_to.lev")
        skipped = tmp_path / "skip.lev"
        skipped.write_text("main :: Bool\nmain = True\n", encoding="utf-8")
        # Skips do not fail the run — only genuine divergence does.
        assert main(["validate", good, str(skipped)]) == 0
        out = capsys.readouterr().out
        assert "1 engaged" in out and "0 divergence(s)" in out
        assert main(["validate", "--json", good]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["ok"] is True


class TestSessionWiring:
    def test_check_result_validates(self):
        session = Session()
        check = session.check(SUM_TO, "sum_to.lev")
        report = validate_check(session, check, align_steps=8)
        assert isinstance(report, ValidationReport)
        assert report.engaged and report.ok
        assert report.machine_agrees is True
        assert report.obligations_checked == 8

    def test_lazy_accumulator_machine_agrees(self):
        result = Session().run(LAZY_ACC, "lazyacc.lev")
        assert result.machine_agrees is True
        assert result.machine_value == "I#[6]"

    def test_bottom_entries_validate_too(self):
        session = Session()
        check = session.check("main :: Int#\nmain = quotInt# 1# 0#\n")
        report = validate_check(session, check)
        assert report.engaged and report.ok
        assert report.machine_agrees is True
