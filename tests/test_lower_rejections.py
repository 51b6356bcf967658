"""Every way out of the compilable L fragment gets a structured diagnostic.

``repro.driver.lower`` is deliberately partial — the Section 5.1
restrictions make the fragment compilable, and everything outside it must
be *reported*, not crashed on.  Since the whole-language extension the
fragment covers recursion (via ``fix``), the ``Int#`` primops and literal
cases, so rejection is now *type-driven*: only programs using types other
than ``Int``/``Int#``/arrows (or genuinely un-lowerable shapes, like
recursion at the unboxed type itself) are skipped.  Two layers are pinned
here:

* the raw :class:`~repro.driver.lower.LoweringError` (a
  :class:`~repro.core.errors.CompilationError`) with a message naming the
  offending construct, for every unsupported construct;
* the driver surface: ``Session.compile`` turns the error into a
  ``compile``-stage *error* diagnostic carrying the binding's span, while
  ``Session.run`` degrades to a ``compile``-stage *note* (the program still
  runs on the evaluator; it just skips the machine cross-check).
"""

import pytest

from repro.core.errors import CompilationError
from repro.driver import Session
from repro.driver.lower import LoweringError, lower_checked, lower_type
from repro.surface.types import (
    BOOL_TY,
    DOUBLE_HASH_TY,
    STRING_TY,
    UnboxedTupleTy,
)


@pytest.fixture(scope="module")
def session():
    return Session()


def _checked(source):
    check = Session().check(source)
    assert check.ok, check.pretty(source)
    return check


def _lowering_error(source, entry="main"):
    check = _checked(source)
    with pytest.raises(LoweringError) as exc_info:
        lower_checked(check, entry)
    return str(exc_info.value)


def _lowered(source, entry="main"):
    return lower_checked(_checked(source), entry)


class TestLoweringErrorMessages:
    """The raw errors name the construct that left the fragment."""

    def test_recursion_at_unboxed_type(self):
        # fix needs a pointer-kinded binder; a recursive Int# binding has
        # no thunk to tie the knot through.
        message = _lowering_error(
            "main :: Int#\nmain = main\n")
        assert "recursive" in message
        assert "no fixpoint" in message

    def test_reference_to_a_skipped_helper(self):
        # The helper is skipped (its body leaves the fragment), so the
        # entry's reference to it is the variable error, not a crash.
        message = _lowering_error(
            "helper :: Int# -> Int#\n"
            "helper n = if True then n else 0#\n"
            "main :: Int#\n"
            "main = helper 1#\n")
        assert "'helper'" in message

    def test_levity_polymorphic_scheme(self):
        message = _lowering_error(
            "main :: forall (r :: Rep) (a :: TYPE r). String -> a\n"
            "main s = error s\n")
        assert "polymorphic" in message

    def test_implicitly_quantified_scheme(self):
        message = _lowering_error(
            "main :: a -> Int#\nmain x = 3#\n")
        assert "polymorphic" in message

    def test_unannotated_lambda(self):
        message = _lowering_error(
            "main :: Int# -> Int#\nmain = \\x -> x\n")
        assert "needs a type annotation" in message

    def test_unannotated_let(self):
        message = _lowering_error(
            "main :: Int#\nmain = let x = 1# in x\n")
        assert "needs a type signature" in message

    def test_literal_case_without_wildcard(self):
        message = _lowering_error(
            "main :: Int#\nmain = case 1# of { 1# -> 2# }\n")
        assert "wildcard" in message

    def test_constructor_case_outside_the_fragment(self):
        message = _lowering_error(
            "main :: Int#\n"
            "main = case True of { True -> 1#; _ -> 2# }\n")
        assert "in the L fragment" in message

    def test_if_expression(self):
        message = _lowering_error(
            "main :: Int#\nmain = if True then 1# else 2#\n")
        assert "outside the L fragment" in message

    def test_free_variable(self):
        # `negate` is prelude, not a fragment binding.
        message = _lowering_error(
            "main :: Int\nmain = negate 3\n")
        assert "'negate'" in message

    def test_missing_entry(self):
        message = _lowering_error(
            "helper :: Int#\nhelper = 1#\n", entry="main")
        assert "no binding named 'main'" in message

    @pytest.mark.parametrize("bad_type", [
        DOUBLE_HASH_TY, BOOL_TY, STRING_TY,
        UnboxedTupleTy((DOUBLE_HASH_TY,)),
    ])
    def test_types_outside_the_fragment(self, bad_type):
        with pytest.raises(LoweringError) as exc_info:
            lower_type(bad_type)
        assert "outside the L fragment" in str(exc_info.value)

    def test_lowering_error_is_a_compilation_error(self):
        # Callers catching the documented hierarchy keep working.
        assert issubclass(LoweringError, CompilationError)


class TestWholeLanguageLowering:
    """Recursion, primops and literal cases now lower instead of erroring."""

    def test_recursion_lowers_via_fix(self):
        term = _lowered(
            "loop :: Int# -> Int#\n"
            "loop n = case n <=# 0# of { 1# -> 0#; _ -> loop (n -# 1#) }\n"
            "main :: Int#\n"
            "main = loop 3#\n")
        assert "fix loop" in term.pretty()

    def test_saturated_primop_lowers(self):
        term = _lowered("main :: Int#\nmain = 1# +# 2#\n")
        assert term.pretty() == "+#(1, 2)"

    def test_undersaturated_primop_eta_expands(self):
        term = _lowered(
            "plus :: Int# -> Int# -> Int#\n"
            "plus = (+#)\n"
            "main :: Int#\n"
            "main = plus 1# 2#\n")
        assert "+#(" in term.pretty()

    def test_literal_case_lowers(self):
        term = _lowered(
            "main :: Int#\nmain = case 1# of { 1# -> 2#; _ -> 3# }\n")
        assert "case 1 of { 1 -> 2; _ -> 3 }" == term.pretty()

    def test_boxed_literal_case_unboxes_first(self):
        term = _lowered(
            "main :: Int#\nmain = case 5 of { 5 -> 1#; _ -> 0# }\n")
        pretty = term.pretty()
        assert "I#[" in pretty and "{ 5 -> 1; _ -> 0 }" in pretty

    def test_parameter_shadowing_the_binding_is_legal(self):
        # Once recursion is admitted the binding's own name may be
        # shadowed by a parameter: scoping resolves it, no error.
        term = _lowered(
            "f :: Int# -> Int#\n"
            "f f = f\n"
            "main :: Int#\n"
            "main = f 7#\n")
        from repro.lang_l import Context, evaluate
        assert evaluate(term).value.pretty() == "7"


class TestDriverSurface:
    """The pipeline turns LoweringError into diagnostics, never a crash."""

    REJECTED = {
        "unboxed_recursion": "main :: Int#\nmain = main\n",
        "open_levity": ("main :: forall (r :: Rep) (a :: TYPE r)."
                        " String -> a\n"
                        "main s = error s\n"),
        "unannotated_lambda": "main :: Int# -> Int#\nmain = \\x -> x\n",
        "if_on_bool": "main :: Int#\nmain = if True then 1# else 2#\n",
    }

    @pytest.mark.parametrize("name", sorted(REJECTED))
    def test_compile_reports_a_compile_stage_error(self, session, name):
        result = session.compile(self.REJECTED[name], f"{name}.lev")
        assert not result.ok
        compile_errors = [d for d in result.check.diagnostics
                          if d.stage == "compile" and d.severity == "error"]
        assert compile_errors, result.check.pretty()
        assert compile_errors[0].binding == "main"
        assert compile_errors[0].span is not None

    def test_run_degrades_to_a_note_and_still_evaluates(self, session):
        result = session.run(self.REJECTED["if_on_bool"], "if_on_bool.lev")
        assert result.ok, result.check.pretty()
        assert result.machine_value is None
        notes = [d for d in result.check.diagnostics
                 if d.stage == "compile" and d.severity == "note"]
        assert notes and "not cross-checked" in notes[0].message

    def test_run_of_terminating_recursion_cross_checks_the_machine(
            self, session):
        result = session.run(
            "count :: Int# -> Int#\n"
            "count n = case n <=# 0# of "
            "{ 1# -> 0#; _ -> 1# +# count (n -# 1#) }\n"
            "main :: Int#\n"
            "main = count 3#\n", "count.lev")
        assert result.ok and result.value == "3#"
        assert result.machine_value == "3"
        assert result.machine_agrees is True

    def test_run_of_levity_polymorphic_entry_is_skipped_not_crashed(
            self, session):
        result = session.run(self.REJECTED["open_levity"],
                             "open_levity.lev")
        # The entry takes a parameter, so run refuses it with a structured
        # run-stage error (not a traceback).
        assert not result.ok
        assert any(d.stage == "run" for d in result.check.errors)

    def test_cli_style_compile_of_fragment_program_still_works(self, session):
        result = session.compile(
            "unbox :: Int -> Int#\n"
            "unbox b = case b of { I# x -> x }\n"
            "main :: Int#\n"
            "main = unbox (I# 9#)\n")
        assert result.ok, result.check.pretty()
        assert result.machine_value == "9"
