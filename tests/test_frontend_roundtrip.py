"""Property tests: the pretty printer and the parser are inverses.

Satellites of the frontend PR:

* ``parse(pretty(scheme)) == scheme`` for the explicit
  ``-fprint-explicit-runtime-reps`` rendering;
* the GHCi-default rendering (rep variables defaulted to ``LiftedRep``,
  telescope hidden) parses back to the display-defaulted scheme up to
  alpha-renaming — the parser re-quantifies hidden binders in occurrence
  order, so the comparison canonicalises binder names first;
* lexer/parser fuzzing: arbitrary input either parses or raises
  :class:`~repro.core.errors.ParseError` — never anything else; byte-level
  mutants of the ``.lev`` corpora never make ``Session.check`` raise, and
  its diagnostics point inside the source, at the lexer's own position
  for a lexical error.

Extended by the fuzzing PR with **expression-level** round-trips
(``parse_expr(expr.pretty()) == expr``) over the whole expression grammar,
covering the gaps PR 3's unary-minus work left open: negative literals in
case patterns, and symbolic operators (sections) in *every* position —
binding rhs, let rhs, case alternatives, tuple components — not just the
application spots the operator table can recover.
"""

import glob
import os
import random
import string as string_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ParseError
from repro.core.kinds import TYPE_LIFTED, TypeKind
from repro.core.rep import RepVar
from repro.driver import Session
from repro.frontend import parse_expr, parse_module, parse_scheme, parse_type
from repro.frontend.lexer import tokenize
from repro.infer.schemes import Scheme
from repro.pretty.printer import (
    PrinterOptions,
    default_reps_for_display,
    render_scheme,
)
from repro.surface.ast import (
    Alternative,
    EAnn,
    EApp,
    EBool,
    ECase,
    EIf,
    ELam,
    ELet,
    ELitChar,
    ELitDoubleHash,
    ELitInt,
    ELitIntHash,
    ELitString,
    EUnboxedTuple,
    EVar,
)
from repro.surface.prelude import prelude_schemes
from repro.surface.types import (
    BOOL_TY,
    ClassConstraint,
    DOUBLE_HASH_TY,
    ForAllTy,
    FunTy,
    INT_HASH_TY,
    INT_TY,
    MAYBE_TY,
    QualTy,
    STRING_TY,
    SType,
    TyApp,
    TyVar,
    UnboxedTupleTy,
)

EXPLICIT = PrinterOptions(print_explicit_runtime_reps=True)


# ---------------------------------------------------------------------------
# Scheme generator
# ---------------------------------------------------------------------------


@st.composite
def schemes(draw):
    n_reps = draw(st.integers(0, 2))
    rep_names = ("r", "s")[:n_reps]

    n_types = draw(st.integers(0, 3))
    binders = []
    for name in ("a", "b", "c")[:n_types]:
        if rep_names and draw(st.booleans()):
            kind = TypeKind(RepVar(draw(st.sampled_from(rep_names))))
        else:
            kind = TYPE_LIFTED
        binders.append((name, kind))

    atoms = [INT_TY, INT_HASH_TY, DOUBLE_HASH_TY, BOOL_TY, STRING_TY]
    atoms.extend(TyVar(name, kind) for name, kind in binders)
    atom = st.sampled_from(atoms)

    def compound(children):
        return st.one_of(
            st.tuples(children, children).map(lambda p: FunTy(*p)),
            children.map(lambda t: TyApp(MAYBE_TY, t)),
            st.lists(children, min_size=0, max_size=3)
            .map(UnboxedTupleTy),
        )

    body = draw(st.recursive(atom, compound, max_leaves=6))

    constraints = ()
    lifted = [name for name, kind in binders if kind == TYPE_LIFTED]
    if lifted and draw(st.booleans()):
        constraints = (ClassConstraint("Num", TyVar(lifted[0])),)

    return Scheme(rep_names, tuple(binders), constraints, body)


# ---------------------------------------------------------------------------
# Alpha canonicalisation (for the display-defaulted comparison)
# ---------------------------------------------------------------------------


def _occurrence_order(scheme):
    """Names of the scheme's type binders in first-occurrence order."""
    bound = {name for name, _ in scheme.type_binders}
    order = []

    def walk(type_):
        if isinstance(type_, TyVar):
            if type_.name in bound and type_.name not in order:
                order.append(type_.name)
        elif isinstance(type_, FunTy):
            walk(type_.argument)
            walk(type_.result)
        elif isinstance(type_, TyApp):
            walk(type_.function)
            walk(type_.argument)
        elif isinstance(type_, UnboxedTupleTy):
            for component in type_.components:
                walk(component)
        elif isinstance(type_, QualTy):
            for constraint in type_.constraints:
                walk(constraint.argument)
            walk(type_.body)
        elif isinstance(type_, ForAllTy):
            walk(type_.body)

    for constraint in scheme.constraints:
        walk(constraint.argument)
    walk(scheme.body)
    # Phantom binders (never occurring) keep their declared order at the end.
    for name, _ in scheme.type_binders:
        if name not in order:
            order.append(name)
    return order


def _occurring_names(scheme):
    out = scheme.body.free_type_vars()
    for constraint in scheme.constraints:
        out = out | constraint.argument.free_type_vars()
    return out


def alpha_canonical(scheme):
    """Rename type binders to _t0, _t1, … in first-occurrence order.

    Phantom binders at kind ``Type`` are dropped: hiding the telescope
    erases them from the default rendering, and quantification over an
    unused lifted variable is unobservable anyway.  Only meaningful for
    rep-binder-free schemes (which is all the default display can produce).
    """
    assert not scheme.rep_binders
    kinds = dict(scheme.type_binders)
    occurring = _occurring_names(scheme)
    mapping = {}
    new_binders = []
    index = 0
    for name in _occurrence_order(scheme):
        if kinds[name] == TYPE_LIFTED and name not in occurring:
            continue
        fresh = f"_t{index}"
        index += 1
        mapping[name] = TyVar(fresh, kinds[name])
        new_binders.append((fresh, kinds[name]))
    constraints = tuple(
        ClassConstraint(c.class_name, c.argument.subst_types(mapping))
        for c in scheme.constraints)
    return Scheme((), tuple(new_binders), constraints,
                  scheme.body.subst_types(mapping))


# ---------------------------------------------------------------------------
# Round-trip properties
# ---------------------------------------------------------------------------


class TestExplicitRoundTrip:
    @given(schemes())
    @settings(max_examples=200, deadline=None)
    def test_explicit_rendering_round_trips_exactly(self, scheme):
        rendered = render_scheme(scheme, EXPLICIT)
        assert parse_scheme(rendered) == scheme

    @given(schemes())
    @settings(max_examples=100, deadline=None)
    def test_scheme_pretty_round_trips_exactly(self, scheme):
        assert parse_scheme(scheme.pretty(explicit_runtime_reps=True)) \
            == scheme

    def test_prelude_schemes_round_trip(self):
        for name, scheme in prelude_schemes().items():
            rendered = render_scheme(scheme, EXPLICIT)
            assert parse_scheme(rendered) == scheme, name


class TestDefaultDisplayRoundTrip:
    @given(schemes())
    @settings(max_examples=200, deadline=None)
    def test_default_rendering_round_trips_up_to_alpha(self, scheme):
        rendered = render_scheme(scheme)
        reparsed = parse_scheme(rendered)
        displayed = default_reps_for_display(scheme)
        assert alpha_canonical(reparsed) == alpha_canonical(displayed)

    @given(schemes())
    @settings(max_examples=100, deadline=None)
    def test_default_rendering_is_a_fixpoint(self, scheme):
        rendered = render_scheme(scheme)
        assert render_scheme(parse_scheme(rendered)) == rendered

    def test_prelude_default_display_round_trips(self):
        for name, scheme in prelude_schemes().items():
            rendered = render_scheme(scheme)
            reparsed = parse_scheme(rendered)
            displayed = default_reps_for_display(scheme)
            assert alpha_canonical(reparsed) == alpha_canonical(displayed), \
                name

    def test_concrete_nonlifted_binder_keeps_telescope(self):
        # The printer gap the round-trip surfaced: a binder at a concrete
        # unboxed kind must not lose its telescope in the default display.
        scheme = parse_scheme("forall (a :: TYPE IntRep). a -> Int")
        rendered = render_scheme(scheme)
        assert "forall" in rendered
        assert parse_scheme(rendered) == scheme


# ---------------------------------------------------------------------------
# Expression round-trips (negative patterns, operator sections, ...)
# ---------------------------------------------------------------------------


#: Symbolic operators whose sections must survive printing anywhere.
_SECTION_NAMES = ("+#", "-#", "*#", "+", "-", "*", "$", ".", "<=#", "&&")
_CONCRETE_TYPES = (INT_TY, INT_HASH_TY, DOUBLE_HASH_TY, BOOL_TY, STRING_TY,
                   UnboxedTupleTy((INT_HASH_TY, INT_HASH_TY)))

_varid = st.sampled_from(("x", "y", "f", "g", "acc", "n1"))
_conid_head = st.sampled_from(("I#", "Just", "D#"))


@st.composite
def _alternatives(draw, rhs_strategy):
    kind = draw(st.sampled_from(
        ("wildcard", "int", "inthash", "negative_int", "negative_inthash",
         "constructor", "tuple")))
    rhs = draw(rhs_strategy)
    if kind == "wildcard":
        return Alternative("_", (), rhs)
    if kind == "int":
        return Alternative(str(draw(st.integers(0, 99))), (), rhs)
    if kind == "inthash":
        return Alternative(f"{draw(st.integers(0, 99))}#", (), rhs)
    if kind == "negative_int":
        return Alternative(str(-draw(st.integers(1, 99))), (), rhs)
    if kind == "negative_inthash":
        return Alternative(f"{-draw(st.integers(1, 99))}#", (), rhs)
    if kind == "tuple":
        binders = draw(st.lists(_varid, min_size=0, max_size=3,
                                unique=True))
        return Alternative("(#,#)", binders, rhs)
    constructor = draw(_conid_head)
    binders = draw(st.lists(_varid, min_size=0, max_size=2, unique=True))
    return Alternative(constructor, binders, rhs)


@st.composite
def expressions(draw):
    """Arbitrary (syntactic) surface expressions, sections included."""
    leaf = st.one_of(
        _varid.map(EVar),
        st.sampled_from(_SECTION_NAMES).map(EVar),
        st.integers(-200, 200).map(ELitInt),
        st.integers(-200, 200).map(ELitIntHash),
        st.integers(-64, 64).map(lambda n: ELitDoubleHash(n / 8.0)),
        st.booleans().map(EBool),
        st.sampled_from(('hi', 'a"b', 'tab\t', 'nl\n', 'back\\slash'))
        .map(ELitString),
        st.sampled_from("abz").map(ELitChar),
        st.just(EUnboxedTuple(())),
    )

    def compound(children):
        concrete = st.sampled_from(_CONCRETE_TYPES)
        return st.one_of(
            st.tuples(children, children).map(lambda p: EApp(*p)),
            st.tuples(_varid, children, st.none() | concrete)
            .map(lambda t: ELam(t[0], t[1], t[2])),
            st.tuples(_varid, children, children, st.none() | concrete)
            .map(lambda t: ELet(t[0], t[1], t[2], t[3])),
            st.tuples(children, children, children)
            .map(lambda t: EIf(*t)),
            st.tuples(children, concrete).map(lambda t: EAnn(*t)),
            st.lists(children, min_size=1, max_size=3).map(EUnboxedTuple),
            st.tuples(children,
                      st.lists(_alternatives(children), min_size=1,
                               max_size=3))
            .map(lambda t: ECase(t[0], t[1])),
        )

    return draw(st.recursive(leaf, compound, max_leaves=10))


class TestExpressionRoundTrip:
    @given(expressions())
    @settings(max_examples=300, deadline=None)
    def test_parse_pretty_is_identity(self, expr):
        assert parse_expr(expr.pretty()) == expr

    @given(expressions())
    @settings(max_examples=150, deadline=None)
    def test_binding_rhs_round_trips_through_a_module(self, expr):
        source = f"f = {expr.pretty()}\n"
        parsed = parse_module(source)
        assert parsed.module.bindings()["f"].rhs == expr

    def test_negative_literal_patterns(self):
        expr = ECase(EVar("x"), [
            Alternative("-1#", (), ELitIntHash(1)),
            Alternative("-42", (), ELitIntHash(2)),
            Alternative("_", (), ELitIntHash(3)),
        ])
        assert parse_expr(expr.pretty()) == expr

    @pytest.mark.parametrize("name", _SECTION_NAMES)
    def test_sections_round_trip_in_every_position(self, name):
        section = EVar(name)
        positions = [
            section,                                   # bare rhs
            ELet("f", section, EApp(EVar("f"), ELitInt(1))),  # let rhs
            ECase(EVar("x"), [Alternative("_", (), section)]),  # case rhs
            EUnboxedTuple((section,)),                 # tuple component
            EApp(section, ELitInt(1)),                 # function position
            EApp(EVar("f"), section),                  # argument position
        ]
        for expr in positions:
            assert parse_expr(expr.pretty()) == expr, expr.pretty()

    def test_string_literals_are_double_quoted(self):
        rendered = ELitString("it's \"quoted\"\n").pretty()
        assert rendered.startswith('"')
        assert parse_expr(rendered) == ELitString("it's \"quoted\"\n")

    def test_case_parenthesised_in_application(self):
        expr = EApp(EVar("f"),
                    ECase(EVar("x"), [Alternative("_", (), EVar("y"))]))
        rendered = expr.pretty()
        assert "(case" in rendered
        assert parse_expr(rendered) == expr

    def test_annotated_let_keeps_its_grouping(self):
        expr = EAnn(ELet("v", ELitInt(1), EVar("v"), INT_TY), INT_TY)
        assert parse_expr(expr.pretty()) == expr


# ---------------------------------------------------------------------------
# Fuzzing
# ---------------------------------------------------------------------------


_FUZZ_ALPHABET = (string_module.ascii_letters + string_module.digits
                  + " \n()[]{}#,;:->=\\.\"'$+*/<>|&_")

#: Bytes a mutation inserts half of the time: the openers and closers of
#: every multi-character lexeme, so lexical errors are common.
_LEXICAL_BYTES = b"\"'{}-\\#.(\n"


def _byte_mutants(count, seed):
    """``count`` sources, each a corpus file with one to three bytes
    deleted, inserted or replaced, decoded as Latin-1."""
    here = os.path.dirname(os.path.abspath(__file__))
    paths = sorted(
        glob.glob(os.path.join(here, "golden", "**", "*.lev"), recursive=True)
        + glob.glob(os.path.join(here, os.pardir, "examples", "*.lev")))
    corpus = []
    for path in paths:
        with open(path, "rb") as handle:
            corpus.append(handle.read())
    rng = random.Random(seed)
    for _ in range(count):
        data = bytearray(rng.choice(corpus))
        for _ in range(rng.randint(1, 3)):
            pos = rng.randrange(len(data) + 1)
            byte = (rng.choice(_LEXICAL_BYTES) if rng.random() < 0.5
                    else rng.randrange(256))
            edit = rng.randrange(3)
            if edit == 0:
                del data[pos:pos + 1]
            elif edit == 1:
                data.insert(pos, byte)
            else:
                data[pos:pos + 1] = bytes([byte])
        yield data.decode("latin-1")


def _lexical_error(source):
    """The (message, line, column) ``tokenize`` raises, or None."""
    try:
        tokenize(source)
    except ParseError as exc:
        return str(exc).split(": ", 1)[1], exc.line, exc.column
    return None


class TestFuzz:
    @given(st.text(alphabet=_FUZZ_ALPHABET, max_size=200))
    @settings(max_examples=300, deadline=None)
    def test_parser_total_over_garbage(self, source):
        try:
            parse_module(source)
        except ParseError:
            pass  # the only acceptable failure mode

    @given(st.text(max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_parser_total_over_unicode(self, source):
        try:
            parse_module(source)
        except ParseError:
            pass

    def test_session_check_total_over_byte_mutants(self):
        session = Session()
        lexical_errors = 0
        for source in _byte_mutants(2000, seed=20261017):
            result = session.check(source, "mutant.lev")
            lines = source.split("\n")
            error = _lexical_error(source)
            lexical_errors += error is not None
            for diagnostic in result.diagnostics:
                span = diagnostic.span
                if span is None:
                    continue
                assert 1 <= span.line <= span.end_line <= len(lines), \
                    (source, diagnostic)
                assert 1 <= span.column <= len(lines[span.line - 1]) + 1, \
                    (source, diagnostic)
                assert 1 <= span.end_column \
                    <= len(lines[span.end_line - 1]) + 1, (source, diagnostic)
                if error is not None and diagnostic.message == error[0]:
                    assert (span.line, span.column) == error[1:], \
                        (source, diagnostic, error)
        assert lexical_errors > 50

    @given(schemes())
    @settings(max_examples=50, deadline=None)
    def test_rendered_schemes_are_valid_module_signatures(self, scheme):
        source = f"f :: {render_scheme(scheme, EXPLICIT)}\n"
        parsed = parse_module(source)
        assert "f" in parsed.module.signatures()
