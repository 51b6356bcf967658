"""Unit tests for the concrete-syntax frontend (lexer + parser)."""

import pytest

from repro.core.errors import ParseError
from repro.core.kinds import (
    ArrowKind,
    CONSTRAINT,
    REP_KIND,
    TYPE_INT,
    TYPE_LIFTED,
    TypeKind,
)
from repro.core.rep import DOUBLE_REP, INT_REP, RepVar, SumRep, TupleRep
from repro.frontend import parse_expr, parse_module, parse_scheme, parse_type
from repro.frontend.lexer import tokenize
from repro.surface.ast import (
    EAnn,
    EApp,
    EBool,
    ECase,
    EIf,
    ELam,
    ELet,
    ELitDoubleHash,
    ELitInt,
    ELitIntHash,
    ELitString,
    EUnboxedTuple,
    EVar,
    FunBind,
    TypeSig,
)
from repro.surface.types import (
    Binder,
    BOOL_TY,
    ClassConstraint,
    ForAllTy,
    FunTy,
    INT_HASH_TY,
    INT_TY,
    QualTy,
    TyApp,
    TyVar,
    UnboxedTupleTy,
    fun,
)


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------


def kinds_of(source):
    return [t.kind for t in tokenize(source)]


class TestLexer:
    def test_identifiers_and_hashes(self):
        tokens = tokenize("sumTo# Int# x' _ignore")
        assert [(t.kind, t.text) for t in tokens[:-1]] == [
            ("varid", "sumTo#"), ("conid", "Int#"), ("varid", "x'"),
            ("varid", "_ignore")]

    def test_literals(self):
        tokens = tokenize('42 7# 2.5## "hi\\n" \'c\'')
        assert [(t.kind, t.value) for t in tokens[:-1]] == [
            ("int", 42), ("inthash", 7), ("doublehash", 2.5),
            ("string", "hi\n"), ("char", "c")]

    def test_unboxed_tuple_brackets(self):
        assert kinds_of("(# Int#, a #)") == [
            "lhash", "conid", "comma", "varid", "rhash", "eof"]
        assert kinds_of("(# #)") == ["lhash", "rhash", "eof"]

    def test_operator_section_is_not_lhash(self):
        # '(' directly followed by a symbolic operator must stay a paren.
        assert kinds_of("(+#)") == ["lparen", "symbol", "rparen", "eof"]

    def test_comments(self):
        assert kinds_of("x -- trailing\n{- block {- nested -} -} y") == [
            "varid", "varid", "eof"]

    def test_spans_are_one_based(self):
        token = tokenize("  foo")[0]
        assert (token.line, token.column) == (1, 3)
        token = tokenize("a\n  bar")[1]
        assert (token.line, token.column) == (2, 3)

    def test_boxed_fractional_literal_rejected(self):
        with pytest.raises(ParseError):
            tokenize("2.5")

    def test_unterminated_string(self):
        with pytest.raises(ParseError):
            tokenize('"oops')


# ---------------------------------------------------------------------------
# Types and kinds
# ---------------------------------------------------------------------------


class TestTypes:
    def test_explicit_telescope(self):
        type_ = parse_type(
            "forall (r :: Rep) (a :: Type) (b :: TYPE r). (a -> b) -> a -> b")
        assert isinstance(type_, ForAllTy)
        assert type_.binders == (
            Binder("r", REP_KIND),
            Binder("a", TYPE_LIFTED),
            Binder("b", TypeKind(RepVar("r"))))
        b = TyVar("b", TypeKind(RepVar("r")))
        a = TyVar("a", TYPE_LIFTED)
        assert type_.body == fun(FunTy(a, b), a, b)

    def test_implicit_quantification_in_occurrence_order(self):
        scheme = parse_scheme("(b -> a) -> b")
        assert [name for name, _ in scheme.type_binders] == ["b", "a"]
        assert all(kind == TYPE_LIFTED for _, kind in scheme.type_binders)

    def test_concrete_kinds(self):
        type_ = parse_type("forall (a :: TYPE IntRep). a -> Int")
        assert type_.binders[0].kind == TYPE_INT

    def test_tuple_and_sum_reps(self):
        type_ = parse_type(
            "forall (a :: TYPE TupleRep [IntRep, DoubleRep]). a")
        assert type_.binders[0].kind == TypeKind(
            TupleRep((INT_REP, DOUBLE_REP)))
        type_ = parse_type("forall (a :: TYPE SumRep [IntRep | DoubleRep]). a")
        assert type_.binders[0].kind == TypeKind(
            SumRep((INT_REP, DOUBLE_REP)))

    def test_unboxed_tuple_type(self):
        assert parse_type("(# Int#, Bool #)") == UnboxedTupleTy(
            (INT_HASH_TY, BOOL_TY))
        assert parse_type("(# #)") == UnboxedTupleTy(())

    def test_constraints(self):
        type_ = parse_type("Num a => a -> a")
        assert isinstance(type_, ForAllTy)
        assert isinstance(type_.body, QualTy)
        assert type_.body.constraints == (
            ClassConstraint("Num", TyVar("a")),)
        type_ = parse_type("(Num a, Eq a) => a")
        assert len(type_.body.constraints) == 2

    def test_type_application(self):
        type_ = parse_type("Maybe (Maybe Int)")
        assert isinstance(type_, TyApp)
        assert isinstance(type_.argument, TyApp)

    def test_list_and_pair_tycons(self):
        assert parse_type("[] Int").pretty() == "[] Int"
        assert parse_type("(,) Int Bool").pretty() == "(,) Int Bool"

    def test_arrow_kind(self):
        type_ = parse_type("forall (f :: Type -> Type). f")
        assert type_.binders[0].kind == ArrowKind(TYPE_LIFTED, TYPE_LIFTED)

    def test_constraint_kind_parses(self):
        type_ = parse_type("forall (c :: Constraint). Int")
        assert type_.binders[0].kind == CONSTRAINT

    def test_unknown_tycon_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_type("Nonexistent")

    def test_unbound_rep_var_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_type("forall (a :: TYPE r). a")

    def test_rep_var_used_as_type_is_parse_error(self):
        with pytest.raises(ParseError):
            parse_type("forall (r :: Rep). r -> Int")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class TestExpressions:
    def test_application_is_left_nested(self):
        assert parse_expr("f x y") == EApp(EApp(EVar("f"), EVar("x")),
                                           EVar("y"))

    def test_operator_precedence(self):
        # *# binds tighter than +#.
        expr = parse_expr("a +# b *# c")
        expected = EApp(EApp(EVar("+#"), EVar("a")),
                        EApp(EApp(EVar("*#"), EVar("b")), EVar("c")))
        assert expr == expected

    def test_dollar_is_right_associative_and_loose(self):
        expr = parse_expr("f $ g $ h x")
        inner = EApp(EApp(EVar("$"), EVar("g")),
                     EApp(EVar("h"), EVar("x")))
        assert expr == EApp(EApp(EVar("$"), EVar("f")), inner)

    def test_operator_section_name(self):
        assert parse_expr("(+#) x y") == EApp(EApp(EVar("+#"), EVar("x")),
                                              EVar("y"))

    def test_lambda_with_annotation(self):
        expr = parse_expr("\\(x :: Int#) y -> x")
        assert expr == ELam("x", ELam("y", EVar("x")), INT_HASH_TY)

    def test_let_both_forms(self):
        plain = parse_expr("let x = 1 in x")
        assert plain == ELet("x", ELitInt(1), EVar("x"))
        signed = parse_expr("let x :: Int = 1 in x")
        printed = parse_expr("let x :: Int; x = 1 in x")
        assert signed == printed
        assert signed.signature == INT_TY

    def test_if_and_bools(self):
        expr = parse_expr("if True then 1 else 2")
        assert expr == EIf(EBool(True), ELitInt(1), ELitInt(2))

    def test_case_with_literal_and_wildcard(self):
        expr = parse_expr("case n of { 1# -> a; _ -> b }")
        assert isinstance(expr, ECase)
        assert [a.constructor for a in expr.alternatives] == ["1#", "_"]

    def test_case_constructor_binders(self):
        expr = parse_expr("case b of { I# x -> x }")
        assert expr.alternatives[0].binders == ("x",)

    def test_case_as_left_operand_of_infix(self):
        expr = parse_expr("case c of { I# x -> x } +# 1#")
        assert isinstance(expr, EApp)
        assert expr.function.function == EVar("+#")
        assert isinstance(expr.function.argument, ECase)

    def test_case_unboxed_tuple_pattern(self):
        expr = parse_expr("case p of { (# q, r #) -> q }")
        assert expr.alternatives[0].constructor == "(#,#)"
        assert expr.alternatives[0].binders == ("q", "r")

    def test_unboxed_tuple_expression(self):
        assert parse_expr("(# 1#, 2# #)") == EUnboxedTuple(
            (ELitIntHash(1), ELitIntHash(2)))

    def test_annotation(self):
        expr = parse_expr('3# :: Int#')
        assert expr == EAnn(ELitIntHash(3), INT_HASH_TY)

    def test_string_and_unit(self):
        assert parse_expr('error "boom"') == EApp(EVar("error"),
                                                  ELitString("boom"))
        assert parse_expr("()") == EVar("()")

    def test_double_hash_literal(self):
        assert parse_expr("2.5## +## 1.5##") == EApp(
            EApp(EVar("+##"), ELitDoubleHash(2.5)), ELitDoubleHash(1.5))


# ---------------------------------------------------------------------------
# Modules and declarations
# ---------------------------------------------------------------------------


SUM_TO = """\
sumTo# :: Int# -> Int# -> Int#
sumTo# acc n = case n ==# 0# of { 1# -> acc; _ -> sumTo# (acc +# n) (n -# 1#) }

main :: Int#
main = sumTo# 0# 100#
"""


class TestModules:
    def test_declarations_and_spans(self):
        parsed = parse_module(SUM_TO, "sumto.lev")
        module = parsed.module
        assert set(module.signatures()) == {"sumTo#", "main"}
        assert set(module.bindings()) == {"sumTo#", "main"}
        assert module.signatures()["sumTo#"] == fun(
            INT_HASH_TY, INT_HASH_TY, INT_HASH_TY)
        span = parsed.span_of_binding("main")
        assert (span.line, span.column) == (5, 1)
        sig_span = parsed.decl_spans[("sig", "sumTo#")]
        assert (sig_span.line, sig_span.column) == (1, 1)

    def test_multiline_continuation(self):
        parsed = parse_module(
            "f :: Int ->\n"
            "     Int\n"
            "f x =\n"
            "  plusInt x\n"
            "    1\n")
        assert parsed.module.signatures()["f"] == fun(INT_TY, INT_TY)
        bind = parsed.module.bindings()["f"]
        assert bind.rhs == EApp(EApp(EVar("plusInt"), EVar("x")), ELitInt(1))

    def test_signature_does_not_capture_next_declaration(self):
        # Regression: the context backtrack must not leak the next line's
        # binding name into the implicit forall.
        parsed = parse_module("f :: Int# -> Int#\nf x = x\n")
        assert parsed.module.signatures()["f"] == fun(INT_HASH_TY,
                                                      INT_HASH_TY)

    def test_column_one_starts_a_declaration(self):
        with pytest.raises(ParseError):
            parse_module("f = plusInt 1\n2\n")  # '2' cannot start a decl

    def test_operator_signature(self):
        parsed = parse_module("(!!#) :: Int# -> Int#\n(!!#) x = x\n")
        assert "!!#" in parsed.module.signatures()

    def test_parse_error_has_position(self):
        with pytest.raises(ParseError) as info:
            parse_module("f = \n")
        assert info.value.line >= 1
        assert info.value.column >= 1

    def test_empty_module(self):
        assert parse_module("-- nothing here\n").module.decls == ()


# ---------------------------------------------------------------------------
# One module parser: parse_module is the parser `repro check` runs
# ---------------------------------------------------------------------------


#: A column-1 token after an unfinished expression, and where ``repro
#: check`` reports that the expression above it ended: after '=', as a
#: lambda body, as a case alternative, as an operator's right operand.
COLUMN_ONE_CONTINUATIONS = [
    ("h :: Int\nh =\nplusInt 1 2\n", 2, 4),
    ("f = \\x ->\nx\n", 1, 10),
    ("g :: Int# -> Int#\ng n = case n of { _ ->\nn }\n", 2, 23),
    ("k = 1# +#\n2#\n", 1, 10),
]


class TestOneModuleParser:
    """``parse_module`` accepts and rejects exactly what ``Session.check``
    does, with the same message at the same position."""

    @pytest.mark.parametrize(
        "source, line, column", COLUMN_ONE_CONTINUATIONS,
        ids=["after-equals", "lambda-body", "case-alternative",
             "right-operand"])
    def test_column_one_token_never_continues_an_expression(
            self, source, line, column):
        from repro.driver import Session

        with pytest.raises(ParseError) as exc:
            parse_module(source, "cont.lev")
        assert exc.value.message == \
            "expected an expression, found end of input"
        assert (exc.value.line, exc.value.column) == (line, column)
        [diagnostic] = Session().check(source, "cont.lev").diagnostics
        assert (diagnostic.stage, diagnostic.message) == \
            ("parse", exc.value.message)
        assert (diagnostic.span.line, diagnostic.span.column) == \
            (line, column)

    def test_byte_mutants_parse_as_session_check_parses_them(self):
        from test_frontend_roundtrip import _byte_mutants

        from repro.driver import Session

        session = Session()
        rejected = 0
        for source in _byte_mutants(2000, seed=20261017):
            try:
                parse_module(source, "mutant.lev")
                expected = []
            except ParseError as exc:
                expected = [(exc.message, exc.line or 1, exc.column or 1)]
                rejected += 1
            reported = [
                (d.message, d.span.line, d.span.column)
                for d in session.check(source, "mutant.lev").diagnostics
                if d.stage == "parse"]
            assert reported == expected, source
        assert rejected > 500


# ---------------------------------------------------------------------------
# Incremental (block-memoised) parsing
# ---------------------------------------------------------------------------


class TestIncrementalParsing:
    """A cold or a warm block memo changes nothing observable: the same
    decls, spans and expression-span table as ``parse_module``, which is
    the same parser without a memo."""

    CASES = [
        "f :: Int#\nf = 1#\n",
        # leading comments, blank lines, trailing trivia
        "-- leading comment\n\nf = 1#\n\n-- trailing\n",
        # a block comment spanning lines with column-1 text inside it
        "a = 1#\n{- not\na decl\n-}\nb = 2#\n",
        # nested block comments
        "{- outer {- inner -} still -}\nc :: Int#\nc = 3#\n",
        # string containing comment openers and a column-1-looking quote
        's = "{- not a comment -} -- nor this"\n',
        # char literals and primes in identifiers
        "tail' :: Int# -> Int#\ntail' x = x\nch = 'a'\nesc = '\\n'\n",
        # multi-line declarations (continuation lines indented)
        "long :: Int#\nlong =\n  1#\n    +# 2#\n\nnext = long\n",
        # operators at column 1 via section declaration form
        "(+!) :: Int# -> Int# -> Int#\n(+!) x y = x +# y\n",
        # duplicate definitions (last wins, both parsed)
        "v = 1#\nv = 2#\n",
        # *identical* duplicate blocks: the memo must not share AST nodes
        # within one module (expression spans are id()-keyed)
        "w = 1#\nw = 1#\n",
        # '--' inside an operator is not a comment, so the '{-' opens one
        "(+--) :: Int# -> Int# -> Int#\n(+--) x y = x {- note\nb = 2#\n-}\n",
        # a char literal right after a '#'-suffixed name
        "f# :: Char -> Int#\nf# c = 1#\na = f#'\"' {- c\nb = 2#\n-}\n",
        # a comment that closes mid-line, code after it on the same line
        "a = 1# {- c\nb -} +# 2#\nc = 3#\n",
    ]

    @staticmethod
    def _observables(parsed):
        return (
            parsed.module.pretty(),
            [type(d).__name__ for d in parsed.module.decls],
            parsed.decl_span_list,
            dict(parsed.decl_spans),
            sorted(parsed.expr_spans.values(),
                   key=lambda s: (s.line, s.column, s.end_line, s.end_column)),
        )

    @pytest.mark.parametrize("source", CASES)
    def test_matches_whole_module_parse(self, source):
        from repro.frontend.parser import parse_module_incremental

        memo = {}
        whole = parse_module(source, "case.lev")
        cold = parse_module_incremental(source, "case.lev", memo=memo)
        warm = parse_module_incremental(source, "case.lev", memo=memo)
        for incremental in (cold, warm):
            assert self._observables(incremental) == self._observables(whole)

    def test_examples_and_golden_corpora_match(self):
        import glob
        import os

        from repro.frontend.parser import parse_module_incremental

        here = os.path.dirname(os.path.abspath(__file__))
        paths = sorted(
            glob.glob(os.path.join(here, "golden", "**", "*.lev"),
                      recursive=True)
            + glob.glob(os.path.join(here, os.pardir, "examples", "*.lev")))
        assert paths
        memo = {}
        for path in paths:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            try:
                whole = parse_module(source, path)
            except ParseError as exc:
                with pytest.raises(ParseError) as caught:
                    parse_module_incremental(source, path, memo=memo)
                assert str(caught.value) == str(exc)
                continue
            incremental = parse_module_incremental(source, path, memo=memo)
            assert self._observables(incremental) == self._observables(whole)

    def test_memoised_blocks_skip_reparsing(self):
        from repro.frontend.parser import parse_module_incremental

        memo = {}
        parse_module_incremental("a = 1#\n\nb = a\n", memo=memo)
        blocks_before = set(memo)
        # Editing 'b' must only add the new b-block to the memo.
        parse_module_incremental("a = 1#\n\nb = a +# 1#\n", memo=memo)
        added = set(memo) - blocks_before
        assert added == {"b = a +# 1#\n"}

    def test_memo_keeps_the_most_recently_used_blocks(self, monkeypatch):
        from collections import OrderedDict

        from repro.frontend import parser
        from repro.telemetry import REGISTRY

        monkeypatch.setattr(parser, "_BLOCK_MEMO_LIMIT", 4)
        parsed = REGISTRY.counter("frontend.blocks_parsed")

        def parse(source, memo):
            before = parsed.value
            parser.parse_module_incremental(source, memo=memo)
            return parsed.value - before

        for memo in (OrderedDict(), {}):
            # Every module shares the block 'keep', so it stays recent;
            # the other blocks are new each time.
            for i in range(12):
                assert parse(f"keep = 0#\n\nb{i} = {i}#\n", memo) == \
                    (2 if i == 0 else 1)
                assert len(memo) <= 4
            assert list(memo) == ["b9 = 9#\n", "b10 = 10#\n",
                                  "keep = 0#\n", "b11 = 11#\n"]
            assert parse("keep = 0#\n\nb11 = 11#\n", memo) == 0
            assert parse("b9 = 9#\n\nb10 = 10#\n", memo) == 0
            assert parse("b0 = 0#\n", memo) == 1     # long evicted

    @pytest.mark.parametrize("broken", [
        "broken = ",
        "broken = 2.5",
        "broken = 1.5#",
        'broken = "oops',
        "broken = '\\q'",
        "broken = 'ab'",
        "broken = 1# {- never closed",
        "broken = 1# \u00a7 2#",
    ], ids=["syntax", "boxed-fraction", "one-hash-fraction",
            "unterminated-string", "unknown-escape", "unterminated-char",
            "unclosed-comment", "stray-char"])
    def test_parse_error_positions_are_absolute(self, broken):
        from repro.driver import Session
        from repro.frontend.parser import parse_module_incremental

        source = f"fine = 1#\n\nalso = 2#\n\n{broken}\n"
        with pytest.raises(ParseError) as exc:
            parse_module_incremental(source, "err.lev", memo={})
        with pytest.raises(ParseError) as whole:
            parse_module(source, "err.lev")
        assert whole.value.line >= 5  # in the third declaration or after
        assert str(exc.value) == str(whole.value)
        assert (exc.value.line, exc.value.column) == \
            (whole.value.line, whole.value.column)
        [diagnostic] = Session().check(source, "err.lev").diagnostics
        assert (diagnostic.span.line, diagnostic.span.column) == \
            (whole.value.line, whole.value.column)

    def test_column_one_name_is_not_a_parameter(self):
        """A column-1 name starts a new declaration, so it is never a
        parameter of the line above: a block ends at its own end, and
        both entry points say so identically."""
        from repro.frontend.parser import parse_module_incremental

        errors = []
        for parse in (parse_module, parse_module_incremental):
            with pytest.raises(ParseError) as exc:
                parse("mait\nmain = 1#\n", "typo.lev")
            errors.append(str(exc.value))
        assert errors == ["1:5: expected '=', found end of input"] * 2
