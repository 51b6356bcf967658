"""Recursive-descent parser for the surface language's concrete syntax.

The parser elaborates source text directly into the existing
:mod:`repro.surface.ast` / :mod:`repro.surface.types` nodes, so everything
downstream (inference, the levity checks, the cost-model evaluator, the
L→M compiler bridge) works on parsed programs unchanged.

Grammar (``[]`` optional, ``{}`` repetition; see ``docs/FRONTEND.md`` for
the full reference)::

    module  ::= [ 'module' conid 'where' ] { 'import' conid } { decl }
    decl    ::= var '::' type                      -- type signature
              | var { var } '=' expr               -- function binding
    type    ::= 'forall' { binder } '.' type
              | context '=>' type
              | btype [ '->' type ]
    btype   ::= atype { atype }
    atype   ::= conid | varid | '(' type ')' | '(#' [ type {',' type} ] '#)'
              | '(' ')' | '(' ',' ')' | '[' ']'
    binder  ::= varid | '(' varid '::' kind ')'
    kind    ::= akind [ '->' kind ]
    akind   ::= 'Type' | 'Rep' | 'Constraint' | 'TYPE' rep | '(' kind ')'
    rep     ::= RepConName | varid | 'TupleRep' '[' [ rep {',' rep} ] ']'
              | 'SumRep' '[' [ rep {'|' rep} ] ']' | '(' rep ')'
    expr    ::= '\\' { apat } '->' expr
              | 'let' var [ '::' type [';' var] ] '=' expr 'in' expr
              | 'if' expr 'then' expr 'else' expr
              | 'case' expr 'of' '{' alt { ';' alt } [';'] '}'
              | opexpr [ '::' type ]
    opexpr  ::= [ '-' ] fexp { SYMBOL opexpr }     -- precedence climbing
    fexp    ::= aexp { aexp }
    aexp    ::= varid | conid | literal | '(' expr ')' | '(' SYMBOL ')'
              | '(#' [ expr {',' expr} ] '#)' | '(' ')'
    alt     ::= conid { varid } '->' expr | [ '-' ] INT '->' expr
              | [ '-' ] INT# '->' expr
              | '(#' varid {',' varid} '#)' '->' expr | '_' '->' expr
    apat    ::= varid | '(' varid '::' type ')'

Layout is deliberately minimal: **a token in column 1 always begins a new
top-level declaration**.  Expressions and types may continue across lines
as long as continuation lines are indented.  ``case`` alternatives use
explicit braces and semicolons (the same concrete form the AST pretty
printer emits), so no offside rule is needed.  There is one module
parser, :func:`parse_module_incremental`: it cuts the source into
declaration blocks at column-1 tokens and parses each block on its own
(memoised per session); :func:`parse_module` is the same parser without
a memo.

Free lowercase type variables in a signature are implicitly quantified at
kind ``Type`` in first-occurrence order — mirroring both Haskell's implicit
quantification and the display-defaulted output of
:func:`repro.pretty.render_scheme`.  Representation variables must be bound
explicitly by a ``forall (r :: Rep).`` telescope ("never infer levity
polymorphism" applies to the concrete syntax too).

Every error raised here is a :class:`~repro.core.errors.ParseError`
carrying a 1-based line/column position.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Tuple

from ..core.errors import ParseError
from ..core.kinds import (
    CONSTRAINT,
    Kind,
    REP_KIND,
    TYPE_LIFTED,
    TypeKind,
)
from ..core.rep import (
    ADDR_REP,
    CHAR_REP,
    DOUBLE_REP,
    FLOAT_REP,
    INT_REP,
    LIFTED,
    Rep,
    RepVar,
    SumRep,
    TupleRep,
    UNLIFTED,
    WORD_REP,
)
from ..surface.ast import (
    Alternative,
    Decl,
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
    Expr,
    FunBind,
    ImportDecl,
    Module,
    ModuleHeader,
    TypeSig,
)
from ..surface.types import (
    BUILTIN_TYCONS,
    Binder,
    ClassConstraint,
    ForAllTy,
    FunTy,
    QualTy,
    SType,
    TyApp,
    TyVar,
    UnboxedTupleTy,
)
from ..telemetry import REGISTRY as _REGISTRY
from .lexer import (
    RESERVED_SYMBOLS,
    TOKEN_RE,
    TRIVIA,
    UNTERMINATED_COMMENT,
    Span,
    Token,
    block_comment_end,
    tokenize,
)

#: Names of the nullary representation constructors.
REP_CONSTANTS: Dict[str, Rep] = {
    "LiftedRep": LIFTED,
    "UnliftedRep": UNLIFTED,
    "IntRep": INT_REP,
    "WordRep": WORD_REP,
    "CharRep": CHAR_REP,
    "AddrRep": ADDR_REP,
    "FloatRep": FLOAT_REP,
    "DoubleRep": DOUBLE_REP,
}

#: Infix operator table: name -> (precedence, associativity).
#: Unknown symbolic operators default to ``(9, "left")``.
OPERATOR_TABLE: Dict[str, Tuple[int, str]] = {
    "$": (0, "right"),
    "||": (2, "right"),
    "&&": (3, "right"),
    "==#": (4, "left"), "/=#": (4, "left"),
    "<#": (4, "left"), "<=#": (4, "left"),
    ">#": (4, "left"), ">=#": (4, "left"),
    "==##": (4, "left"), "<##": (4, "left"),
    "+#": (6, "left"), "-#": (6, "left"),
    "+": (6, "left"), "-": (6, "left"),
    "+##": (6, "left"), "-##": (6, "left"),
    "++": (6, "right"),
    "*#": (7, "left"), "*##": (7, "left"), "/##": (7, "left"),
    "*": (7, "left"),
    ".": (9, "right"),
}

#: Precedence of prefix negation (Haskell's unary minus sits at 6, the same
#: level as the binary ``-``).
NEGATE_PREC = 6


def _negated(operand: Expr) -> Expr:
    """Fold prefix minus into literals; elaborate to ``negate`` otherwise."""
    if isinstance(operand, ELitInt):
        return ELitInt(-operand.value)
    if isinstance(operand, ELitIntHash):
        return ELitIntHash(-operand.value)
    if isinstance(operand, ELitDoubleHash):
        return ELitDoubleHash(-operand.value)
    return EApp(EVar("negate"), operand)


def _decl_key(decl: Decl) -> Tuple[str, str]:
    """The ``decl_spans`` key of a declaration (kind tag + name)."""
    if isinstance(decl, TypeSig):
        return ("sig", decl.name)
    if isinstance(decl, ModuleHeader):
        return ("module", decl.name)
    if isinstance(decl, ImportDecl):
        return ("import", decl.name)
    return ("bind", decl.name)


@dataclass
class ParsedModule:
    """A parsed module plus the span bookkeeping the driver needs."""

    module: Module
    filename: str
    source: str
    #: Span of each declaration, keyed by ("sig" | "bind", name).
    decl_spans: Dict[Tuple[str, str], Span] = field(default_factory=dict)
    #: Spans of expression nodes, keyed by id(node) (nodes are not interned).
    expr_spans: Dict[int, Span] = field(default_factory=dict)
    #: Span of every declaration instance, parallel to ``module.decls``
    #: (unlike ``decl_spans`` this keeps duplicates: the dependency planner
    #: needs the source slice of *each* declaration).
    decl_span_list: List[Span] = field(default_factory=list)
    #: Optional memoised free-variable references per declaration (parallel
    #: to ``module.decls``; None entries for non-bindings).  Filled by the
    #: parser so the dependency planner need not re-walk unchanged ASTs;
    #: ``None`` as a whole (a module assembled elsewhere) means "compute
    #: on demand".
    decl_refs: Optional[List[Optional[FrozenSet[str]]]] = None
    #: ``(kind, name)`` of every declaration (the ``decl_spans`` key),
    #: parallel to ``module.decls``.  It comes from block outlines, so it
    #: is whole even while some blocks are not parsed.
    decl_keys: List[Tuple[str, str]] = field(default_factory=list)
    #: Declaration index -> ``(text, line, first declaration, count)`` of
    #: its block, for each block not parsed yet: ``module.decls`` holds
    #: None for those declarations until :meth:`parse_decls` parses them.
    unparsed: Dict[int, Tuple[str, int, int, int]] = field(
        default_factory=dict, repr=False, compare=False)
    #: The block memo those parses go through, and the memoised blocks
    #: this module already holds (see :func:`_block_at`).
    memo: Optional[Dict[str, object]] = field(
        default=None, repr=False, compare=False)
    used: set = field(default_factory=set, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.decl_keys:
            self.decl_keys = [_decl_key(decl) for decl in self.module.decls]

    def parse_decls(self, indices: Iterable[int]) -> None:
        """Parse the blocks holding these declarations, where they are not
        parsed yet."""
        blocks = {self.unparsed[index] for index in indices
                  if index in self.unparsed}
        if not blocks:
            return
        decls = list(self.module.decls)
        for text, line, first, count in sorted(blocks,
                                               key=lambda block: block[2]):
            block = _block_at(text, line, self.memo, self.used)
            decls[first:first + count] = block.decls
            self.expr_spans.update(block.expr_spans)
            for index in range(first, first + count):
                del self.unparsed[index]
        self.module = Module(self.module.name, decls)

    def span_of_binding(self, name: str) -> Optional[Span]:
        """Best span for diagnostics about the binding ``name``."""
        return (self.decl_spans.get(("bind", name))
                or self.decl_spans.get(("sig", name)))


class _TypeScope:
    """Lexical scope of ``forall``-bound type/representation variables."""

    def __init__(self) -> None:
        self.frames: List[Dict[str, Kind]] = []
        #: Free type variables, in first-occurrence order (implicit forall).
        self.implicit: Dict[str, None] = {}

    def push(self) -> None:
        self.frames.append({})

    def pop(self) -> None:
        self.frames.pop()

    def bind(self, name: str, kind: Kind) -> None:
        self.frames[-1][name] = kind

    def lookup(self, name: str) -> Optional[Kind]:
        for frame in reversed(self.frames):
            if name in frame:
                return frame[name]
        return None


class Parser:
    """A recursive-descent parser over the token stream."""

    def __init__(self, source: str, filename: str = "<input>",
                 first_line: int = 1) -> None:
        self.tokens = tokenize(source, filename, first_line)
        self.pos = 0
        self.scope = _TypeScope()
        self.expr_spans: Dict[int, Span] = {}

    # -- token plumbing ------------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        if offset:
            return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]
        return self.tokens[self.pos]  # _next never moves past the eof token

    def _next(self) -> Token:
        token = self._peek()
        if token.kind != "eof":
            self.pos += 1
        return token

    def _at_eof(self) -> bool:
        return self._peek().kind == "eof"

    def _error(self, message: str, token: Optional[Token] = None) -> ParseError:
        token = token or self._peek()
        return ParseError(message, token.line, token.column)

    def _expect(self, kind: str, what: str) -> Token:
        token = self._peek()
        if token.kind != kind:
            raise self._error(f"expected {what}, found {token.text!r}"
                              if token.kind != "eof"
                              else f"expected {what}, found end of input")
        return self._next()

    def _expect_symbol(self, text: str) -> Token:
        token = self._peek()
        if not token.is_symbol(text):
            raise self._error(f"expected {text!r}, found "
                              + (repr(token.text) if token.kind != "eof"
                                 else "end of input"))
        return self._next()

    def _continues(self) -> bool:
        """May the current construct consume the next token?

        Column 1 is reserved for new top-level declarations, so any token
        there ends whatever expression or type is being parsed.
        """
        token = self._peek()
        return token.kind != "eof" and token.column != 1

    def _note(self, expr: Expr, span: Span) -> Expr:
        self.expr_spans[id(expr)] = span
        return expr

    # =======================================================================
    # Modules and declarations
    # =======================================================================

    def parse_decls(self) -> Tuple[List[Decl], List[Span]]:
        """Every declaration up to the end of input, with its span."""
        decls: List[Decl] = []
        decl_span_list: List[Span] = []
        while not self._at_eof():
            token = self._peek()
            if token.kind == "semi":
                self._next()
                continue
            if token.column != 1:
                raise self._error(
                    "declarations must start in column 1 "
                    f"(found {token.text!r} at column {token.column})")
            decl, span = self._parse_decl()
            decls.append(decl)
            decl_span_list.append(span)
        return decls, decl_span_list

    def _parse_decl(self) -> Tuple[Decl, Span]:
        start = self._peek().span
        token = self._peek()
        if token.is_keyword("module"):
            self._next()
            name_token = self._expect("conid", "a module name")
            where = self._peek()
            if not where.is_keyword("where"):
                raise self._error("expected 'where' after the module name")
            self._next()
            return (ModuleHeader(name_token.text),
                    start.merge(self._previous_span()))
        if token.is_keyword("import"):
            self._next()
            name_token = self._expect("conid", "a module name")
            return (ImportDecl(name_token.text),
                    start.merge(self._previous_span()))
        name = self._parse_decl_name()
        if self._peek().is_symbol("::"):
            self._next()
            type_ = self.parse_signature_type()
            return TypeSig(name, type_), start.merge(self._previous_span())
        params: List[str] = []
        while self._peek().kind == "varid" and self._continues():
            params.append(self._next().text)
        self._expect_symbol("=")
        body = self.parse_expr()
        return (FunBind(name, params, body),
                start.merge(self._previous_span()))

    def _parse_decl_name(self) -> str:
        token = self._peek()
        if token.kind == "varid":
            return self._next().text
        if token.kind == "lparen" and self._peek(1).kind == "symbol" \
                and self._peek(2).kind == "rparen":
            self._next()
            name = self._next().text
            self._next()
            return name
        raise self._error("expected a declaration "
                          "(name :: type  or  name args = expr)")

    def _previous_span(self) -> Span:
        return self.tokens[max(self.pos - 1, 0)].span

    # =======================================================================
    # Types
    # =======================================================================

    def parse_signature_type(self) -> SType:
        """A top-level signature type with implicit quantification."""
        outer_implicit = self.scope.implicit
        self.scope.implicit = {}
        try:
            type_ = self.parse_type()
            free = list(self.scope.implicit)
        finally:
            self.scope.implicit = outer_implicit
        if free:
            type_ = ForAllTy(tuple(Binder(n, TYPE_LIFTED) for n in free),
                             type_)
        return type_

    def parse_type(self) -> SType:
        token = self._peek()
        if token.is_keyword("forall"):
            return self._parse_forall()
        context = self._try_parse_context()
        if context is not None:
            body = self.parse_type()
            return QualTy(context, body)
        left = self._parse_btype()
        if self._continues() and self._peek().is_symbol("->"):
            self._next()
            return FunTy(left, self.parse_type())
        return left

    def _parse_forall(self) -> SType:
        self._next()  # 'forall'
        binders: List[Binder] = []
        self.scope.push()
        try:
            while not self._peek().is_symbol("."):
                binders.append(self._parse_forall_binder())
            self._next()  # '.'
            if not binders:
                raise self._error("a forall needs at least one binder")
            body = self.parse_type()
        finally:
            self.scope.pop()
        return ForAllTy(binders, body)

    def _parse_forall_binder(self) -> Binder:
        token = self._peek()
        if token.kind == "varid":
            self._next()
            self.scope.bind(token.text, TYPE_LIFTED)
            return Binder(token.text, TYPE_LIFTED)
        if token.kind == "lparen":
            self._next()
            name = self._expect("varid", "a type variable").text
            self._expect_symbol("::")
            kind = self.parse_kind()
            self._expect("rparen", "')'")
            self.scope.bind(name, kind)
            return Binder(name, kind)
        raise self._error("expected a forall binder "
                          "(a  or  (a :: kind))")

    def _try_parse_context(self) -> Optional[Tuple[ClassConstraint, ...]]:
        """Parse ``C ty =>`` or ``(C1 t1, ..., Cn tn) =>`` with backtracking."""
        saved = self.pos
        saved_implicit = dict(self.scope.implicit)
        try:
            constraints: List[ClassConstraint] = []
            if self._peek().kind == "lparen":
                self._next()
                if self._peek().kind != "rparen":
                    constraints.append(self._parse_constraint())
                    while self._peek().kind == "comma":
                        self._next()
                        constraints.append(self._parse_constraint())
                self._expect("rparen", "')'")
            else:
                constraints.append(self._parse_constraint())
            self._expect_symbol("=>")
            return tuple(constraints)
        except ParseError:
            self.pos = saved
            self.scope.implicit = saved_implicit
            return None

    def _parse_constraint(self) -> ClassConstraint:
        name = self._expect("conid", "a class name").text
        argument = self._parse_atype()
        return ClassConstraint(name, argument)

    def _parse_btype(self) -> SType:
        type_ = self._parse_atype()
        while self._continues() and self._starts_atype():
            type_ = TyApp(type_, self._parse_atype())
        return type_

    def _starts_atype(self) -> bool:
        token = self._peek()
        return token.kind in ("conid", "varid", "lparen", "lhash", "lbracket")

    def _parse_atype(self) -> SType:
        token = self._peek()

        if token.kind == "conid":
            self._next()
            tycon = BUILTIN_TYCONS.get(token.text)
            if tycon is None:
                raise self._error(
                    f"unknown type constructor {token.text!r}", token)
            return tycon

        if token.kind == "varid":
            self._next()
            kind = self.scope.lookup(token.text)
            if kind is None:
                # Implicitly quantified at kind Type.
                self.scope.implicit.setdefault(token.text, None)
                kind = TYPE_LIFTED
            if kind == REP_KIND:
                raise self._error(
                    f"representation variable {token.text!r} used as a type "
                    "(it may only appear inside TYPE ...)", token)
            return TyVar(token.text, kind)

        if token.kind == "lbracket":
            self._next()
            self._expect("rbracket", "']' (the list type constructor '[]')")
            return BUILTIN_TYCONS["[]"]

        if token.kind == "lhash":
            self._next()
            components: List[SType] = []
            if self._peek().kind != "rhash":
                components.append(self.parse_type())
                while self._peek().kind == "comma":
                    self._next()
                    components.append(self.parse_type())
            self._expect("rhash", "'#)'")
            return UnboxedTupleTy(components)

        if token.kind == "lparen":
            self._next()
            nxt = self._peek()
            if nxt.kind == "rparen":
                self._next()
                return BUILTIN_TYCONS["()"]
            if nxt.kind == "comma":
                self._next()
                self._expect("rparen", "')' (the pair constructor '(,)')")
                return BUILTIN_TYCONS["(,)"]
            inner = self.parse_type()
            self._expect("rparen", "')'")
            return inner

        raise self._error(f"expected a type, found "
                          + (repr(token.text) if token.kind != "eof"
                             else "end of input"))

    # -- kinds and representations -------------------------------------------

    def parse_kind(self) -> Kind:
        kind = self._parse_akind()
        if self._continues() and self._peek().is_symbol("->"):
            self._next()
            from ..core.kinds import ArrowKind
            return ArrowKind(kind, self.parse_kind())
        return kind

    def _parse_akind(self) -> Kind:
        token = self._peek()
        if token.kind == "conid":
            if token.text == "Type":
                self._next()
                return TYPE_LIFTED
            if token.text == "Rep":
                self._next()
                return REP_KIND
            if token.text == "Constraint":
                self._next()
                return CONSTRAINT
            if token.text == "TYPE":
                self._next()
                return TypeKind(self._parse_rep())
            raise self._error(f"unknown kind {token.text!r}", token)
        if token.kind == "lparen":
            self._next()
            kind = self.parse_kind()
            self._expect("rparen", "')'")
            return kind
        raise self._error("expected a kind (Type, TYPE r, Rep, Constraint)")

    def _parse_rep(self) -> Rep:
        token = self._peek()
        if token.kind == "conid":
            if token.text == "TupleRep":
                self._next()
                return TupleRep(self._parse_rep_list("comma"))
            if token.text == "SumRep":
                self._next()
                return SumRep(self._parse_rep_list("bar"))
            rep = REP_CONSTANTS.get(token.text)
            if rep is None:
                raise self._error(
                    f"unknown representation {token.text!r}", token)
            self._next()
            return rep
        if token.kind == "varid":
            kind = self.scope.lookup(token.text)
            if kind != REP_KIND:
                raise self._error(
                    f"representation variable {token.text!r} is not bound by "
                    "a forall (r :: Rep) telescope", token)
            self._next()
            return RepVar(token.text)
        if token.kind == "lparen":
            self._next()
            rep = self._parse_rep()
            self._expect("rparen", "')'")
            return rep
        raise self._error("expected a runtime representation")

    def _parse_rep_list(self, separator: str) -> List[Rep]:
        self._expect("lbracket", "'['")
        reps: List[Rep] = []
        if self._peek().kind != "rbracket":
            reps.append(self._parse_rep())
            while ((separator == "comma" and self._peek().kind == "comma")
                   or (separator == "bar" and self._peek().is_symbol("|"))):
                self._next()
                reps.append(self._parse_rep())
        self._expect("rbracket", "']'")
        return reps

    # =======================================================================
    # Expressions
    # =======================================================================

    def parse_expr(self) -> Expr:
        start = self._peek().span
        expr = self._parse_op_expr(0)
        if self._continues() and self._peek().is_symbol("::"):
            self._next()
            type_ = self.parse_signature_type()
            expr = EAnn(expr, type_)
        return self._note(expr, start.merge(self._previous_span()))

    def _parse_special(self) -> Optional[Expr]:
        """Lambda / let / if / case — forms that extend as far as possible."""
        token = self._peek()
        if token.kind == "backslash":
            return self._parse_lambda()
        if token.is_keyword("let"):
            return self._parse_let()
        if token.is_keyword("if"):
            return self._parse_if()
        if token.is_keyword("case"):
            return self._parse_case()
        return None

    def _parse_op_expr(self, min_prec: int) -> Expr:
        start = self._peek().span
        if self._peek().is_symbol("-"):
            # Prefix negation (the only prefix operator, exactly as in
            # Haskell).  Its operand extends over tighter operators only, so
            # ``- a * b`` negates the product while ``- a + b`` adds to the
            # negation; the negation itself then participates as a left
            # operand at precedence NEGATE_PREC.  Like Haskell's "cannot mix"
            # rule, a negation may not itself be the operand of a
            # tighter-binding operator: ``a *# - b`` must be written
            # ``a *# (- b)`` (otherwise the operand parse would swallow the
            # rest of the tighter chain and mis-group it).
            if min_prec > NEGATE_PREC:
                raise self._error(
                    "prefix '-' cannot be the operand of an operator that "
                    "binds more tightly than subtraction; parenthesise the "
                    "negation")
            self._next()
            operand = self._parse_op_expr(NEGATE_PREC + 1)
            left = self._note(_negated(operand),
                              start.merge(self._previous_span()))
        else:
            special = self._parse_special()
            if special is not None:
                # Lambda/let/if bodies extend maximally, so no operator can
                # follow them here; a brace-delimited case, however, may be
                # the left operand of an infix operator — fall into the loop.
                left = special
            else:
                left = self._parse_fexp()
        while self._continues():
            token = self._peek()
            if token.kind != "symbol" or token.text in RESERVED_SYMBOLS:
                break
            prec, assoc = OPERATOR_TABLE.get(token.text, (9, "left"))
            if prec < min_prec:
                break
            self._next()
            right = self._parse_op_expr(prec + 1 if assoc == "left" else prec)
            left = EApp(EApp(EVar(token.text), left), right)
            self._note(left, start.merge(self._previous_span()))
        return left

    def _parse_fexp(self) -> Expr:
        start = self._peek().span
        expr = self._parse_aexp()
        while self._continues() and self._starts_aexp():
            argument = self._parse_aexp()
            expr = EApp(expr, argument)
            self._note(expr, start.merge(self._previous_span()))
        return expr

    def _starts_aexp(self) -> bool:
        token = self._peek()
        return token.kind in ("varid", "conid", "int", "inthash",
                              "doublehash", "string", "char",
                              "lparen", "lhash")

    def _parse_aexp(self) -> Expr:
        token = self._peek()
        span = token.span

        if token.kind == "varid":
            self._next()
            return self._note(EVar(token.text), span)

        if token.kind == "conid":
            self._next()
            if token.text == "True":
                return self._note(EBool(True), span)
            if token.text == "False":
                return self._note(EBool(False), span)
            return self._note(EVar(token.text), span)

        if token.kind == "int":
            self._next()
            return self._note(ELitInt(token.value), span)
        if token.kind == "inthash":
            self._next()
            return self._note(ELitIntHash(token.value), span)
        if token.kind == "doublehash":
            self._next()
            return self._note(ELitDoubleHash(token.value), span)
        if token.kind == "string":
            self._next()
            return self._note(ELitString(token.value), span)
        if token.kind == "char":
            self._next()
            return self._note(ELitChar(token.value), span)

        if token.kind == "lhash":
            self._next()
            components: List[Expr] = []
            if self._peek().kind != "rhash":
                components.append(self.parse_expr())
                while self._peek().kind == "comma":
                    self._next()
                    components.append(self.parse_expr())
            end = self._expect("rhash", "'#)'")
            return self._note(EUnboxedTuple(components),
                              span.merge(end.span))

        if token.kind == "lparen":
            self._next()
            nxt = self._peek()
            if nxt.kind == "rparen":
                end = self._next()
                return self._note(EVar("()"), span.merge(end.span))
            if nxt.kind == "symbol" and nxt.text not in RESERVED_SYMBOLS \
                    and self._peek(1).kind == "rparen":
                self._next()
                end = self._next()
                return self._note(EVar(nxt.text), span.merge(end.span))
            inner = self.parse_expr()
            end = self._expect("rparen", "')'")
            return self._note(inner, span.merge(end.span))

        raise self._error("expected an expression, found "
                          + (repr(token.text) if token.kind != "eof"
                             else "end of input"))

    # -- the special forms ----------------------------------------------------

    def _parse_lambda(self) -> Expr:
        start = self._next().span  # '\'
        binders: List[Tuple[str, Optional[SType]]] = []
        while True:
            token = self._peek()
            if token.kind == "varid":
                self._next()
                binders.append((token.text, None))
            elif token.kind == "lparen":
                self._next()
                name = self._expect("varid", "a lambda binder").text
                self._expect_symbol("::")
                annotation = self.parse_type()
                self._expect("rparen", "')'")
                binders.append((name, annotation))
            else:
                break
        if not binders:
            raise self._error("a lambda needs at least one binder")
        self._expect_symbol("->")
        body = self.parse_expr()
        for name, annotation in reversed(binders):
            body = ELam(name, body, annotation)
        return self._note(body, start.merge(self._previous_span()))

    def _parse_let(self) -> Expr:
        start = self._next().span  # 'let'
        name = self._expect("varid", "a let binder").text
        signature: Optional[SType] = None
        if self._peek().is_symbol("::"):
            self._next()
            signature = self.parse_signature_type()
            if self._peek().kind == "semi":
                # Accept the printed form  let x :: t; x = rhs in body.
                self._next()
                again = self._expect("varid", f"{name!r} (the signed binder)")
                if again.text != name:
                    raise self._error(
                        f"let signature names {name!r} but the binding is "
                        f"for {again.text!r}", again)
        self._expect_symbol("=")
        rhs = self.parse_expr()
        if not self._peek().is_keyword("in"):
            raise self._error("expected 'in' to close the let binding")
        self._next()
        body = self.parse_expr()
        return self._note(ELet(name, rhs, body, signature),
                          start.merge(self._previous_span()))

    def _parse_if(self) -> Expr:
        start = self._next().span  # 'if'
        condition = self.parse_expr()
        if not self._peek().is_keyword("then"):
            raise self._error("expected 'then'")
        self._next()
        consequent = self.parse_expr()
        if not self._peek().is_keyword("else"):
            raise self._error("expected 'else'")
        self._next()
        alternative = self.parse_expr()
        return self._note(EIf(condition, consequent, alternative),
                          start.merge(self._previous_span()))

    def _parse_case(self) -> Expr:
        start = self._next().span  # 'case'
        scrutinee = self.parse_expr()
        if not self._peek().is_keyword("of"):
            raise self._error("expected 'of'")
        self._next()
        self._expect("lbrace", "'{' (case alternatives use explicit braces)")
        alternatives: List[Alternative] = []
        while True:
            if self._peek().kind == "rbrace":
                break
            alternatives.append(self._parse_alternative())
            if self._peek().kind == "semi":
                self._next()
                continue
            break
        end = self._expect("rbrace", "'}'")
        if not alternatives:
            raise self._error("a case expression needs at least one "
                              "alternative", end)
        return self._note(ECase(scrutinee, alternatives),
                          start.merge(self._previous_span()))

    def _parse_alternative(self) -> Alternative:
        token = self._peek()
        if token.kind == "underscore":
            self._next()
            constructor = "_"
            binders: List[str] = []
        elif token.kind == "int":
            self._next()
            constructor = str(token.value)
            binders = []
        elif token.kind == "inthash":
            self._next()
            constructor = f"{token.value}#"
            binders = []
        elif token.is_symbol("-") and self._peek(1).kind in ("int", "inthash"):
            self._next()
            literal = self._next()
            constructor = (f"{-literal.value}#" if literal.kind == "inthash"
                           else str(-literal.value))
            binders = []
        elif token.kind == "conid":
            self._next()
            constructor = token.text
            binders = []
            while self._peek().kind == "varid":
                binders.append(self._next().text)
        elif token.kind == "lhash":
            self._next()
            constructor = "(#,#)"
            binders = []
            if self._peek().kind != "rhash":
                binders.append(self._expect("varid", "a pattern binder").text)
                while self._peek().kind == "comma":
                    self._next()
                    binders.append(
                        self._expect("varid", "a pattern binder").text)
            self._expect("rhash", "'#)'")
        else:
            raise self._error("expected a pattern (constructor, literal, "
                              "unboxed tuple, or _)")
        self._expect_symbol("->")
        rhs = self.parse_expr()
        return Alternative(constructor, binders, rhs)


# ---------------------------------------------------------------------------
# Module parsing, one declaration block at a time
# ---------------------------------------------------------------------------
#
# Since a token in column 1 always begins a new top-level declaration, a
# module splits into independent *declaration blocks* at the lines where
# the lexer's own expression matches a token in column 1, and each block is
# parsed on its own: an expression never runs on into the next
# declaration.  A block's parse depends only on the block's own text, so
# the binding-level driver, which re-parses a module on every incremental
# check to re-derive the dependency plan, keeps a per-session memo of block
# parses and lex/parses only the blocks that actually changed.  A block is
# parsed with the file's line numbers, and its spans are re-based only when
# the memo hands it out at another line.
#
# Planning needs less than a parse: each declaration's kind, name, span and
# free names, which a block's *outline* keeps without the syntax trees.  An
# outline's lines are relative to its block, so it answers the block at any
# line, and it is small enough to keep in the result cache: with an outline
# store, a module is planned from outlines and a block is parsed only when
# its declarations are needed.


#: The memo keeps the most recently used blocks, and past this many drops
#: the least recently used one (a block's parse holds ~6 KB, so ~50 MB).
_BLOCK_MEMO_LIMIT = 8192


class DeclOutline(NamedTuple):
    """One declaration of a block, without its syntax tree."""

    #: "module", "import", "sig" or "bind": the tag of ``decl_spans`` keys.
    kind: str
    name: str
    #: Lines relative to the block's first line, which is line 0.
    span: Span
    #: A binding's free names (its right-hand side's free variables less
    #: its parameters); None for other declarations.
    refs: Optional[FrozenSet[str]]


class BlockOutline(NamedTuple):
    """What planning needs of one declaration block: its declarations'
    outlines, or the block's parse error as (message, relative line,
    column)."""

    decls: Tuple[DeclOutline, ...] = ()
    error: Optional[Tuple[str, int, int]] = None


@dataclass(frozen=True)
class _BlockParse:
    """The parse of one declaration block, with absolute spans."""

    #: The line the block started on when it was parsed.
    line: int
    decls: Tuple[Decl, ...]
    expr_spans: Dict[int, Span]
    outline: BlockOutline


def _starts_decl(line: str) -> bool:
    """Does the lexer match a token (not trivia) at the line's first
    character?"""
    return line[:1] not in " \t\r" and \
        TOKEN_RE.match(line).lastgroup not in TRIVIA


def _parse_block(text: str, line: int) -> _BlockParse:
    _REGISTRY.inc("frontend.blocks_parsed")
    try:
        # Module-shape validation (header first, imports before code) is
        # positional across the whole file, so it runs on assembly, not
        # per block.
        parser = Parser(text, "<block>", line)
        decls, decl_span_list = parser.parse_decls()
    except ParseError as exc:
        return _BlockParse(line, (), {}, BlockOutline(
            error=(exc.message, exc.line - line, exc.column)))
    outline = BlockOutline(tuple(
        DeclOutline(*_decl_key(decl), _shift_span(span, -line),
                    decl.rhs.free_vars() - frozenset(decl.params)
                    if isinstance(decl, FunBind) else None)
        for decl, span in zip(decls, decl_span_list)))
    return _BlockParse(line, tuple(decls), parser.expr_spans, outline)


def _shift_span(span: Span, delta: int) -> Span:
    return Span(span.line + delta, span.column,
                span.end_line + delta, span.end_column)


def _memo_get(memo: Optional[Dict[str, object]], text: str):
    """The memo's entry for ``text`` (a parse or an outline), which
    becomes its most recently used."""
    entry = memo.pop(text, None) if memo is not None else None
    if entry is not None:
        memo[text] = entry
    return entry


def _memo_put(memo: Dict[str, object], text: str, entry) -> None:
    memo[text] = entry
    if len(memo) > _BLOCK_MEMO_LIMIT:
        del memo[next(iter(memo))]


def _block_at(text: str, line: int, memo: Optional[Dict[str, object]],
              used: set) -> _BlockParse:
    """The parse of the block ``text`` starting at ``line``, from the memo
    when it has one."""
    block = _memo_get(memo, text)
    if not isinstance(block, _BlockParse):
        block = _parse_block(text, line)
        if memo is not None:
            _memo_put(memo, text, block)
    elif id(block) in used:
        # The same block text occurs twice in one module (duplicate
        # definitions).  Sharing the memoised AST would collide the
        # id()-keyed expression spans — the second occurrence would
        # overwrite the first's positions — so duplicates get fresh nodes.
        block = _parse_block(text, line)
    used.add(id(block))
    delta = line - block.line
    if not delta:
        return block
    return _BlockParse(line, block.decls,
                       {node: _shift_span(span, delta)
                        for node, span in block.expr_spans.items()},
                       block.outline)


def _outlines_of(texts: List[str], memo: Dict[str, object], outlines
                 ) -> Dict[str, Optional[BlockOutline]]:
    """The outline of each block text that the memo has, else that the
    store ``outlines`` has, in one read; None for the others.  The
    store's outlines go into the memo, so the session reads each once."""
    known: Dict[str, Optional[BlockOutline]] = {}
    for text in texts:
        entry = _memo_get(memo, text)
        known[text] = entry.outline if isinstance(entry, _BlockParse) \
            else entry
    missing = [text for text, found in known.items() if found is None]
    if missing:
        stored = outlines.read_outlines(missing)
        for text, found in stored.items():
            _memo_put(memo, text, found)
        known.update(stored)
    return known


def parse_module_incremental(source: str, filename: str = "<input>",
                             name: str = "Main",
                             memo: Optional[Dict[str, object]] = None,
                             outlines=None) -> ParsedModule:
    """Parse a module block by block, reusing memoised block parses.

    A block whose text is already in ``memo`` skips lexing and parsing
    entirely — the payoff that makes warm incremental re-checks parse
    only the edited bindings; a cold or warm memo changes nothing
    observable.  A module with errors reports its first failing block's
    error.  A ``module M where`` header must be the *first* declaration
    (which also rules out duplicates), and ``import`` declarations must
    precede all signatures and bindings.

    ``outlines``, when given, is a store of block outlines:
    ``outlines.read_outlines(texts)`` maps the texts it knows to their
    :class:`BlockOutline`, in one read, and ``outlines.write_outline(text,
    outline)`` keeps a new one.  Then every block is outlined — from the
    memo, else the store, else by parsing it (and writing its outline) —
    and none is parsed for its syntax trees: the module comes back with
    ``None`` for each declaration of a block not parsed, for
    :meth:`ParsedModule.parse_decls` to parse when it is needed.  Errors
    are found from outlines alone, so they are the same either way.
    """
    lines = source.split("\n")
    starts = [index for index, line in enumerate(lines)
              if _starts_decl(line)]
    if not starts or starts[0] != 0:
        starts.insert(0, 0)  # the preamble of trivia before the first decl
    starts.append(len(lines))
    texts = ["\n".join(lines[first:end])
             for first, end in zip(starts, starts[1:])]
    parsed = ParsedModule(Module(name, ()), filename, source, decl_refs=[],
                          memo=memo)
    decls: List[Optional[Decl]] = []
    decl_keys, decl_span_list = parsed.decl_keys, parsed.decl_span_list
    decl_spans, decl_refs = parsed.decl_spans, parsed.decl_refs
    unparsed = parsed.unparsed
    if outlines is not None:
        parsed.memo = memo = {} if memo is None else memo
        known = _outlines_of(texts, memo, outlines)

    def outline(text: str, line: int) -> Tuple[BlockOutline,
                                                Optional[_BlockParse]]:
        """The outline of the block ``text`` at ``line``, and its parse
        when it is parsed for its syntax trees now."""
        if outlines is None:
            block = _block_at(text, line, memo, parsed.used)
            return block.outline, block
        if text not in known:  # a block an unclosed comment extended
            known.update(_outlines_of([text], memo, outlines))
        found = known[text]
        if found is None:
            block = _parse_block(text, line)
            outlines.write_outline(text, block.outline)
            _memo_put(memo, text, block)
            found = known[text] = block.outline
        return found, None

    following = 1
    while following < len(starts):
        first = starts[following - 1]
        text = texts[following - 1]
        block_outline, block = outline(text, first + 1)
        while block_outline.error and \
                block_outline.error[0] == UNTERMINATED_COMMENT:
            # The block ends inside a comment: extend it past the line
            # where the comment closes, unless the file ends first.
            _, dline, column = block_outline.error
            line = first + 1 + dline
            opener = sum(map(len, lines[:line - 1])) + line - 1 + column - 1
            close = block_comment_end(source, opener + len("{-"))
            if close < 0:
                break
            close_row = source.count("\n", 0, close)
            while starts[following] <= close_row:
                following += 1
            text = "\n".join(lines[first:starts[following]])
            block_outline, block = outline(text, first + 1)
        following += 1
        if block_outline.error is not None:
            message, dline, column = block_outline.error
            raise ParseError(message, first + 1 + dline, column)
        line = first + 1
        for kind, decl_name, span, refs in block_outline.decls:
            key = (kind, decl_name)
            span = _shift_span(span, line)
            decl_keys.append(key)
            decl_span_list.append(span)
            decl_spans.setdefault(key, span)
            decl_refs.append(refs)
        if block is not None:
            decls.extend(block.decls)
            parsed.expr_spans.update(block.expr_spans)
            continue
        pending = (text, line, len(decls), len(block_outline.decls))
        for _ in block_outline.decls:
            unparsed[len(decls)] = pending
            decls.append(None)
    seen_code = False
    for index, ((kind, decl_name), span) in enumerate(
            zip(decl_keys, decl_span_list)):
        if kind == "module":
            if index != 0:
                raise ParseError(
                    "the 'module ... where' header must be the first "
                    "declaration in the file", span.line, span.column)
            name = decl_name
        elif kind == "import":
            if seen_code:
                raise ParseError(
                    "imports must appear before all other declarations",
                    span.line, span.column)
        else:
            seen_code = True
    parsed.module = Module(name, decls)
    return parsed


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def parse_module(source: str, filename: str = "<input>",
                 name: str = "Main") -> ParsedModule:
    """Parse a whole surface module from source text: the block parser
    ``repro check`` runs, without a memo."""
    return parse_module_incremental(source, filename, name)


def parse_expr(source: str, filename: str = "<input>") -> Expr:
    """Parse a single expression (must consume the whole input)."""
    parser = Parser(source, filename)
    expr = parser.parse_expr()
    if not parser._at_eof():
        raise parser._error("unexpected input after expression")
    return expr


def parse_type(source: str, filename: str = "<input>") -> SType:
    """Parse a type, implicitly quantifying free lowercase variables."""
    parser = Parser(source, filename)
    type_ = parser.parse_signature_type()
    if not parser._at_eof():
        raise parser._error("unexpected input after type")
    return type_


def parse_scheme(source: str, filename: str = "<input>"):
    """Parse a type and view it as an inference :class:`Scheme`."""
    from ..infer.schemes import Scheme

    return Scheme.from_type(parse_type(source, filename))
