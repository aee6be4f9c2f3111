"""Scene language for projective configurations (.hgeo files).

A scene is a sequence of declarations (points, lines, gons) and
assertions, evaluated top to bottom against a chosen backend:

    point A = (0, 0)
    point B = (2, 0)
    line l = join(A, B)
    point X = (1, 0)
    point Y = conjugate(A, B; X)
    assert harmonic(A, B; X, Y)

Coordinates are exact rationals, written as integers or p/q; there is
no float syntax.  Identifiers must be declared before use and never
redeclared, and argument kinds are checked while parsing, so a scene
that parses can only fail for geometric reasons.  Construction
arguments are plain identifiers: intermediate objects get names, which
keeps scenes readable next to the figures they describe.

Points and lines are duals, and the AST writes each dual pair once.
A declaration is one node, Decl, whose kind is "point" or "line"; a
coordinate literal is its plain triple, and the declaration's kind
picks Point or Line and whether the affine (x, y) spelling is read.
An incidence assertion is one node, AssertIncidence, whose kind is its
keyword, "collinear" (of points) or "concurrent" (of lines).  The gon
assertions AssertPseudo and AssertProduct carry the gon kind, "ceva"
(one line per vertex) or "menelaos" (one cut point per vertex).

The syntax of each fixed-shape call (meet, conjugate, join,
fourth_harmonic, complete_fourth_line, cr_equal) is written once, in
the _CALLS table: its keyword, what it makes, its AST node and its
argument kinds.  The parser, the formatter and the reserved words all
read that table, so adding a construction means adding one row, one
AST class and one evaluator branch.

format_scene is the inverse of parse on ASTs: parse(format_scene(ast))
returns an equal AST.  Comments (# to end of line) survive parsing but
not formatting.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from itertools import combinations
from typing import NamedTuple, Optional, Union

from .core import (
    EXACT,
    Backend,
    GeometryError,
    Line,
    Point,
    Scalar,
    _det3,
    all_collinear,
    cross_ratio_lines,
    cross_ratio_points,
    format_scalar,
    harmonic_conjugate,
    fourth_harmonic_line,
    join,
    meet,
)
from .pencils import complete_fourth_line
from .reduction import (
    CevaGon,
    MenelaosGon,
    ceva_product,
    is_pseudo_collinear,
    is_pseudo_concurrent,
    menelaos_product,
)


class SceneError(Exception):
    """Base for scene-language errors."""


class _Located(SceneError):
    """A scene error at a 1-based line and column."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class SceneSyntaxError(_Located):
    def __init__(self, message: str, line: int, col: int, expected=()):
        super().__init__(message, line, col)
        self.expected = tuple(expected)


class UnknownIdentifier(_Located):
    def __init__(self, name: str, line: int, col: int):
        super().__init__(f"unknown name {name!r}", line, col)


class Redeclaration(_Located):
    def __init__(self, name: str, line: int, col: int):
        super().__init__(f"{name!r} is already declared", line, col)


class TypeMismatch(_Located):
    """An argument of the wrong kind, or too few or too many of them."""


class EvaluationError(_Located):
    """A declaration or assertion failed geometrically, with its site."""


# ---------------------------------------------------------------------------
# tokens

_PUNCT = "()[],;:=/"
_DIGITS = "0123456789"
_ORDERS = ("first", "exhaustive", "seed")


# The kinds never share a value (a word starts with a letter or "_", a
# number with a digit or "-", eof is ""), so the parser tests a token by
# its value alone.  A token is a tuple because the lexer makes one per
# token, and a tuple costs less to build than a frozen dataclass.
class _Token(NamedTuple):
    kind: str  # "word" | "number" | "punct" | "eof"
    value: str
    line: int
    col: int


def _lex(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("word", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _DIGITS or (
            ch == "-" and i + 1 < n and text[i + 1] in _DIGITS
        ):
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            tokens.append(_Token("number", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch in _PUNCT:
            tokens.append(_Token("punct", ch, line, start_col))
            i += 1
            col += 1
            continue
        raise SceneSyntaxError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# AST

Pos = tuple[int, int]
_NOPOS: Pos = (0, 0)


@dataclass(frozen=True)
class Join:
    a: str
    b: str


@dataclass(frozen=True)
class Meet:
    a: str
    b: str


@dataclass(frozen=True)
class Conjugate:
    a: str
    b: str
    x: str


@dataclass(frozen=True)
class FourthHarmonic:
    vertex: str
    a: str
    b: str
    g: str


@dataclass(frozen=True)
class CompleteFourthLine:
    vertices: tuple[str, str, str, str]
    lines: tuple[str, str, str]


@dataclass(frozen=True)
class Decl:
    kind: str  # "point" | "line"
    name: str
    # a coordinate literal is its homogeneous triple; any other
    # expression is the node of a _CALLS row that makes this kind
    expr: Union[
        tuple[Scalar, Scalar, Scalar],
        Meet, Conjugate, Join, FourthHarmonic, CompleteFourthLine,
    ]
    pos: Pos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class GonDecl:
    name: str
    vertices: tuple[str, ...]
    pos: Pos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class AssertIncidence:
    kind: str  # "collinear" (of points) | "concurrent" (of lines)
    names: tuple[str, ...]
    pos: Pos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class AssertHarmonic:
    a: str
    b: str
    x: str
    y: str
    kind: str  # "point" | "line"
    pos: Pos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class AssertCrEqual:
    first: tuple[str, str, str, str]
    second: tuple[str, str, str, str]
    pos: Pos = field(default=_NOPOS, compare=False)


Order = Union[None, str, tuple[str, int]]


@dataclass(frozen=True)
class AssertPseudo:
    kind: str  # "ceva" (pseudo_concurrent) | "menelaos" (pseudo_collinear)
    gon: str
    items: tuple[str, ...]
    order: Order = None
    pos: Pos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class AssertProduct:
    kind: str  # "ceva" | "menelaos"
    gon: str
    items: tuple[str, ...]
    target: Scalar = 1
    pos: Pos = field(default=_NOPOS, compare=False)


Statement = Union[
    Decl,
    GonDecl,
    AssertIncidence,
    AssertHarmonic,
    AssertCrEqual,
    AssertPseudo,
    AssertProduct,
]


@dataclass(frozen=True)
class SceneAst:
    statements: tuple[Statement, ...]


# ---------------------------------------------------------------------------
# syntax tables


class _Call(NamedTuple):
    makes: str  # "point" | "line" | "assert"
    node: type
    # argument groups (separated by ";"), each a tuple of (kind, count)
    # slots; count 0 fills one str field, count k > 0 one k-tuple field
    groups: tuple[tuple[tuple[str, int], ...], ...]


def _groups(spec: str) -> tuple[tuple[tuple[str, int], ...], ...]:
    """Read an argument spec: "point x4; line, line" becomes
    ((("point", 4),), (("line", 0), ("line", 0)))."""
    groups = []
    for group in spec.split(";"):
        slots = []
        for slot in group.split(","):
            kind, _, count = slot.strip().partition(" x")
            slots.append((kind, int(count or 0)))
        groups.append(tuple(slots))
    return tuple(groups)


# The fixed-shape calls: keyword, what the call makes, its AST node and
# its argument kinds, one slot per node field in field order.  "point x4"
# is four comma-separated points held in one tuple field.  The row order
# is the order in which error messages list the alternatives.
_CALLS = {
    keyword: _Call(makes, node, _groups(spec))
    for keyword, makes, node, spec in (
        ("meet", "point", Meet, "line, line"),
        ("conjugate", "point", Conjugate, "point, point; point"),
        ("join", "line", Join, "point, point"),
        ("fourth_harmonic", "line", FourthHarmonic, "point; line, line; line"),
        ("complete_fourth_line", "line", CompleteFourthLine, "point x4; line x3"),
        ("cr_equal", "assert", AssertCrEqual, "point x4; point x4"),
    )
}
_CALL_OF = {call.node: keyword for keyword, call in _CALLS.items()}

# The dual incidence predicates: keyword -> argument kind.
_INCIDENCE = {"collinear": "point", "concurrent": "line"}

# The dual gon predicates: keyword -> gon kind.  A Ceva gon takes one
# line per vertex, a Menelaos gon one cut point.
_GON_PREDICATES = {
    "pseudo_concurrent": "ceva",
    "pseudo_collinear": "menelaos",
    "ceva_product": "ceva",
    "menelaos_product": "menelaos",
}
# gon kind -> its pseudo_ predicate keyword
_PSEUDO_OF = {"ceva": "pseudo_concurrent", "menelaos": "pseudo_collinear"}


def _one_of(words) -> str:
    """The words quoted and listed as 'a', 'b' or 'c'."""
    *init, last = map(repr, words)
    return f"{', '.join(init)} or {last}"


# ---------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.toks = tokens
        self.i = 0
        # name -> "point" | "line" | ("gon", arity)
        self.symbols: dict[str, object] = {}

    def peek(self) -> _Token:
        return self.toks[self.i]

    def advance(self) -> _Token:
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def fail(self, message: str, tok: _Token, expected=()):
        raise SceneSyntaxError(message, tok.line, tok.col, expected)

    def found(self, what: str, tok: _Token, expected) -> None:
        self.fail(
            f"expected {what}, found {tok.value or 'end of input'!r}",
            tok,
            expected,
        )

    def punct(self, value: str) -> _Token:
        if self.peek().value != value:
            self.found(repr(value), self.peek(), (value,))
        return self.advance()

    def keyword(self, *values: str) -> _Token:
        if self.peek().value not in values:
            self.found(" or ".join(map(repr, values)), self.peek(), values)
        return self.advance()

    def name(self) -> _Token:
        """A word that may name an object: not a keyword."""
        tok = self.peek()
        if tok.kind != "word":
            self.found("a name", tok, ("identifier",))
        if tok.value in _KEYWORDS:
            self.fail(f"{tok.value!r} is a reserved word", tok)
        return self.advance()

    def ident(self, want: Optional[str] = None) -> str:
        tok = self.name()
        if tok.value not in self.symbols:
            raise UnknownIdentifier(tok.value, tok.line, tok.col)
        if want is not None:
            kind = self.symbols[tok.value]
            label = kind[0] if isinstance(kind, tuple) else kind
            if label != want:
                raise TypeMismatch(
                    f"{tok.value!r} is a {label}, expected a {want}",
                    tok.line,
                    tok.col,
                )
        return tok.value

    def fresh_name(self) -> tuple[str, _Token]:
        tok = self.name()
        if tok.value in self.symbols:
            raise Redeclaration(tok.value, tok.line, tok.col)
        return tok.value, tok

    def more(self, want: str) -> list[str]:
        """Names of kind `want`, each after a ','."""
        names = []
        while self.peek().value == ",":
            self.advance()
            names.append(self.ident(want))
        return names

    def rational(self) -> Scalar:
        tok = self.peek()
        if tok.kind != "number":
            self.found("a number", tok, ("number",))
        self.advance()
        num = int(tok.value)
        if self.peek().value == "/":
            self.advance()
            den_tok = self.peek()
            if den_tok.kind != "number":
                self.fail("expected a denominator", den_tok, ("number",))
            self.advance()
            den = int(den_tok.value)
            if den == 0:
                self.fail("denominator cannot be zero", den_tok)
            return Fraction(num, den)
        return num

    def integer(self) -> int:
        tok = self.peek()
        if tok.kind != "number":
            self.fail("expected an integer", tok, ("number",))
        self.advance()
        return int(tok.value)

    # statements ------------------------------------------------------

    def scene(self) -> SceneAst:
        statements = []
        while self.peek().kind != "eof":
            statements.append(self.statement())
        return SceneAst(tuple(statements))

    def statement(self) -> Statement:
        tok = self.peek()
        if tok.value not in _STATEMENTS:
            self.found(_one_of(_STATEMENTS), tok, tuple(_STATEMENTS))
        return _STATEMENTS[tok.value](self)

    def decl(self) -> Decl:
        kind = self.advance().value
        name, tok = self.fresh_name()
        self.punct("=")
        expr = self.expr(kind)
        self.symbols[name] = kind
        return Decl(kind, name, expr, pos=(tok.line, tok.col))

    def expr(self, kind: str):
        tok = self.peek()
        if tok.value == "(":
            return self.literal_triple(kind == "point")
        call = _CALLS.get(tok.value)
        if call is None or call.makes != kind:
            calls = tuple(k for k, c in _CALLS.items() if c.makes == kind)
            self.fail(
                f"expected a coordinate literal, {_one_of(calls)}",
                tok,
                expected=("(",) + calls,
            )
        return self.call()

    def call(self, pos: Optional[Pos] = None):
        """A fixed-shape call, read as its _CALLS row spells it; an
        assertion call passes the site of its 'assert'."""
        call = _CALLS[self.advance().value]
        args = []
        for g, group in enumerate(call.groups):
            self.punct(";" if g else "(")
            for s, (kind, count) in enumerate(group):
                names = []
                for k in range(count or 1):
                    if s or k:
                        self.punct(",")
                    names.append(self.ident(kind))
                args.append(tuple(names) if count else names[0])
        self.punct(")")
        return call.node(*args) if pos is None else call.node(*args, pos=pos)

    def literal_triple(self, point: bool) -> tuple[Scalar, Scalar, Scalar]:
        self.punct("(")
        first = self.rational()
        sep = self.peek().value
        if point and sep == ",":
            self.advance()
            second = self.rational()
            self.punct(")")
            return (first, second, 1)
        if sep == ":":
            self.advance()
            second = self.rational()
            self.punct(":")
            third = self.rational()
            self.punct(")")
            return (first, second, third)
        self.fail(
            "expected ',' or ':'" if point else "expected ':'",
            self.peek(),
            expected=(",", ":") if point else (":",),
        )

    def gon_decl(self) -> GonDecl:
        self.advance()
        name, tok = self.fresh_name()
        self.punct("=")
        self.punct("[")
        names = [self.ident("point")] + self.more("point")
        close = self.punct("]")
        if len(names) < 3:
            raise TypeMismatch(
                "a gon needs at least 3 vertices", close.line, close.col
            )
        self.symbols[name] = ("gon", len(names))
        return GonDecl(name, tuple(names), pos=(tok.line, tok.col))

    def assertion(self) -> Statement:
        start = self.advance()
        tok = self.peek()
        if tok.value not in _PREDICATES:
            self.fail(
                f"unknown predicate {tok.value or 'end of input'!r}",
                tok,
                expected=tuple(sorted(_PREDICATES)),
            )
        return _PREDICATES[tok.value](self, (start.line, start.col))

    def assert_incidence(self, pos: Pos) -> AssertIncidence:
        which = self.advance().value
        want = _INCIDENCE[which]
        self.punct("(")
        names = [self.ident(want)] + self.more(want)
        close = self.punct(")")
        if len(names) < 3:
            raise TypeMismatch(
                f"{which} needs at least 3 arguments", close.line, close.col
            )
        return AssertIncidence(which, tuple(names), pos=pos)

    def assert_harmonic(self, pos: Pos) -> AssertHarmonic:
        self.advance()
        self.punct("(")
        first_tok = self.peek()
        a = self.ident()
        kind = self.symbols[a]
        if kind not in ("point", "line"):
            raise TypeMismatch(
                f"{a!r} is not a point or line", first_tok.line, first_tok.col
            )
        self.punct(",")
        b = self.ident(kind)
        self.punct(";")
        x = self.ident(kind)
        self.punct(",")
        y = self.ident(kind)
        self.punct(")")
        return AssertHarmonic(a, b, x, y, kind=kind, pos=pos)

    def assert_gon(self, pos: Pos) -> AssertPseudo | AssertProduct:
        """The pseudo_ assertions (then an order clause) and the
        _product assertions (then '= Q'): a gon, then one line (Ceva) or
        cut point (Menelaos) per vertex."""
        which = self.advance().value
        kind = _GON_PREDICATES[which]
        want = "line" if kind == "ceva" else "point"
        self.punct("(")
        gon = self.ident("gon")
        arity = self.symbols[gon][1]
        items = tuple(self.more(want))
        close = self.punct(")")
        if len(items) != arity:
            raise TypeMismatch(
                f"gon {gon!r} has {arity} vertices, got {len(items)}"
                f" {want}s",
                close.line,
                close.col,
            )
        if which.startswith("pseudo_"):
            order = self.order_clause()
            return AssertPseudo(kind, gon, items, order=order, pos=pos)
        self.punct("=")
        return AssertProduct(kind, gon, items, target=self.rational(), pos=pos)

    def order_clause(self) -> Order:
        if self.peek().value != "order":
            return None
        self.advance()
        self.punct("=")
        choice = self.keyword(*_ORDERS)
        if choice.value == "seed":
            self.punct("(")
            k = self.integer()
            self.punct(")")
            return ("seed", k)
        return choice.value


# statement keyword -> parser method
_STATEMENTS = {
    "point": _Parser.decl,
    "line": _Parser.decl,
    "gon": _Parser.gon_decl,
    "assert": _Parser.assertion,
}

# predicate keyword -> parser method, called with the site of 'assert'
_PREDICATES = {
    **dict.fromkeys(_INCIDENCE, _Parser.assert_incidence),
    "harmonic": _Parser.assert_harmonic,
    **{k: _Parser.call for k, c in _CALLS.items() if c.makes == "assert"},
    **dict.fromkeys(_GON_PREDICATES, _Parser.assert_gon),
}

_KEYWORDS = frozenset(
    {*_STATEMENTS, *_CALLS, *_PREDICATES, "order", *_ORDERS}
)


def parse(text: str) -> SceneAst:
    """Parse scene text; the first problem raises with 1-based line and
    column inside the offending token."""
    return _Parser(_lex(text)).scene()


# ---------------------------------------------------------------------------
# formatter


def _format_literal(triple, affine: bool) -> str:
    a, b, c = map(format_scalar, triple)
    if affine and triple[2] == 1:
        return f"({a}, {b})"
    return f"({a} : {b} : {c})"


def _format_call(node) -> str:
    """The text of a fixed-shape call, written as its _CALLS row spells it."""
    keyword = _CALL_OF[type(node)]
    values = (getattr(node, f.name) for f in fields(node) if f.name != "pos")
    groups = []
    for group in _CALLS[keyword].groups:
        names = []
        for _, count in group:
            value = next(values)
            names.extend(value if count else (value,))
        groups.append(", ".join(names))
    return f"{keyword}({'; '.join(groups)})"


def _format_order(order: Order) -> str:
    if order is None:
        return ""
    if order == "first" or order == "exhaustive":
        return f" order = {order}"
    return f" order = seed({order[1]})"


def format_scene(ast: SceneAst) -> str:
    """Canonical text for an AST; comments are not reproduced."""
    out = []
    for st in ast.statements:
        if isinstance(st, Decl):
            expr = st.expr
            if isinstance(expr, tuple):
                expr = _format_literal(expr, affine=st.kind == "point")
            else:
                expr = _format_call(expr)
            out.append(f"{st.kind} {st.name} = {expr}")
        elif isinstance(st, GonDecl):
            out.append(f"gon {st.name} = [{', '.join(st.vertices)}]")
        elif isinstance(st, AssertIncidence):
            out.append(f"assert {st.kind}({', '.join(st.names)})")
        elif isinstance(st, AssertHarmonic):
            out.append(
                f"assert harmonic({st.a}, {st.b}; {st.x}, {st.y})"
            )
        elif type(st) in _CALL_OF:
            out.append(f"assert {_format_call(st)}")
        elif isinstance(st, AssertPseudo):
            out.append(
                f"assert {_PSEUDO_OF[st.kind]}("
                + ", ".join((st.gon,) + st.items)
                + ")"
                + _format_order(st.order)
            )
        elif isinstance(st, AssertProduct):
            out.append(
                f"assert {st.kind}_product("
                + ", ".join((st.gon,) + st.items)
                + f") = {format_scalar(st.target)}"
            )
        else:
            raise TypeError(f"not a statement: {st!r}")
    return "\n".join(out) + ("\n" if out else "")


# ---------------------------------------------------------------------------
# evaluator


@dataclass(frozen=True)
class AssertionResult:
    index: int
    line: int
    kind: str
    passed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "line": self.line,
            "kind": self.kind,
            "passed": self.passed,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class SceneReport:
    assertions: tuple[AssertionResult, ...]
    bindings: dict

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.assertions)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "passed": self.all_passed,
            "assertions": [r.to_json() for r in self.assertions],
        }


def _to_backend_scalar(value: Scalar, backend: Backend) -> Scalar:
    if backend.kind == "exact":
        return value
    return float(value)


def evaluate(ast: SceneAst, backend: Backend = EXACT) -> SceneReport:
    """Run a scene top to bottom; geometric failures in declarations or
    assertion plumbing raise EvaluationError carrying the statement's
    line, while honest predicate failures land in the report."""
    env: dict[str, object] = {}
    results = []
    index = 0
    for st in ast.statements:
        line = st.pos[0]
        try:
            if isinstance(st, Decl):
                env[st.name] = _eval_expr(st, env, backend)
            elif isinstance(st, GonDecl):
                env[st.name] = tuple(env[v] for v in st.vertices)
            else:
                index += 1
                results.append(_eval_assertion(st, env, backend, index))
        except SceneError:
            raise
        except GeometryError as exc:
            raise EvaluationError(str(exc), line, st.pos[1]) from exc
    return SceneReport(tuple(results), env)


def _eval_expr(decl: Decl, env, backend: Backend):
    expr = decl.expr
    if isinstance(expr, tuple):
        cls = Point if decl.kind == "point" else Line
        return cls(*(_to_backend_scalar(t, backend) for t in expr))
    if isinstance(expr, Join):
        return join(env[expr.a], env[expr.b])
    if isinstance(expr, Meet):
        return meet(env[expr.a], env[expr.b])
    if isinstance(expr, Conjugate):
        return harmonic_conjugate(
            env[expr.a], env[expr.b], env[expr.x], backend
        )
    if isinstance(expr, FourthHarmonic):
        return fourth_harmonic_line(
            env[expr.vertex], env[expr.a], env[expr.b], env[expr.g], backend
        )
    if isinstance(expr, CompleteFourthLine):
        vertices = tuple(env[v] for v in expr.vertices)
        lines = tuple(env[l] for l in expr.lines)
        return complete_fourth_line(vertices, *lines, backend=backend)
    raise TypeError(f"not an expression: {expr!r}")


def _eval_assertion(st, env, backend: Backend, index: int) -> AssertionResult:
    line = st.pos[0]
    if isinstance(st, AssertIncidence):
        objs = [env[n] for n in st.names]
        # one body serves points (collinear) and lines (concurrent)
        passed = all_collinear(objs, backend)
        detail = ""
        if not passed:
            detail = f"witness determinant {format_scalar(_worst_triple(objs))}"
        return AssertionResult(index, line, st.kind, passed, detail)
    if isinstance(st, AssertHarmonic):
        a, b, x, y = (env[n] for n in (st.a, st.b, st.x, st.y))
        if st.kind == "point":
            cr = cross_ratio_points(a, b, x, y, backend)
        else:
            vertex = meet(a, b)
            cr = cross_ratio_lines(vertex, a, b, x, y, backend)
        passed = backend.eq(cr, -1)
        return AssertionResult(
            index, line, "harmonic", passed, f"cross-ratio {format_scalar(cr)}"
        )
    if isinstance(st, AssertCrEqual):
        cr1 = cross_ratio_points(*(env[n] for n in st.first), backend)
        cr2 = cross_ratio_points(*(env[n] for n in st.second), backend)
        passed = backend.eq(cr1, cr2)
        return AssertionResult(
            index,
            line,
            "cr_equal",
            passed,
            f"{format_scalar(cr1)} vs {format_scalar(cr2)}",
        )
    if isinstance(st, AssertPseudo):
        order = st.order if st.order is not None else "first"
        gon = _assertion_gon(st, env)
        check = is_pseudo_concurrent if gon.kind == "ceva" else is_pseudo_collinear
        passed, trace = check(gon, order, backend)
        return AssertionResult(
            index,
            line,
            _PSEUDO_OF[st.kind],
            passed,
            f"reduction order {list(trace.indices)}",
        )
    if isinstance(st, AssertProduct):
        gon = _assertion_gon(st, env)
        product_of = ceva_product if gon.kind == "ceva" else menelaos_product
        product = product_of(gon, backend)
        target = _to_backend_scalar(st.target, backend)
        passed = backend.eq(product, target)
        return AssertionResult(
            index,
            line,
            f"{st.kind}_product",
            passed,
            f"product {format_scalar(product)}",
        )
    raise TypeError(f"not an assertion: {st!r}")


def _assertion_gon(st: AssertPseudo | AssertProduct, env: dict):
    cls = CevaGon if st.kind == "ceva" else MenelaosGon
    return cls(env[st.gon], tuple(env[n] for n in st.items))


def _worst_triple(objs):
    # the largest |determinant| of three of the points (or lines), first on a tie
    triples = combinations([o.triple for o in objs], 3)
    return max((_det3(*t) for t in triples), key=abs)
