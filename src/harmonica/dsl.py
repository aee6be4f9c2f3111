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

format_scene is the inverse of parse on ASTs: parse(format_scene(ast))
returns an equal AST.  Comments (# to end of line) survive parsing but
not formatting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Union

from .core import (
    EXACT,
    Backend,
    GeometryError,
    Line,
    Point,
    Scalar,
    all_collinear,
    all_concurrent,
    collinearity_residual,
    concurrency_residual,
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


class SceneSyntaxError(SceneError):
    def __init__(self, message: str, line: int, col: int, expected=()):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col
        self.expected = tuple(expected)


class UnknownIdentifier(SceneError):
    def __init__(self, name: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: unknown name {name!r}")
        self.line = line
        self.col = col


class Redeclaration(SceneError):
    def __init__(self, name: str, line: int, col: int):
        super().__init__(
            f"line {line}, column {col}: {name!r} is already declared"
        )
        self.line = line
        self.col = col


class TypeMismatch(SceneError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


class EvaluationError(SceneError):
    """A declaration or assertion failed geometrically, with its site."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, column {col}: {message}")
        self.line = line
        self.col = col


# ---------------------------------------------------------------------------
# tokens

_PUNCT = "()[],;:=/"

_KEYWORDS = frozenset(
    {
        "point",
        "line",
        "gon",
        "assert",
        "join",
        "meet",
        "conjugate",
        "fourth_harmonic",
        "complete_fourth_line",
        "collinear",
        "concurrent",
        "harmonic",
        "cr_equal",
        "pseudo_concurrent",
        "pseudo_collinear",
        "ceva_product",
        "menelaos_product",
        "order",
        "first",
        "exhaustive",
        "seed",
    }
)


@dataclass(frozen=True)
class _Token:
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
        if ch.isdigit() or (
            ch == "-" and i + 1 < n and text[i + 1].isdigit()
        ):
            j = i + 1
            while j < n and text[j].isdigit():
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
class PointLiteral:
    triple: tuple[Scalar, Scalar, Scalar]


@dataclass(frozen=True)
class LineLiteral:
    triple: tuple[Scalar, Scalar, Scalar]


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


PointExpr = Union[PointLiteral, Meet, Conjugate]
LineExpr = Union[LineLiteral, Join, FourthHarmonic, CompleteFourthLine]


@dataclass(frozen=True)
class PointDecl:
    name: str
    expr: PointExpr
    pos: Pos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class LineDecl:
    name: str
    expr: LineExpr
    pos: Pos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class GonDecl:
    name: str
    vertices: tuple[str, ...]
    pos: Pos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class AssertCollinear:
    points: tuple[str, ...]
    pos: Pos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class AssertConcurrent:
    lines: tuple[str, ...]
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
    kind: str  # "concurrent" | "collinear"
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
    PointDecl,
    LineDecl,
    GonDecl,
    AssertCollinear,
    AssertConcurrent,
    AssertHarmonic,
    AssertCrEqual,
    AssertPseudo,
    AssertProduct,
]


@dataclass(frozen=True)
class SceneAst:
    statements: tuple[Statement, ...]


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

    def punct(self, value: str) -> _Token:
        tok = self.peek()
        if tok.kind != "punct" or tok.value != value:
            self.fail(
                f"expected {value!r}, found {tok.value or 'end of input'!r}",
                tok,
                expected=(value,),
            )
        return self.advance()

    def keyword(self, *values: str) -> _Token:
        tok = self.peek()
        if tok.kind != "word" or tok.value not in values:
            self.fail(
                f"expected {' or '.join(map(repr, values))}, found"
                f" {tok.value or 'end of input'!r}",
                tok,
                expected=values,
            )
        return self.advance()

    def ident(self, want: Optional[str] = None) -> str:
        tok = self.peek()
        if tok.kind != "word":
            self.fail(
                f"expected a name, found {tok.value or 'end of input'!r}",
                tok,
                expected=("identifier",),
            )
        if tok.value in _KEYWORDS:
            self.fail(f"{tok.value!r} is a reserved word", tok)
        self.advance()
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
        tok = self.peek()
        if tok.kind != "word":
            self.fail(
                f"expected a name, found {tok.value or 'end of input'!r}",
                tok,
                expected=("identifier",),
            )
        if tok.value in _KEYWORDS:
            self.fail(f"{tok.value!r} is a reserved word", tok)
        if tok.value in self.symbols:
            raise Redeclaration(tok.value, tok.line, tok.col)
        self.advance()
        return tok.value, tok

    def rational(self) -> Scalar:
        tok = self.peek()
        if tok.kind != "number":
            self.fail(
                f"expected a number, found {tok.value or 'end of input'!r}",
                tok,
                expected=("number",),
            )
        self.advance()
        num = int(tok.value)
        if self.peek().kind == "punct" and self.peek().value == "/":
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
        if tok.kind != "word" or tok.value not in (
            "point",
            "line",
            "gon",
            "assert",
        ):
            self.fail(
                "expected 'point', 'line', 'gon' or 'assert', found"
                f" {tok.value or 'end of input'!r}",
                tok,
                expected=("point", "line", "gon", "assert"),
            )
        if tok.value == "point":
            return self.point_decl()
        if tok.value == "line":
            return self.line_decl()
        if tok.value == "gon":
            return self.gon_decl()
        return self.assertion()

    def point_decl(self) -> PointDecl:
        self.keyword("point")
        name, tok = self.fresh_name()
        self.punct("=")
        expr = self.point_expr()
        self.symbols[name] = "point"
        return PointDecl(name, expr, pos=(tok.line, tok.col))

    def point_expr(self) -> PointExpr:
        tok = self.peek()
        if tok.kind == "punct" and tok.value == "(":
            triple = self.literal_triple(point=True)
            return PointLiteral(triple)
        if tok.kind == "word" and tok.value == "meet":
            self.advance()
            self.punct("(")
            a = self.ident("line")
            self.punct(",")
            b = self.ident("line")
            self.punct(")")
            return Meet(a, b)
        if tok.kind == "word" and tok.value == "conjugate":
            self.advance()
            self.punct("(")
            a = self.ident("point")
            self.punct(",")
            b = self.ident("point")
            self.punct(";")
            x = self.ident("point")
            self.punct(")")
            return Conjugate(a, b, x)
        self.fail(
            "expected a coordinate literal, 'meet' or 'conjugate'",
            tok,
            expected=("(", "meet", "conjugate"),
        )

    def line_decl(self) -> LineDecl:
        self.keyword("line")
        name, tok = self.fresh_name()
        self.punct("=")
        expr = self.line_expr()
        self.symbols[name] = "line"
        return LineDecl(name, expr, pos=(tok.line, tok.col))

    def line_expr(self) -> LineExpr:
        tok = self.peek()
        if tok.kind == "punct" and tok.value == "(":
            triple = self.literal_triple(point=False)
            return LineLiteral(triple)
        if tok.kind == "word" and tok.value == "join":
            self.advance()
            self.punct("(")
            a = self.ident("point")
            self.punct(",")
            b = self.ident("point")
            self.punct(")")
            return Join(a, b)
        if tok.kind == "word" and tok.value == "fourth_harmonic":
            self.advance()
            self.punct("(")
            vertex = self.ident("point")
            self.punct(";")
            a = self.ident("line")
            self.punct(",")
            b = self.ident("line")
            self.punct(";")
            g = self.ident("line")
            self.punct(")")
            return FourthHarmonic(vertex, a, b, g)
        if tok.kind == "word" and tok.value == "complete_fourth_line":
            self.advance()
            self.punct("(")
            vs = [self.ident("point")]
            for _ in range(3):
                self.punct(",")
                vs.append(self.ident("point"))
            self.punct(";")
            ls = [self.ident("line")]
            for _ in range(2):
                self.punct(",")
                ls.append(self.ident("line"))
            self.punct(")")
            return CompleteFourthLine(tuple(vs), tuple(ls))
        self.fail(
            "expected a coordinate literal, 'join', 'fourth_harmonic' or"
            " 'complete_fourth_line'",
            tok,
            expected=("(", "join", "fourth_harmonic", "complete_fourth_line"),
        )

    def literal_triple(self, point: bool) -> tuple[Scalar, Scalar, Scalar]:
        self.punct("(")
        first = self.rational()
        sep = self.peek()
        if point and sep.kind == "punct" and sep.value == ",":
            self.advance()
            second = self.rational()
            self.punct(")")
            return (first, second, 1)
        if sep.kind == "punct" and sep.value == ":":
            self.advance()
            second = self.rational()
            self.punct(":")
            third = self.rational()
            self.punct(")")
            return (first, second, third)
        self.fail(
            "expected ',' or ':'" if point else "expected ':'",
            sep,
            expected=(",", ":") if point else (":",),
        )

    def gon_decl(self) -> GonDecl:
        self.keyword("gon")
        name, tok = self.fresh_name()
        self.punct("=")
        self.punct("[")
        names = [self.ident("point")]
        while self.peek().kind == "punct" and self.peek().value == ",":
            self.advance()
            names.append(self.ident("point"))
        close = self.punct("]")
        if len(names) < 3:
            raise TypeMismatch(
                "a gon needs at least 3 vertices", close.line, close.col
            )
        self.symbols[name] = ("gon", len(names))
        return GonDecl(name, tuple(names), pos=(tok.line, tok.col))

    def assertion(self) -> Statement:
        start = self.keyword("assert")
        tok = self.peek()
        pos = (start.line, start.col)
        predicates = {
            "collinear": self.assert_incidence,
            "concurrent": self.assert_incidence,
            "harmonic": self.assert_harmonic,
            "cr_equal": self.assert_cr_equal,
            "pseudo_concurrent": self.assert_pseudo,
            "pseudo_collinear": self.assert_pseudo,
            "ceva_product": self.assert_product,
            "menelaos_product": self.assert_product,
        }
        if tok.kind != "word" or tok.value not in predicates:
            self.fail(
                f"unknown predicate {tok.value or 'end of input'!r}",
                tok,
                expected=tuple(sorted(predicates)),
            )
        return predicates[tok.value](pos)

    def assert_incidence(self, pos: Pos) -> Statement:
        which = self.keyword("collinear", "concurrent").value
        want = "point" if which == "collinear" else "line"
        self.punct("(")
        names = [self.ident(want)]
        while self.peek().kind == "punct" and self.peek().value == ",":
            self.advance()
            names.append(self.ident(want))
        close = self.punct(")")
        if len(names) < 3:
            raise TypeMismatch(
                f"{which} needs at least 3 arguments", close.line, close.col
            )
        if which == "collinear":
            return AssertCollinear(tuple(names), pos=pos)
        return AssertConcurrent(tuple(names), pos=pos)

    def assert_harmonic(self, pos: Pos) -> AssertHarmonic:
        self.keyword("harmonic")
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

    def assert_cr_equal(self, pos: Pos) -> AssertCrEqual:
        self.keyword("cr_equal")
        self.punct("(")
        first = [self.ident("point")]
        for _ in range(3):
            self.punct(",")
            first.append(self.ident("point"))
        self.punct(";")
        second = [self.ident("point")]
        for _ in range(3):
            self.punct(",")
            second.append(self.ident("point"))
        self.punct(")")
        return AssertCrEqual(tuple(first), tuple(second), pos=pos)

    def assert_pseudo(self, pos: Pos) -> AssertPseudo:
        which = self.keyword("pseudo_concurrent", "pseudo_collinear").value
        kind = "concurrent" if which.endswith("concurrent") else "collinear"
        want = "line" if kind == "concurrent" else "point"
        self.punct("(")
        gon = self.ident("gon")
        arity = self.symbols[gon][1]
        items = []
        while self.peek().kind == "punct" and self.peek().value == ",":
            self.advance()
            items.append(self.ident(want))
        close = self.punct(")")
        if len(items) != arity:
            raise TypeMismatch(
                f"gon {gon!r} has {arity} vertices, got {len(items)}"
                f" {want}s",
                close.line,
                close.col,
            )
        order = self.order_clause()
        return AssertPseudo(kind, gon, tuple(items), order=order, pos=pos)

    def order_clause(self) -> Order:
        tok = self.peek()
        if tok.kind != "word" or tok.value != "order":
            return None
        self.advance()
        self.punct("=")
        choice = self.keyword("first", "exhaustive", "seed")
        if choice.value == "seed":
            self.punct("(")
            k = self.integer()
            self.punct(")")
            return ("seed", k)
        return choice.value

    def assert_product(self, pos: Pos) -> AssertProduct:
        which = self.keyword("ceva_product", "menelaos_product").value
        kind = which.split("_")[0]
        want = "line" if kind == "ceva" else "point"
        self.punct("(")
        gon = self.ident("gon")
        arity = self.symbols[gon][1]
        items = []
        while self.peek().kind == "punct" and self.peek().value == ",":
            self.advance()
            items.append(self.ident(want))
        close = self.punct(")")
        if len(items) != arity:
            raise TypeMismatch(
                f"gon {gon!r} has {arity} vertices, got {len(items)}"
                f" {want}s",
                close.line,
                close.col,
            )
        self.punct("=")
        target = self.rational()
        return AssertProduct(kind, gon, tuple(items), target=target, pos=pos)


def parse(text: str) -> SceneAst:
    """Parse scene text; the first problem raises with 1-based line and
    column inside the offending token."""
    return _Parser(_lex(text)).scene()


# ---------------------------------------------------------------------------
# formatter


def _format_point_literal(triple) -> str:
    x, y, w = triple
    if w == 1:
        return f"({format_scalar(x)}, {format_scalar(y)})"
    return (
        f"({format_scalar(x)} : {format_scalar(y)} :"
        f" {format_scalar(w)})"
    )


def _format_expr(expr) -> str:
    if isinstance(expr, PointLiteral):
        return _format_point_literal(expr.triple)
    if isinstance(expr, LineLiteral):
        a, b, c = expr.triple
        return (
            f"({format_scalar(a)} : {format_scalar(b)} :"
            f" {format_scalar(c)})"
        )
    if isinstance(expr, Join):
        return f"join({expr.a}, {expr.b})"
    if isinstance(expr, Meet):
        return f"meet({expr.a}, {expr.b})"
    if isinstance(expr, Conjugate):
        return f"conjugate({expr.a}, {expr.b}; {expr.x})"
    if isinstance(expr, FourthHarmonic):
        return (
            f"fourth_harmonic({expr.vertex}; {expr.a}, {expr.b}; {expr.g})"
        )
    if isinstance(expr, CompleteFourthLine):
        return (
            "complete_fourth_line("
            + ", ".join(expr.vertices)
            + "; "
            + ", ".join(expr.lines)
            + ")"
        )
    raise TypeError(f"not an expression: {expr!r}")


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
        if isinstance(st, PointDecl):
            out.append(f"point {st.name} = {_format_expr(st.expr)}")
        elif isinstance(st, LineDecl):
            out.append(f"line {st.name} = {_format_expr(st.expr)}")
        elif isinstance(st, GonDecl):
            out.append(f"gon {st.name} = [{', '.join(st.vertices)}]")
        elif isinstance(st, AssertCollinear):
            out.append(f"assert collinear({', '.join(st.points)})")
        elif isinstance(st, AssertConcurrent):
            out.append(f"assert concurrent({', '.join(st.lines)})")
        elif isinstance(st, AssertHarmonic):
            out.append(
                f"assert harmonic({st.a}, {st.b}; {st.x}, {st.y})"
            )
        elif isinstance(st, AssertCrEqual):
            out.append(
                "assert cr_equal("
                + ", ".join(st.first)
                + "; "
                + ", ".join(st.second)
                + ")"
            )
        elif isinstance(st, AssertPseudo):
            out.append(
                f"assert pseudo_{st.kind}("
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
            if isinstance(st, (PointDecl, LineDecl)):
                env[st.name] = _eval_expr(st.expr, env, backend)
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


def _eval_expr(expr, env, backend: Backend):
    if isinstance(expr, PointLiteral):
        return Point(*(_to_backend_scalar(t, backend) for t in expr.triple))
    if isinstance(expr, LineLiteral):
        return Line(*(_to_backend_scalar(t, backend) for t in expr.triple))
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
    if isinstance(st, AssertCollinear):
        points = [env[n] for n in st.points]
        passed = all_collinear(points, backend)
        detail = ""
        if not passed:
            value, _ = _worst_triple(points, collinearity_residual)
            detail = f"witness determinant {format_scalar(value)}"
        return AssertionResult(index, line, "collinear", passed, detail)
    if isinstance(st, AssertConcurrent):
        lines = [env[n] for n in st.lines]
        passed = all_concurrent(lines, backend)
        detail = ""
        if not passed:
            value, _ = _worst_triple(lines, concurrency_residual)
            detail = f"witness determinant {format_scalar(value)}"
        return AssertionResult(index, line, "concurrent", passed, detail)
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
            f"pseudo_{st.kind}",
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


def _gon_kind(st: AssertPseudo | AssertProduct) -> str:
    """The gon kind a pseudo_ or product assertion names: "ceva" for
    pseudo_concurrent and ceva_product, "menelaos" otherwise."""
    return "ceva" if st.kind in ("concurrent", "ceva") else "menelaos"


def _assertion_gon(st: AssertPseudo | AssertProduct, env: dict):
    cls = CevaGon if _gon_kind(st) == "ceva" else MenelaosGon
    return cls(env[st.gon], tuple(env[n] for n in st.items))


def _worst_triple(objs, residual):
    worst = None
    for i in range(len(objs)):
        for j in range(i + 1, len(objs)):
            for k in range(j + 1, len(objs)):
                value, scale = residual(objs[i], objs[j], objs[k])
                key = abs(value)
                if worst is None or key > worst[0]:
                    worst = (key, value, scale)
    return worst[1], worst[2]
