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

Every construction and every fixed-shape assertion is a call, and each
call is one row of the _CALLS table: its keyword, what it makes (a
point, a line or an assertion), its argument kinds and the function
that evaluates it.  The parser, the formatter, the evaluator and the
reserved words all read that table, so a new construction is one row
plus its line in README's grammar.  The dual predicates collinear (of
points) and concurrent (of lines) are two rows with one evaluator.

The AST has five nodes.  Decl declares a point or a line: its kind
picks Point or Line and whether the affine (x, y) spelling is read, and
its expression is a coordinate triple or a Call.  GonDecl declares a
gon.  Call is one call of a _CALLS row, a construction inside a Decl
or an assertion on its own.  The gon assertions AssertPseudo and
AssertProduct carry the gon kind, "ceva" (one line per vertex) or
"menelaos" (one cut point per vertex), and their order or target
clause.

format_scene is the inverse of parse on ASTs: parse(format_scene(ast))
returns an equal AST.  Comments (# to end of line) survive parsing but
not formatting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Callable, NamedTuple, Union

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
class Call:
    """A call of the _CALLS row named by keyword, with one argument per
    slot of the row: a name, or a tuple of names for a counted slot."""

    keyword: str
    args: tuple[Union[str, tuple[str, ...]], ...]
    pos: Pos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class Decl:
    kind: str  # "point" | "line"
    name: str
    # a coordinate literal is its homogeneous triple; any other
    # expression is a Call of a _CALLS row that makes this kind
    expr: Union[tuple[Scalar, Scalar, Scalar], Call]
    pos: Pos = field(default=_NOPOS, compare=False)


@dataclass(frozen=True)
class GonDecl:
    name: str
    vertices: tuple[str, ...]
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


# a Call at the top level is an assertion
Statement = Union[Decl, GonDecl, Call, AssertPseudo, AssertProduct]


@dataclass(frozen=True)
class SceneAst:
    statements: tuple[Statement, ...]


# ---------------------------------------------------------------------------
# syntax tables


class _Row(NamedTuple):
    makes: str  # "point" | "line" | "assert"
    # argument groups (separated by ";"), each a tuple of (kind, count,
    # more) slots: count 0 is one name, count k > 0 a tuple of k names,
    # or of k or more names when more is set
    groups: tuple[tuple[tuple[str, int, bool], ...], ...]
    # (one object, or list of objects, per slot, backend) -> the object
    # made, or an assertion's (passed, detail)
    evaluate: Callable


def _groups(spec: str) -> tuple[tuple[tuple[str, int, bool], ...], ...]:
    """Read an argument spec: "point x4; any, line x3+" becomes
    ((("point", 4, False),), (("any", 0, False), ("line", 3, True)))."""
    groups = []
    for group in spec.split(";"):
        slots = []
        for slot in group.split(","):
            kind, _, count = slot.strip().partition(" x")
            slots.append((kind, int(count.rstrip("+") or 0), count.endswith("+")))
        groups.append(tuple(slots))
    return tuple(groups)


def _incidence(objs, backend: Backend):
    # one body serves points (collinear) and lines (concurrent)
    if all_collinear(objs, backend):
        return True, ""
    return False, f"witness determinant {format_scalar(_worst_triple(objs))}"


def _worst_triple(objs):
    # the largest |determinant| of three of the points (or lines), first on a tie
    triples = combinations([o.triple for o in objs], 3)
    return max((_det3(*t) for t in triples), key=abs)


def _harmonic(a, b, x, y, backend: Backend):
    if isinstance(a, Point):
        cr = cross_ratio_points(a, b, x, y, backend)
    else:
        cr = cross_ratio_lines(meet(a, b), a, b, x, y, backend)
    return backend.eq(cr, -1), f"cross-ratio {format_scalar(cr)}"


def _cr_equal(first, second, backend: Backend):
    cr1 = cross_ratio_points(*first, backend)
    cr2 = cross_ratio_points(*second, backend)
    return backend.eq(cr1, cr2), f"{format_scalar(cr1)} vs {format_scalar(cr2)}"


# The calls: keyword, what the call makes, its argument kinds and its
# evaluator.  A spec's groups are separated by ";" and a group's slots
# by ",".  "point" is one point; "point x4" is four comma-separated
# points held in one tuple; "point x3+" is three or more of them and
# ends its group; "any" is a point or a line, and the first "any" fixes
# that kind for the others.  An evaluator calls the kernel by its name
# in this module, because bench/tracer.py counts calls by patching
# those names.  The row order is the order in which error messages
# list the alternatives.
_CALLS = {
    keyword: _Row(makes, _groups(spec), evaluate)
    for keyword, makes, spec, evaluate in (
        ("meet", "point", "line, line", lambda l, m, be: meet(l, m)),
        (
            "conjugate", "point", "point, point; point",
            lambda a, b, x, be: harmonic_conjugate(a, b, x, be),
        ),
        ("join", "line", "point, point", lambda p, q, be: join(p, q)),
        (
            "fourth_harmonic", "line", "point; line, line; line",
            lambda v, a, b, g, be: fourth_harmonic_line(v, a, b, g, be),
        ),
        (
            "complete_fourth_line", "line", "point x4; line x3",
            lambda vs, gs, be: complete_fourth_line(vs, *gs, backend=be),
        ),
        ("cr_equal", "assert", "point x4; point x4", _cr_equal),
        ("collinear", "assert", "point x3+", _incidence),
        ("concurrent", "assert", "line x3+", _incidence),
        ("harmonic", "assert", "any, any; any, any", _harmonic),
    )
}

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

    def ident(self, want: str) -> str:
        """A declared name of kind `want`; "any" is a point or a line."""
        tok = self.name()
        if tok.value not in self.symbols:
            raise UnknownIdentifier(tok.value, tok.line, tok.col)
        kind = self.symbols[tok.value]
        label = kind[0] if isinstance(kind, tuple) else kind
        if want == "any":
            if label not in ("point", "line"):
                raise TypeMismatch(
                    f"{tok.value!r} is not a point or line", tok.line, tok.col
                )
        elif label != want:
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

    def to_int(self, tok: _Token) -> int:
        try:
            return int(tok.value)
        except ValueError as exc:  # past the interpreter's digit limit
            self.fail(f"number too long: {exc}", tok)

    def rational(self) -> Scalar:
        tok = self.peek()
        if tok.kind != "number":
            self.found("a number", tok, ("number",))
        self.advance()
        num = self.to_int(tok)
        if self.peek().value == "/":
            self.advance()
            den_tok = self.peek()
            if den_tok.kind != "number":
                self.fail("expected a denominator", den_tok, ("number",))
            self.advance()
            den = self.to_int(den_tok)
            if den == 0:
                self.fail("denominator cannot be zero", den_tok)
            return Fraction(num, den)
        return num

    def integer(self) -> int:
        tok = self.peek()
        if tok.kind != "number":
            self.fail("expected an integer", tok, ("number",))
        self.advance()
        return self.to_int(tok)

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

    def call(self, pos: Pos = _NOPOS) -> Call:
        """A call, read as its _CALLS row spells it; an assertion call
        passes the site of its 'assert'."""
        keyword = self.advance().value
        groups = _CALLS[keyword].groups
        args = []
        fixed = "any"  # the kind of the first "any" argument, once read
        self.punct("(")
        for g, group in enumerate(groups):
            for s, (want, count, more) in enumerate(group):
                if want == "any":
                    want = fixed
                names = []
                for k in range(1 if more else count or 1):
                    if s or k:
                        self.punct(",")
                    names.append(self.ident(want))
                if more:
                    names += self.more(want)
                if want == "any":
                    fixed = self.symbols[names[0]]
                args.append(tuple(names) if count else names[0])
            close = self.punct(";" if g + 1 < len(groups) else ")")
            # a "k or more" slot ends its group: count it at the close
            if more and len(names) < count:
                raise TypeMismatch(
                    f"{keyword} needs at least {count} arguments",
                    close.line,
                    close.col,
                )
        return Call(keyword, tuple(args), pos)

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


def _format_call(call: Call) -> str:
    """The text of a call, written as its _CALLS row spells it."""
    values = iter(call.args)
    groups = []
    for group in _CALLS[call.keyword].groups:
        names = []
        for _, count, _ in group:
            value = next(values)
            names.extend(value if count else (value,))
        groups.append(", ".join(names))
    return f"{call.keyword}({'; '.join(groups)})"


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
        elif isinstance(st, Call):
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
    if isinstance(expr, Call):
        return _eval_call(expr, env, backend)
    cls = Point if decl.kind == "point" else Line
    return cls(*(_to_backend_scalar(t, backend) for t in expr))


def _eval_call(call: Call, env, backend: Backend):
    """What a call makes, or an assertion call's (passed, detail)."""
    args = [env[a] if type(a) is str else [env[n] for n in a] for a in call.args]
    return _CALLS[call.keyword].evaluate(*args, backend)


def _eval_assertion(st, env, backend: Backend, index: int) -> AssertionResult:
    line = st.pos[0]
    if isinstance(st, Call):
        passed, detail = _eval_call(st, env, backend)
        return AssertionResult(index, line, st.keyword, passed, detail)
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

