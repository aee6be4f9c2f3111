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

parse has two readers.  The statement reader (_read) takes one match
of a compiled pattern per statement and checks its names against the
_CALLS rows and the symbol table; it reads every scene the formatter
writes and every shipped one.  It refuses what it is unsure of, such as
a comment inside a statement, non-ASCII text or any error, and then the
token reader (_lex and _Parser) reads the whole text again: it returns
the same AST or raises the error, so it alone words every error.

format_scene is the inverse of parse on ASTs: parse(format_scene(ast))
returns an equal AST.  Comments (# to end of line) survive parsing but
not formatting.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import itemgetter
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
_NUMBER_START = "-0123456789"
# the first characters of the tokens that are not words, and "" (the
# end of input's first character, as token[:1] reads it)
_NOT_A_WORD = _PUNCT + _NUMBER_START
_ORDERS = ("first", "exhaustive", "seed")

# A token is its text.  Its kind follows from its first character: a
# word starts with a letter (str.isalpha) or "_", a number with an ASCII
# digit or "-", punctuation is one character of _PUNCT, and end of
# input is "", so the parser tests a token by its text alone.  One
# pattern skips whitespace (exactly space, tab, CR and LF) and comments,
# then takes a token (group 1), a character that starts none (group 2)
# or the end of the text.  The skip is greedy and one of the three
# alternatives always matches after it, so the pattern never backtracks.
_TOKEN = re.compile(
    r"(?:[ \t\r\n]+|#[^\n]*)*(?:([^\W\d]\w*|-?[0-9]+|[()\[\],;:=/])|(.)|\Z)",
    re.DOTALL,
)
_TOKEN_TEXT = itemgetter(1)
_NEWLINE = re.compile("\n")


def _lex(text: str) -> tuple[list[str], Callable[[int], Pos]]:
    """The token texts, end of input "" last, and a function from a
    token's index to its 1-based (line, column); a column counts code
    points, a tab as one."""
    matches = list(_TOKEN.finditer(text))
    tokens = list(map(_TOKEN_TEXT, matches))
    # the first match without a token is the end of the text, or a
    # character that starts no token (finditer may add an empty match
    # at the end, which this drops too)
    n = tokens.index(None)
    bad = matches[n].start(2)
    if not text.isascii():
        # [^\W\d] also takes numerals that are not letters, such as "²"
        # or "½": a word may hold them but not start with one
        for k in range(n):
            first = tokens[k][0]
            if not (first.isascii() or first.isalpha()):
                bad = matches[k].start(1)
                break
    newlines = [m.start() for m in _NEWLINE.finditer(text)]

    def position(offset: int) -> Pos:
        line = bisect_left(newlines, offset)
        return line + 1, offset - (newlines[line - 1] if line else -1)

    if bad >= 0:
        raise SceneSyntaxError(
            f"unexpected character {text[bad]!r}", *position(bad)
        )
    del tokens[n:]
    tokens.append("")
    # end of input sits at the end of the text, or where a comment on the
    # last line starts: the lexer never counted a comment's columns
    last = matches[n - 1].end() if n else 0
    eof = text.find("#", max(last, text.rfind("\n", last) + 1))
    if eof < 0:
        eof = len(text)

    def where(i: int) -> Pos:
        return position(matches[i].start(1) if i < n else eof)

    return tokens, where


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
Statement = Decl | GonDecl | Call | AssertPseudo | AssertProduct


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
    """Recursive descent over the token texts; self.i is the index of
    the next token, and a method that needs a site keeps a token's
    index for self.where."""

    def __init__(self, tokens: list[str], where: Callable[[int], Pos]):
        self.toks = tokens
        self.where = where
        self.i = 0
        # name -> "point" | "line" | ("gon", arity)
        self.symbols: dict[str, object] = {}

    def fail(self, message: str, i: int, expected=()):
        raise SceneSyntaxError(message, *self.where(i), expected)

    def found(self, what: str, i: int, expected) -> None:
        self.fail(
            f"expected {what}, found {self.toks[i] or 'end of input'!r}",
            i,
            expected,
        )

    def punct(self, value: str) -> int:
        i = self.i
        if self.toks[i] != value:
            self.found(repr(value), i, (value,))
        self.i = i + 1
        return i

    def keyword(self, *values: str) -> str:
        tok = self.toks[self.i]
        if tok not in values:
            self.found(" or ".join(map(repr, values)), self.i, values)
        self.i += 1
        return tok

    def name(self) -> int:
        """A word that may name an object, not a keyword."""
        i = self.i
        tok = self.toks[i]
        # "" (end of input) is in every string, so it fails here too
        if tok[:1] in _NOT_A_WORD:
            self.found("a name", i, ("identifier",))
        if tok in _KEYWORDS:
            self.fail(f"{tok!r} is a reserved word", i)
        self.i = i + 1
        return i

    def ident(self, want: str) -> str:
        """A declared name of kind `want`; "any" is a point or a line."""
        i = self.i
        tok = self.toks[i]
        kind = self.symbols.get(tok)
        if kind is None:
            self.name()
            raise UnknownIdentifier(tok, *self.where(i))
        self.i = i + 1
        if kind == want:
            return tok
        label = kind[0] if isinstance(kind, tuple) else kind
        if want == "any":
            if label not in ("point", "line"):
                raise TypeMismatch(
                    f"{tok!r} is not a point or line", *self.where(i)
                )
        elif label != want:
            raise TypeMismatch(
                f"{tok!r} is a {label}, expected a {want}", *self.where(i)
            )
        return tok

    def fresh_name(self) -> int:
        i = self.name()
        if self.toks[i] in self.symbols:
            raise Redeclaration(self.toks[i], *self.where(i))
        return i

    def more(self, want: str) -> list[str]:
        """Names of kind `want`, each after a ','."""
        names = []
        while self.toks[self.i] == ",":
            self.i += 1
            names.append(self.ident(want))
        return names

    def number(self, message: str = "") -> int:
        """A number token's value; any other token fails with the
        message, by default "expected a number, found ..."."""
        i = self.i
        tok = self.toks[i]
        if not tok or tok[0] not in _NUMBER_START:
            if message:
                self.fail(message, i, ("number",))
            self.found("a number", i, ("number",))
        self.i = i + 1
        try:
            return int(tok)
        except ValueError as exc:  # past the interpreter's digit limit
            self.fail(f"number too long: {exc}", i)

    def rational(self) -> Scalar:
        num = self.number()
        if self.toks[self.i] == "/":
            self.i += 1
            i = self.i
            den = self.number("expected a denominator")
            if den == 0:
                self.fail("denominator cannot be zero", i)
            return Fraction(num, den)
        return num

    # statements ------------------------------------------------------

    def scene(self) -> SceneAst:
        statements = []
        while self.toks[self.i]:
            statements.append(self.statement())
        return SceneAst(tuple(statements))

    def statement(self) -> Statement:
        method = _STATEMENTS.get(self.toks[self.i])
        if method is None:
            self.found(_one_of(_STATEMENTS), self.i, tuple(_STATEMENTS))
        return method(self)

    def decl(self) -> Decl:
        kind = self.toks[self.i]
        self.i += 1
        i = self.fresh_name()
        self.punct("=")
        expr = self.expr(kind)
        name = self.toks[i]
        self.symbols[name] = kind
        return Decl(kind, name, expr, pos=self.where(i))

    def expr(self, kind: str):
        tok = self.toks[self.i]
        if tok == "(":
            return self.literal_triple(kind == "point")
        call = _CALLS.get(tok)
        if call is None or call.makes != kind:
            calls = tuple(k for k, c in _CALLS.items() if c.makes == kind)
            self.fail(
                f"expected a coordinate literal, {_one_of(calls)}",
                self.i,
                expected=("(",) + calls,
            )
        return self.call()

    def call(self, pos: Pos = _NOPOS) -> Call:
        """A call, read as its _CALLS row spells it; an assertion call
        passes the site of its 'assert'."""
        keyword = self.toks[self.i]
        self.i += 1
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
                    *self.where(close),
                )
        return Call(keyword, tuple(args), pos)

    def literal_triple(self, point: bool) -> tuple[Scalar, Scalar, Scalar]:
        self.punct("(")
        first = self.rational()
        sep = self.toks[self.i]
        if point and sep == ",":
            self.i += 1
            second = self.rational()
            self.punct(")")
            return (first, second, 1)
        if sep == ":":
            self.i += 1
            second = self.rational()
            self.punct(":")
            third = self.rational()
            self.punct(")")
            return (first, second, third)
        self.fail(
            "expected ',' or ':'" if point else "expected ':'",
            self.i,
            expected=(",", ":") if point else (":",),
        )

    def gon_decl(self) -> GonDecl:
        self.i += 1
        i = self.fresh_name()
        self.punct("=")
        self.punct("[")
        names = [self.ident("point")] + self.more("point")
        close = self.punct("]")
        if len(names) < 3:
            raise TypeMismatch("a gon needs at least 3 vertices", *self.where(close))
        name = self.toks[i]
        self.symbols[name] = ("gon", len(names))
        return GonDecl(name, tuple(names), pos=self.where(i))

    def assertion(self) -> Statement:
        start = self.i
        self.i += 1
        method = _PREDICATES.get(self.toks[self.i])
        if method is None:
            self.fail(
                f"unknown predicate {self.toks[self.i] or 'end of input'!r}",
                self.i,
                expected=tuple(sorted(_PREDICATES)),
            )
        return method(self, self.where(start))

    def assert_gon(self, pos: Pos) -> AssertPseudo | AssertProduct:
        """The pseudo_ assertions (then an order clause) and the
        _product assertions (then '= Q'): a gon, then one line (Ceva) or
        cut point (Menelaos) per vertex."""
        which = self.toks[self.i]
        self.i += 1
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
                *self.where(close),
            )
        if which.startswith("pseudo_"):
            order = self.order_clause()
            return AssertPseudo(kind, gon, items, order=order, pos=pos)
        self.punct("=")
        return AssertProduct(kind, gon, items, target=self.rational(), pos=pos)

    def order_clause(self) -> Order:
        if self.toks[self.i] != "order":
            return None
        self.i += 1
        self.punct("=")
        choice = self.keyword(*_ORDERS)
        if choice == "seed":
            self.punct("(")
            k = self.number("expected an integer")
            self.punct(")")
            return ("seed", k)
        return choice


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


# ---------------------------------------------------------------------------
# statement reader

# One match reads the gap before a statement (whitespace and comments;
# a comment ends at a line break or the end of the text, so the gap
# splits one way only) and then one statement, or the end of the text.
# Groups: 1 point, line or gon and 2 its name, or 3 assert; then a
# literal (4/5, 6 ',' or ':', 7/8, 9/10: numerators over denominators),
# 11 a bracketed name list, or 12 a word and 13 its names with an
# optional tail, 14 an order word and 15 its seed, or '=' 16/17.  _read
# checks what the match holds against _CALLS and the symbol table.  A
# comment inside a statement does not match.
_WS = "[ \t\r\n]*"
_NAMES = rf"[A-Za-z_]\w*(?:{_WS}[,;]{_WS}[A-Za-z_]\w*)*"
_Q = rf"(-?[0-9]+)(?:{_WS}/{_WS}(-?[0-9]+))?"
_STATEMENT = re.compile(
    rf"{_WS}(?:#[^\n]*(?:\n{_WS}|\Z))*(?:(?:(point|line|gon)[ \t\r\n]+"
    rf"([A-Za-z_]\w*){_WS}={_WS}|(assert)[ \t\r\n]+)(?:\({_WS}{_Q}{_WS}"
    rf"([,:]){_WS}{_Q}(?:{_WS}:{_WS}{_Q})?{_WS}\)|\[{_WS}({_NAMES}){_WS}\]"
    rf"|(\w+){_WS}\({_WS}({_NAMES}){_WS}\)(?:{_WS}order{_WS}={_WS}(\w+)"
    rf"(?:{_WS}\({_WS}(-?[0-9]+){_WS}\))?|{_WS}={_WS}{_Q})?)|\Z)",
    re.ASCII,
)
# (kind, separator, no third coordinate) of a literal
_LITERALS = {("point", ",", True), ("point", ":", False), ("line", ":", False)}
# (order word, no seed) of a pseudo_ assertion's tail
_ORDER_TAILS = {(None, True), ("first", True), ("exhaustive", True), ("seed", False)}


def _read(text: str) -> SceneAst | None:
    """The AST of text, one _STATEMENT match per statement, or None at
    the first statement that the pattern or a check refuses: non-ASCII
    text, a comment inside a statement, a reserved, unknown or
    redeclared name, a wrong kind or count of names, a zero denominator
    or a number int() rejects.  A check refuses by raising ValueError,
    as int() does.  A site is where the lexer's where puts it, found
    from the match offset through a running line count."""
    if not text.isascii():
        return None
    symbols: dict[str, object] = {}
    statements = []
    at = last = start = 0
    line = 1
    try:
        while m := _STATEMENT.match(text, at):
            (kind, name, assertion, n1, d1, sep, n2, d2, n3, d3, vertices,
             word, args, order, seed, n4, d4) = m.groups()
            if not (kind or assertion):
                return SceneAst(tuple(statements))
            at = m.end()
            site = m.start(3 if assertion else 2)
            newlines = text.count("\n", last, site)
            if newlines:
                line += newlines
                start = text.rfind("\n", last, site) + 1
            last = site
            pos = (line, site - start + 1)
            if name in symbols or name in _KEYWORDS:
                raise ValueError
            row = _CALLS.get(word)
            if n1 is not None:
                if (kind, sep, n3 is None) not in _LITERALS:
                    raise ValueError
                z = 1 if n3 is None else _value(n3, d3)
                node = _decl(kind, name, (_value(n1, d1), _value(n2, d2), z), pos)
            elif vertices is not None:
                names = vertices.replace(",", " ").split()
                if kind != "gon" or ";" in vertices or len(names) < 3 or {
                    *map(symbols.get, names)
                } != {"point"}:
                    raise ValueError
                kind = ("gon", len(names))
                node = GonDecl(name, tuple(names), pos)
            elif assertion and word in _GON_PREDICATES:
                node = _gon_assertion(word, args, order, seed, n4, d4, symbols, pos)
            elif order or n4 or row is None or row.makes != (kind or "assert"):
                raise ValueError
            else:
                args = _call_args(row.groups, args, symbols)
                node = _call(word, args, _NOPOS if kind else pos)
                if kind:
                    node = _decl(kind, name, node, pos)
            if kind:
                symbols[name] = kind
            statements.append(node)
    except ValueError:
        pass
    return None


def _value(num: str, den: str | None) -> Scalar:
    """What a rational literal reads as: an int, or a Fraction over a
    nonzero denominator."""
    if den is None:
        return int(num)
    den = int(den)
    if not den:
        raise ValueError
    return Fraction(int(num), den)


def _call_args(groups, text: str, symbols: dict) -> tuple:
    """A call's arguments from its name list, slot by slot as
    _Parser.call reads them."""
    parts = text.split(";")
    if len(parts) != len(groups):
        raise ValueError
    args = []
    names = []  # every name of the call
    kinds = []  # the kind each name must have
    fixed = "any"  # the kind of the first "any" argument, once read
    for part, group in zip(parts, groups):
        k = len(names)
        names += part.replace(",", " ").split()
        for want, count, more in group:
            end = len(names) if more else k + (count or 1)
            if end > len(names) or end - k < count:
                raise ValueError
            if want == "any":
                if fixed == "any":
                    fixed = symbols.get(names[k])
                    if fixed != "point" and fixed != "line":
                        raise ValueError
                want = fixed
            kinds += [want] * (end - k)
            args.append(tuple(names[k:end]) if count else names[k])
            k = end
        if k != len(names):
            raise ValueError
    if [*map(symbols.get, names)] != kinds:
        raise ValueError
    return tuple(args)


def _gon_assertion(word, args, order, seed, n4, d4, symbols, pos):
    """A pseudo_ or _product assertion, as _Parser.assert_gon reads it."""
    kind = _GON_PREDICATES[word]
    want = "line" if kind == "ceva" else "point"
    gon, *items = args.replace(",", " ").split()
    arity = symbols.get(gon)
    if ";" in args or type(arity) is not tuple or arity[1] != len(items) or {
        *map(symbols.get, items)
    } != {want}:
        raise ValueError
    if not word.startswith("pseudo_"):
        if order or n4 is None:
            raise ValueError
        return AssertProduct(kind, gon, tuple(items), _value(n4, d4), pos)
    if n4 or (order, seed is None) not in _ORDER_TAILS:
        raise ValueError
    order = ("seed", int(seed)) if seed else order
    return AssertPseudo(kind, gon, tuple(items), order, pos)


# The reader sets up Decl and Call nodes, the most frequent, past the
# frozen dataclass __init__, as core._built sets up elements.  Each
# field goes into the instance dict in declared order, so the dicts
# keep sharing their class's keys.
def _decl(kind, name, expr, pos) -> Decl:
    node = object.__new__(Decl)
    d = node.__dict__
    d["kind"], d["name"], d["expr"], d["pos"] = kind, name, expr, pos
    return node


def _call(keyword, args, pos) -> Call:
    node = object.__new__(Call)
    d = node.__dict__
    d["keyword"], d["args"], d["pos"] = keyword, args, pos
    return node


def parse(text: str) -> SceneAst:
    """Parse scene text; the first problem raises with 1-based line and
    column inside the offending token.

    The statement reader reads the text; where it refuses a statement,
    the token reader reads the whole text again and returns the AST or
    raises the error."""
    ast = _read(text)
    if ast is None:
        ast = _Parser(*_lex(text)).scene()
    return ast


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
    try:
        return float(value)
    except OverflowError:
        raise GeometryError("a literal is past the float range") from None


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

