"""Homogeneous-coordinate kernel for plane projective geometry.

Points and lines are coordinate triples identified up to a nonzero
scale factor.  A point (x : y : w) with w != 0 is the affine point
(x/w, y/w); points with w == 0 lie on the line at infinity.  A line
(a : b : c) consists of the points with a*x + b*y + c*w == 0.

Each backend decides its zero tests in one place: ExactBackend by
== 0, FloatBackend at a relative tolerance.  Called without one, the
kernel functions (incident, collinear, coincide, the cross-ratios,
signed_ratio, the harmonic constructions), the pencils reports and
the ratio products use EXACT even on float data, whose callers pass
float_backend(); the gons, the configs, HarmonicPencil, pappus_lines
and the verdicts infer the data's lane: float_backend() if a
coordinate is a float, else EXACT.  join, meet, == and, under EXACT, the
predicates and the gon reductions only add, multiply and compare with
0, so they run over any exact commutative ring, polynomials included.
Constructed triples are reduced to keep coordinates small, but
equality is the proportionality test, never a form comparison.

Points and lines are duals (dualize swaps them, keeping the triple),
and each dual pair has one body.  Point and Line share a private base
that holds the constructor with its zero-triple check, the integer
form, triple, ==, repr and JSON; each declares only its three fields
and its own methods.  collinear and concurrent are one function, as
are the two residuals and all_collinear/all_concurrent; coincide is
the backend-aware equality of two points or two lines;
harmonic_conjugate and fourth_harmonic_line share the
chart-and-bracket combination and differ only in how they check their
input.

Each point and line with int or Fraction coordinates also keeps an
integer form, computed once when it is built: the primitive int triple
that is a positive multiple of its coordinates (an int triple is its
own integer form; a triple with a float or any other scalar has none).
A construction on exact operands (join, meet, harmonic_conjugate,
fourth_harmonic_line) yields a primitive int triple, which is then both
the element's triple and its integer form, so the element takes it
from the construction, with none of the constructor's checks.
join, meet, ==, incident, collinear, concurrent and coincide, and the
ratio kernel (signed_ratio, cross_ratio_points, cross_ratio_lines,
harmonic_conjugate and fourth_harmonic_line), compute on integer forms
whenever every operand has one and the zero test is exact, so the
exact lane multiplies ints, not Fractions.  A positive factor changes
no zero or proportionality test, no sign and no comparison of absolute
values that picks a chart.  A signed ratio or cross-ratio is of degree
0 in each operand, so it is the same Fraction; a cross product or
harmonic fourth is a positive multiple of the one on the coordinates,
which _tidy maps to the same primitive triple.  So verdicts, values
and constructed triples are those of the given coordinates.  Anything
else computes on the coordinates as given: float arithmetic, tolerance
tests (whose max(1, scale) floor is not scale-free), and .triple,
repr, to_json and the *_residual values.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Iterable, Sequence, Union

Scalar = Union[int, Fraction, float]
_RATIONAL = (int, Fraction)

DEFAULT_EPS = 1e-9
EPS_ENV_VAR = "HARMONICA_EPS"


class GeometryError(Exception):
    """Base class for degenerate geometric input."""


class CoincidentPoints(GeometryError):
    """Two points that had to be distinct are equal."""


class CoincidentLines(GeometryError):
    """Two lines that had to be distinct are equal."""


class NotCollinear(GeometryError):
    """Points required to share a line do not."""


class NotConcurrent(GeometryError):
    """Lines required to share a point do not."""


class DegenerateInput(GeometryError):
    """Input degenerate in a way that leaves the result undefined."""


class TooFewDistinct(DegenerateInput):
    """A tuple collapses so the requested invariant is indeterminate."""


class PointAtInfinity(GeometryError):
    """A finite (affine) point was required."""


class UndefinedRatio(GeometryError):
    """A ratio product has an infinite or indeterminate factor."""


class UndefinedFoot(GeometryError):
    """A cevian foot or transversal cut needed by a product is undefined."""


class DegenerateConfig(GeometryError):
    """A configuration violates the nondegeneracy assumptions of a check."""


class NoSolution(GeometryError):
    """A completion problem has no admissible solution for this input."""


# ---------------------------------------------------------------------------
# scalar backends


def eps_from_env(default: float = DEFAULT_EPS) -> float:
    """Float tolerance, honoring the HARMONICA_EPS override."""
    raw = os.environ.get(EPS_ENV_VAR)
    if raw is None:
        return default
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"{EPS_ENV_VAR} must be a float, got {raw!r}")
    if not (value > 0):
        raise ValueError(f"{EPS_ENV_VAR} must be positive, got {value}")
    return value


@dataclass(frozen=True)
class ExactBackend:
    """Decides each test by == 0 on ring operations alone, so over any
    exact commutative ring; zero ignores the scale it is given."""

    kind: ClassVar[str] = "exact"

    def zero(self, value: Scalar, scale: Scalar = 1) -> bool:
        return value == 0

    def eq(self, a: Scalar, b: Scalar) -> bool:
        return a == b

    def incident(self, l, p) -> bool:
        return l[0] * p[0] + l[1] * p[1] + l[2] * p[2] == 0

    def dependent(self, p, q, r) -> bool:
        return _det3(p, q, r) == 0

    def proportional(self, p, q) -> bool:
        return _proportional(p, q)


@dataclass(frozen=True)
class FloatBackend:
    """Decides each test at relative tolerance: a residual r is zero at
    scale s when abs(r) <= eps * max(1, abs(s)), s the sum of the terms'
    absolute values for an incidence, their permanent for a determinant
    and the product of the max-norms for a proportionality."""

    eps: float = DEFAULT_EPS
    kind: ClassVar[str] = "float"

    def zero(self, value: Scalar, scale: Scalar = 1) -> bool:
        return abs(value) <= self.eps * max(1.0, abs(scale))

    def eq(self, a: Scalar, b: Scalar) -> bool:
        return self.zero(a - b, max(abs(a), abs(b)))

    def incident(self, l, p) -> bool:
        value, scale = _incidence(l, p)
        return abs(value) <= self.eps * max(1.0, scale)

    def dependent(self, p, q, r) -> bool:
        return abs(_det3(p, q, r)) <= self.eps * max(1.0, _det3_scale(p, q, r))

    def proportional(self, p, q) -> bool:
        bound = self.eps * max(1.0, max(map(abs, p)) * max(map(abs, q)))
        return all(abs(v) <= bound for v in _cross(p, q))


Backend = ExactBackend | FloatBackend

EXACT = ExactBackend()


def float_backend(eps: float | None = None) -> FloatBackend:
    """Float backend with the given tolerance (default honors the env)."""
    return FloatBackend(eps_from_env() if eps is None else eps)


# ---------------------------------------------------------------------------
# triple helpers


def _is_float(*values: Scalar) -> bool:
    return any(isinstance(v, float) for v in values)


def _backend_of(*objs) -> Backend:
    """The data's lane, which backend=None selects: the float backend if
    a coordinate of the points or lines is a float, else EXACT."""
    if any(o._form is None and _is_float(*o.triple) for o in objs):
        return float_backend()
    return EXACT


def exact_div(num: Scalar, den: Scalar) -> Scalar:
    """Division that never silently turns ints into floats."""
    if type(num) is int and type(den) is int:
        return Fraction(num, den)
    if _is_float(num, den):
        return num / den
    return Fraction(num) / Fraction(den)


def _tidy(x: Scalar, y: Scalar, z: Scalar) -> tuple[Scalar, Scalar, Scalar]:
    # size control for constructed triples; projectively a no-op
    if type(x) is int and type(y) is int and type(z) is int:
        g = math.gcd(x, y, z)
        if g > 1:
            return x // g, y // g, z // g
        return x, y, z
    if _is_float(x, y, z):
        return _max_normalized(x, y, z)
    return _integer_form(x, y, z) or (x, y, z)


def _max_normalized(x: Scalar, y: Scalar, z: Scalar) -> tuple[Scalar, Scalar, Scalar]:
    """The float rule of _tidy: the triple divided by its max-norm, or
    kept as it is when that norm is zero or not finite."""
    m = max(abs(x), abs(y), abs(z))
    if m == 0 or not math.isfinite(m):
        return x, y, z
    return x / m, y / m, z / m


def _int_cross(error: type, a: tuple, b: tuple) -> tuple[int, int, int]:
    """The cross product of two int triples divided by its gcd: a
    primitive int triple, which is its own integer form.  Proportional
    operands raise error."""
    a1, a2, a3 = a
    b1, b2, b3 = b
    x, y, z = a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1
    g = math.gcd(x, y, z)
    if not g:
        raise error(f"{a} and {b} are proportional")
    if g > 1:
        return x // g, y // g, z // g
    return x, y, z


def _float_cross(error: type, a: tuple, b: tuple) -> tuple[float, float, float]:
    """The cross product of two all-float triples, normalized by
    _max_normalized.  Proportional operands raise error."""
    a1, a2, a3 = a
    b1, b2, b3 = b
    x, y, z = a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1
    if _coincident(a, b, x, y, z):
        raise error(f"{a} and {b} are proportional")
    return _max_normalized(x, y, z)


def _coincident(a: tuple, b: tuple, x, y, z) -> bool:
    """Whether triples a and b, whose cross product is (x, y, z), are
    proportional, as _proportional and so == decide.  Each component of
    a proportional pair's cross product is 0, or NaN where two equal
    float products overflowed to one infinity (inf - inf), so a zero
    cross product alone would join such a pair into a NaN line."""
    return (
        (x == 0 or x != x)
        and (y == 0 or y != y)
        and (z == 0 or z != z)
        and _proportional(a, b)
    )


def _built(cls, t: tuple[Scalar, Scalar, Scalar]):
    """cls(*_tidy(*t)) for a nonzero triple t that a construction
    computed.

    An int or Fraction triple tidies to a primitive int triple, which
    is its own integer form, and a nonzero all-float triple to
    _max_normalized's, which has none; both are set up directly, with
    none of the constructor's checks.  Any other triple goes through the
    constructor, which rejects a zero.
    """
    x, y, z = t
    if type(x) is int and type(y) is int and type(z) is int:
        g = math.gcd(x, y, z)
        if g > 1:
            t = x // g, y // g, z // g
        form = t
    elif type(x) is float and type(y) is float and type(z) is float:
        if not (x or y or z):
            return cls(x, y, z)
        t, form = _max_normalized(x, y, z), None
    else:
        t = form = _tidy(x, y, z)
        x, y, z = t
        if not (type(x) is int and type(y) is int and type(z) is int):
            return cls(*t)
    return _with_form(cls, t, form)


def _with_form(cls, t: tuple, form: tuple[int, int, int] | None):
    """An element of cls with triple t and integer form `form`, set up
    with none of the constructor's checks: the caller vouches that t is
    nonzero and that form is _integer_form(*t)."""
    obj = object.__new__(cls)
    _set_triple(obj, t)
    _set_form(obj, form)
    return obj


def _integer_form(x: Scalar, y: Scalar, z: Scalar) -> tuple[int, int, int] | None:
    """Primitive int triple that is a positive multiple of an exact triple.

    An int triple is returned as it is; a triple with a float, or with a
    scalar that is neither an int nor a Fraction, has no integer form.
    """
    tx, ty, tz = type(x), type(y), type(z)
    if tx is int and ty is int and tz is int:
        return (x, y, z)
    if tx is float or ty is float or tz is float or not (
        isinstance(x, _RATIONAL) and isinstance(y, _RATIONAL) and isinstance(z, _RATIONAL)
    ):
        return None
    dx, dy, dz = x.denominator, y.denominator, z.denominator
    lcm = math.lcm(dx, dy, dz)
    ix, iy, iz = (
        x.numerator * (lcm // dx),
        y.numerator * (lcm // dy),
        z.numerator * (lcm // dz),
    )
    g = math.gcd(ix, iy, iz)
    if g > 1:
        ix, iy, iz = ix // g, iy // g, iz // g
    return ix, iy, iz


# The triples a kernel computation runs on: the integer forms when the
# backend's zero test is exact and every operand has one, otherwise the
# coordinates as given.  Written out for two and three operands because
# they run on every kernel call; _operands takes any number.


def _pair_operands(a, b, backend: Backend):
    fa, fb = a._form, b._form
    if fa is None or fb is None or backend.kind != "exact":
        return a.triple, b.triple
    return fa, fb


def _trio_operands(a, b, c, backend: Backend):
    fa, fb, fc = a._form, b._form, c._form
    if fa is None or fb is None or fc is None or backend.kind != "exact":
        return a.triple, b.triple, c.triple
    return fa, fb, fc


def _operands(backend: Backend, *objs) -> list:
    forms = [o._form for o in objs]
    if None in forms or backend.kind != "exact":
        return [o.triple for o in objs]
    return forms


def _cross(
    p: tuple[Scalar, Scalar, Scalar], q: tuple[Scalar, Scalar, Scalar]
) -> tuple[Scalar, Scalar, Scalar]:
    p1, p2, p3 = p
    q1, q2, q3 = q
    return (p2 * q3 - p3 * q2, p3 * q1 - p1 * q3, p1 * q2 - p2 * q1)


def _det3(
    p: tuple[Scalar, Scalar, Scalar],
    q: tuple[Scalar, Scalar, Scalar],
    r: tuple[Scalar, Scalar, Scalar],
) -> Scalar:
    c = _cross(q, r)
    return p[0] * c[0] + p[1] * c[1] + p[2] * c[2]


def _det3_scale(p, q, r) -> float:
    # permanent of absolute values, the natural magnitude for det residuals
    a1, a2, a3 = abs(p[0]), abs(p[1]), abs(p[2])
    b1, b2, b3 = abs(q[0]), abs(q[1]), abs(q[2])
    c1, c2, c3 = abs(r[0]), abs(r[1]), abs(r[2])
    return (
        a1 * (b2 * c3 + b3 * c2)
        + a2 * (b1 * c3 + b3 * c1)
        + a3 * (b1 * c2 + b2 * c1)
    )


def _incidence(
    l: tuple[Scalar, Scalar, Scalar], p: tuple[Scalar, Scalar, Scalar]
) -> tuple[Scalar, Scalar]:
    value = l[0] * p[0] + l[1] * p[1] + l[2] * p[2]
    scale = abs(l[0] * p[0]) + abs(l[1] * p[1]) + abs(l[2] * p[2])
    return value, scale


def _proportional(p, q) -> bool:
    return (
        p[0] * q[1] == p[1] * q[0]
        and p[0] * q[2] == p[2] * q[0]
        and p[1] * q[2] == p[2] * q[1]
    )


def format_scalar(v: Scalar) -> str:
    """Serialize a scalar losslessly (exact p/q or float repr)."""
    if isinstance(v, float):
        return repr(v)
    f = Fraction(v)
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _scalar_from_str(s: str) -> Scalar:
    if any(ch in s for ch in ".eE") and "/" not in s:
        return float(s)
    return Fraction(s)


# ---------------------------------------------------------------------------
# points and lines


class _Element:
    """What Point and Line share: a coordinate triple, never (0 : 0 : 0),
    identified up to a nonzero scale, with its integer form.

    Each subclass is a frozen dataclass (init, eq and repr left to this
    base) that declares its three coordinate fields and no slots of its
    own.  The triple and the integer form are an object's only two
    slots, since every kernel computation reads one of them; an object
    has no __dict__.  The constructor takes the three coordinates by
    position; the fields read the triple, and their names are the JSON
    keys.
    """

    __slots__ = ("triple", "_form")
    _keys: ClassVar[tuple[str, str, str]]
    triple: tuple[Scalar, Scalar, Scalar]
    _form: tuple[int, int, int] | None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._keys = tuple(cls.__annotations__)
        for i, key in enumerate(cls._keys):
            setattr(cls, key, property(lambda self, i=i: self.triple[i]))

    def __init__(self, *triple: Scalar) -> None:
        if len(triple) != 3:
            raise TypeError(
                f"{type(self).__name__} takes 3 coordinates, got {len(triple)}"
            )
        if triple == (0, 0, 0):
            noun = type(self).__name__.lower()
            raise DegenerateInput(f"(0 : 0 : 0) is not a {noun}")
        object.__setattr__(self, "triple", triple)
        object.__setattr__(self, "_form", _integer_form(*triple))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        p, q = self._form, other._form
        if p is None or q is None:
            p, q = self.triple, other.triple
        return _proportional(p, q)

    def __repr__(self) -> str:
        return "%s(%s : %s : %s)" % (
            type(self).__name__,
            *map(format_scalar, self.triple),
        )

    def __reduce__(self):
        # copy and pickle rebuild through the constructor: a frozen
        # object without a __dict__ cannot take its state back
        return type(self), self.triple

    def to_json(self) -> dict:
        return dict(zip(self._keys, map(format_scalar, self.triple)))

    @classmethod
    def from_json(cls, obj: dict):
        return cls(*(_scalar_from_str(obj[k]) for k in cls._keys))


# what _built sets up a constructed element with, past the frozen
# dataclass's __setattr__
_set_triple = _Element.triple.__set__
_set_form = _Element._form.__set__


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Point(_Element):
    """Projective point (x : y : w)."""

    __slots__ = ()
    x: Scalar
    y: Scalar
    w: Scalar

    @classmethod
    def affine(cls, x: Scalar, y: Scalar) -> "Point":
        return cls(x, y, 1)

    def is_infinite(self) -> bool:
        return self.w == 0

    def to_affine(self) -> tuple[Scalar, Scalar]:
        if self.w == 0:
            raise PointAtInfinity(f"{self} has no affine coordinates")
        return (exact_div(self.x, self.w), exact_div(self.y, self.w))


@dataclass(frozen=True, init=False, eq=False, repr=False)
class Line(_Element):
    """Projective line (a : b : c), the locus of a*x + b*y + c*w == 0."""

    __slots__ = ()
    a: Scalar
    b: Scalar
    c: Scalar

    def is_infinite(self) -> bool:
        return self.a == 0 and self.b == 0


def dualize(obj: Union[Point, Line]) -> Union[Point, Line]:
    """Swap point and line roles, keeping the coordinate triple.

    Incidence is symmetric in the two triples, so dualize maps joins
    to meets, collinear triples to concurrent ones, and conversely.
    """
    if isinstance(obj, Point):
        return Line(*obj.triple)
    if isinstance(obj, Line):
        return Point(*obj.triple)
    raise TypeError(f"cannot dualize {type(obj).__name__}")


# ---------------------------------------------------------------------------
# incidence constructions


def join(p: Point, q: Point) -> Line:
    """Line through two distinct points."""
    try:
        return _crossed(Line, CoincidentPoints, p, q)
    except CoincidentPoints:
        raise CoincidentPoints(f"join of equal points {p}") from None


def meet(l: Line, m: Line) -> Point:
    """Common point of two distinct lines."""
    try:
        return _crossed(Point, CoincidentLines, l, m)
    except CoincidentLines:
        raise CoincidentLines(f"meet of equal lines {l}") from None


def _crossed(cls, error: type, a: _Element, b: _Element):
    """The element of cls on the cross product of a and b, join's and
    meet's one body: _int_cross on integer forms, _float_cross on
    all-float triples and _cross with _built on any other triples.
    Proportional operands raise error."""
    fa, fb = a._form, b._form
    if fa is not None and fb is not None:
        t = _int_cross(error, fa, fb)
        return _with_form(cls, t, t)
    ta, tb = a.triple, b.triple
    a1, a2, a3 = ta
    b1, b2, b3 = tb
    if type(a1) is type(a2) is type(a3) is type(b1) is type(b2) is type(b3) is float:
        return _with_form(cls, _float_cross(error, ta, tb), None)
    t = _cross(ta, tb)
    if _coincident(ta, tb, *t):
        raise error
    return _built(cls, t)


def incident(l: Line, p: Point, backend: Backend = EXACT) -> bool:
    return backend.incident(*_pair_operands(l, p, backend))


def collinearity_residual(
    p: _Element, q: _Element, r: _Element
) -> tuple[Scalar, Scalar]:
    """Determinant of the three triples and its magnitude scale.

    One body serves three points and, as concurrency_residual, three
    lines.
    """
    t = (p.triple, q.triple, r.triple)
    return _det3(*t), _det3_scale(*t)


concurrency_residual = collinearity_residual


def collinear(
    p: _Element, q: _Element, r: _Element, backend: Backend = EXACT
) -> bool:
    """Whether three points lie on one line or, as concurrent, three
    lines pass through one point.

    A triple with two equal members counts.
    """
    return backend.dependent(*_trio_operands(p, q, r, backend))


concurrent = collinear


def coincide(a: _Element, b: _Element, backend: Backend = EXACT) -> bool:
    """Projective equality of two points or two lines at the backend:
    under the exact backend this is a == b."""
    return backend.proportional(*_pair_operands(a, b, backend))


def all_collinear(objs: Sequence[_Element], backend: Backend = EXACT) -> bool:
    """Whether every point of the sequence lies on one common line or,
    as all_concurrent, every line passes through one common point.

    The first distinct pair and each member are tested with collinear;
    fewer than two distinct members pass.
    """
    for i in range(len(objs)):
        for j in range(i + 1, len(objs)):
            if objs[i] != objs[j]:
                a, b = objs[i], objs[j]
                return all(collinear(a, b, c, backend) for c in objs)
    return True


all_concurrent = all_collinear


# ---------------------------------------------------------------------------
# charts on a pencil

# Dropping coordinate k of the points of a line (or of the lines through
# a point) is injective exactly when the k-th coordinate of the carrier
# triple is nonzero; the carrier is the cross product of any two members.
# All one-dimensional computations below reduce to 2x2 brackets in such
# a chart, which makes points and lines at infinity ordinary members.


def _chart_index(carrier: tuple[Scalar, Scalar, Scalar]) -> int:
    k = 0
    best = abs(carrier[0])
    for i in (1, 2):
        a = abs(carrier[i])
        if a > best:
            k, best = i, a
    if best == 0:
        raise DegenerateInput("carrier triple is zero")
    return k


def _project(triple: tuple[Scalar, Scalar, Scalar], k: int) -> tuple[Scalar, Scalar]:
    if k == 0:
        return (triple[1], triple[2])
    if k == 1:
        return (triple[0], triple[2])
    return (triple[0], triple[1])


def _bracket(u: tuple[Scalar, Scalar], v: tuple[Scalar, Scalar]) -> Scalar:
    return u[0] * v[1] - u[1] * v[0]


def _cross_ratio_brackets(
    triples: Sequence[tuple[Scalar, Scalar, Scalar]], k: int
) -> Scalar:
    a, b, c, d = (_project(t, k) for t in triples)
    num = _bracket(a, c) * _bracket(b, d)
    den = _bracket(c, b) * _bracket(d, a)
    if den == 0:
        if num == 0:
            raise TooFewDistinct("cross-ratio is indeterminate (0/0)")
        raise TooFewDistinct("cross-ratio is infinite for this quadruple")
    return exact_div(num, den)


def cross_ratio_points(
    a: Point, b: Point, c: Point, d: Point, backend: Backend = EXACT
) -> Scalar:
    """Cross-ratio (a, b; c, d) of four collinear points.

    Defined as (ac / cb) * (bd / da) in any affine chart of the carrier
    line; computed homogeneously, so members at infinity need no
    special casing.  The value is invariant under projective maps and
    under swapping the pairs: (a, b; c, d) == (c, d; a, b).
    """
    t = _operands(backend, a, b, c, d)
    carrier = _cross(t[0], t[1])
    if carrier == (0, 0, 0):
        raise CoincidentPoints("cross-ratio needs a != b")
    for p, tp in ((c, t[2]), (d, t[3])):
        if not backend.incident(carrier, tp):
            raise NotCollinear(f"{p} is not on the carrier line")
    k = _chart_index(carrier)
    return _cross_ratio_brackets(t, k)


def cross_ratio_lines(
    vertex: Point,
    g1: Line,
    g2: Line,
    g3: Line,
    g4: Line,
    backend: Backend = EXACT,
) -> Scalar:
    """Cross-ratio of four lines of the pencil through a common vertex.

    Equals cross_ratio_points of the four intersections with any
    transversal line avoiding the vertex.
    """
    tv, *t = _operands(backend, vertex, g1, g2, g3, g4)
    for g, tg in zip((g1, g2, g3, g4), t):
        if not backend.incident(tg, tv):
            raise NotConcurrent(f"{g} does not pass through {vertex}")
    if _proportional(t[0], t[1]):
        raise CoincidentLines("cross-ratio needs g1 != g2")
    return _cross_ratio_brackets(t, _chart_index(tv))


def is_harmonic_points(
    a: Point, b: Point, c: Point, d: Point, backend: Backend = EXACT
) -> bool:
    """Whether (a, b; c, d) is a harmonic quadruple (cross-ratio -1)."""
    return backend.eq(cross_ratio_points(a, b, c, d, backend), -1)


def is_harmonic_pencil(
    vertex: Point,
    a1: Line,
    a2: Line,
    g: Line,
    h: Line,
    backend: Backend = EXACT,
) -> bool:
    """Whether (a1, a2; g, h) is a harmonic pencil at the vertex."""
    return backend.eq(cross_ratio_lines(vertex, a1, a2, g, h, backend), -1)


# ---------------------------------------------------------------------------
# signed ratios and areas


@dataclass(frozen=True)
class SegmentRatio:
    """Oriented ratio ad/db of collinear points, possibly infinite.

    value is None exactly when the divider coincides with the second
    endpoint, the limit of ad/db as d approaches b.
    """

    value: Scalar | None

    def is_infinite(self) -> bool:
        return self.value is None

    def __repr__(self) -> str:
        if self.value is None:
            return "SegmentRatio(inf)"
        return f"SegmentRatio({format_scalar(self.value)})"


def signed_ratio(
    a: Point, d: Point, b: Point, backend: Backend = EXACT
) -> SegmentRatio:
    """Oriented ratio ad/db for collinear points a, d, b with a != b.

    Computed homogeneously with the standard affine normalization, so
    a divider at infinity yields exactly -1 and the result does not
    depend on which admissible coordinate chart is used.
    """
    ta, td, tb = _trio_operands(a, d, b, backend)
    carrier = _cross(ta, tb)
    if carrier == (0, 0, 0):
        raise CoincidentPoints("signed ratio needs a != b")
    if not backend.incident(carrier, td):
        raise NotCollinear(f"{d} is not on the line through the endpoints")
    ca, cb, cc = carrier
    if ca == 0 and cb == 0:
        # carrier is the line at infinity; use y as the normalizer
        t, u = 0, 1
    elif abs(cb) >= abs(ca):
        t, u = 0, 2
    else:
        t, u = 1, 2
    at, au = ta[t], ta[u]
    dt, du = td[t], td[u]
    bt, bu = tb[t], tb[u]
    num = (dt * au - du * at) * bu
    den = (bt * du - bu * dt) * au
    if den == 0:
        if num == 0:
            raise TooFewDistinct("signed ratio is indeterminate (0/0)")
        return SegmentRatio(None)
    return SegmentRatio(exact_div(num, den))


def ratio_product(ratios: Iterable[SegmentRatio]) -> Scalar:
    """Product of oriented ratios; raises if a factor is infinite."""
    product: Scalar = 1
    for r in ratios:
        if r.is_infinite():
            raise UndefinedRatio("infinite factor in ratio product")
        product = product * r.value
    return product


def signed_area(a: Point, b: Point, c: Point) -> Scalar:
    """Signed area of the affine triangle a, b, c (positive when
    counterclockwise).  All three points must be finite."""
    ax, ay = a.to_affine()
    bx, by = b.to_affine()
    cx, cy = c.to_affine()
    return exact_div((bx - ax) * (cy - ay) - (by - ay) * (cx - ax), 2)


# ---------------------------------------------------------------------------
# harmonic constructions


def _fourth_harmonic(a, b, x, k: int, message: str) -> tuple[Scalar, Scalar, Scalar]:
    """Triple of the fourth member y with (a, b; x, y) == -1, for the
    triples of members of one range of points or one pencil of lines, in
    chart k.

    Writing x = alpha*a + beta*b, the result is alpha*a - beta*b.
    """
    a2, b2, x2 = _project(a, k), _project(b, k), _project(x, k)
    alpha = _bracket(x2, b2)
    beta = _bracket(a2, x2)
    if alpha == 0 or beta == 0:
        raise DegenerateInput(message)
    return tuple(alpha * ai - beta * bi for ai, bi in zip(a, b))


def harmonic_conjugate(
    a: Point, b: Point, x: Point, backend: Backend = EXACT
) -> Point:
    """Fourth point y with cross-ratio (a, b; x, y) == -1.

    Writing x = alpha*a + beta*b on the carrier line, the conjugate is
    alpha*a - beta*b.  The construction is an involution: applying it
    to the result returns x.
    """
    ta, tb, tx = _trio_operands(a, b, x, backend)
    carrier = _cross(ta, tb)
    if carrier == (0, 0, 0):
        raise CoincidentPoints("harmonic conjugate needs a != b")
    if not backend.incident(carrier, tx):
        raise NotCollinear(f"{x} is not on the line through the base points")
    k = _chart_index(carrier)
    message = "harmonic conjugate needs x distinct from a and b"
    return _built(Point, _fourth_harmonic(ta, tb, tx, k, message))


def fourth_harmonic_line(
    vertex: Point, a: Line, b: Line, g: Line, backend: Backend = EXACT
) -> Line:
    """Fourth line h of the pencil at vertex with (a, b; g, h) == -1."""
    tv, *t = _operands(backend, vertex, a, b, g)
    for l, tl in zip((a, b, g), t):
        if not backend.incident(tl, tv):
            raise NotConcurrent(f"{l} does not pass through {vertex}")
    if _proportional(t[0], t[1]):
        raise CoincidentLines("fourth harmonic needs a != b")
    message = "fourth harmonic needs g distinct from a and b"
    return _built(Line, _fourth_harmonic(*t, _chart_index(tv), message))
