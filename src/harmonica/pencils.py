"""Harmonic pencil configurations on triangles and quadrilaterals.

A harmonic pencil at a vertex is a quadruple of concurrent lines with
cross-ratio -1.  When the first two members are sides of a polygon and
the pencils at neighboring vertices therefore share lines, a family of
coincidence, collinearity and ratio-product statements holds; the
checks in this module construct the objects those statements speak
about.  Verdicts are left to the caller (or to TheoremReport helpers)
so that positive and negative configurations go through the same code.

TriangleConfig and QuadrilateralConfig share one body, the way
reduction._Gon serves both gon kinds: the vertex and line count check,
the no-three-collinear check, the per-vertex pencil test (which
HarmonicPencil runs too), complete and JSON.  At vertex i both test
the pencil whose first two lines are the sides from vertex i-1 and to
vertex i+1; each kind keeps its own side numbering and its own
messages.  A config checks at the backend it is given, else, as
complete builds, in the data's lane (core._backend_of).  In the exact
lane complete builds each h with fourth_harmonic_line, which tests all
that the pencil check would, so complete checks each pencil only in
the float lane.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import combinations
from typing import ClassVar, Sequence

from .core import (
    EXACT,
    Backend,
    CoincidentLines,
    CoincidentPoints,
    DegenerateConfig,
    DegenerateInput,
    GeometryError,
    Line,
    NoSolution,
    Point,
    Scalar,
    TooFewDistinct,
    UndefinedFoot,
    UndefinedRatio,
    _backend_of,
    _built,
    _det3,
    all_collinear,
    coincide,
    collinear,
    concurrent,
    cross_ratio_lines,
    cross_ratio_points,
    exact_div,
    fourth_harmonic_line,
    incident,
    join,
    meet,
    ratio_product,
    signed_ratio,
)
from .reduction import diagonal_ratio_product
from .report import TheoremReport


# ---------------------------------------------------------------------------
# harmonic pencils at a single vertex


@dataclass(frozen=True)
class HarmonicPencil:
    """Four lines (a1, a2; g, h) through one vertex with cross-ratio -1."""

    vertex: Point
    a1: Line
    a2: Line
    g: Line
    h: Line

    def __post_init__(self) -> None:
        be = _backend_of(self.vertex, *self.lines)
        _check_pencil(self.vertex, *self.lines, be, self.vertex)

    @classmethod
    def complete(cls, vertex: Point, a1: Line, a2: Line, g: Line) -> "HarmonicPencil":
        """Pencil with the fourth line filled in harmonically, tested
        again only in the float lane (see the module docstring)."""
        be = _backend_of(vertex, a1, a2, g)
        h = fourth_harmonic_line(vertex, a1, a2, g, be)
        if be is EXACT:
            pencil = cls.__new__(cls)
            pencil.__dict__.update(vertex=vertex, a1=a1, a2=a2, g=g, h=h)
            return pencil
        return cls(vertex, a1, a2, g, h)

    @property
    def lines(self) -> tuple[Line, Line, Line, Line]:
        return (self.a1, self.a2, self.g, self.h)

    def to_json(self) -> dict:
        return {
            "kind": "pencil",
            "vertex": self.vertex.to_json(),
            "lines": [l.to_json() for l in self.lines],
        }

    @classmethod
    def from_json(cls, data: dict) -> "HarmonicPencil":
        return cls(
            Point.from_json(data["vertex"]),
            *(Line.from_json(l) for l in data["lines"]),
        )


def _check_pencil(
    vertex: Point, a1: Line, a2: Line, g: Line, h: Line, backend: Backend, where: object
) -> None:
    """Raise DegenerateInput, naming where the pencil sits, unless
    (a1, a2; g, h) is a harmonic pencil at the vertex."""
    cr = cross_ratio_lines(vertex, a1, a2, g, h, backend)
    if not backend.eq(cr, -1):
        raise DegenerateInput(f"pencil at {where} has cross-ratio {cr}, not -1")


def two_pencils_points(
    p1: HarmonicPencil, p2: HarmonicPencil
) -> tuple[Point, Point, Point, Point]:
    """The four cross intersections of two pencils at distinct vertices.

    Returns (a1*a1', a2*a2', g*g', h*h').  Whenever three of them are
    collinear, so is the fourth; the caller checks collinearity.
    """
    if p1.vertex == p2.vertex:
        raise CoincidentPoints("pencils must sit at distinct vertices")
    for l, m in zip(p1.lines, p2.lines):
        if l == m:
            raise SharedLine(f"{l} belongs to both pencils at the same slot")
    return (
        meet(p1.a1, p2.a1),
        meet(p1.a2, p2.a2),
        meet(p1.g, p2.g),
        meet(p1.h, p2.h),
    )


class SharedLine(GeometryError):
    """Two pencils share a line where they were required not to."""


class SharedLineMissing(GeometryError):
    """Two pencils lack the shared first line a joint statement needs."""


def cor2_collinear_triples(
    p1: HarmonicPencil, p2: HarmonicPencil, backend: Backend = EXACT
) -> tuple[tuple[Point, Point, Point], tuple[Point, Point, Point]]:
    """Collinear triples for pencils sharing their first line.

    With a1 of both pencils equal to the join of the two vertices, the
    triples (a2*a2', g*g', h*h') and (a2*a2', g*h', h*g') are always
    collinear, with no hypothesis on the remaining lines.  The shared
    line is compared at the backend's tolerance.
    """
    if p1.vertex == p2.vertex:
        raise CoincidentPoints("pencils must sit at distinct vertices")
    shared = join(p1.vertex, p2.vertex)
    if not (
        coincide(p1.a1, shared, backend)
        and coincide(p2.a1, shared, backend)
    ):
        raise SharedLineMissing(
            "both pencils must have the join of the vertices as first line"
        )
    base = meet(p1.a2, p2.a2)
    return (
        (base, meet(p1.g, p2.g), meet(p1.h, p2.h)),
        (base, meet(p1.g, p2.h), meet(p1.h, p2.g)),
    )


# ---------------------------------------------------------------------------
# triangles


def _cyc(i: int, n: int) -> int:
    return i % n


def _sides_around(v: Sequence[Point]) -> tuple[Line, ...]:
    n = len(v)
    return tuple(join(v[i], v[_cyc(i + 1, n)]) for i in range(n))


class _PolygonConfig:
    """What TriangleConfig and QuadrilateralConfig share, the way
    reduction._Gon serves both gon kinds: vertices with no three
    collinear, and at vertex i the harmonic pencil (side from vertex
    i-1, side to vertex i+1; g_i, h_i).

    Each subclass declares its fields (vertices, g, h and the InitVar
    backend), its vertex count, its JSON kind, the message for a
    collinear vertex triple, and its own side numbering.  complete
    checks the vertices, joins the sides and hands them to the config.
    """

    _n: ClassVar[int]
    _kind: ClassVar[str]
    _collinear_message: ClassVar[str]

    def __post_init__(self, backend: Backend | None) -> None:
        v = self.vertices
        self._check_count(v, self.g, self.h)
        be = backend or _backend_of(*v, *self.g, *self.h)
        if "sides" not in self.__dict__:  # complete checked before joining
            self._check_vertices(v, be)
        sides = self.sides
        for i in range(len(v)):
            where = f"vertex {i + 1}"
            _check_pencil(v[i], sides[i - 1], sides[i], self.g[i], self.h[i], be, where)

    @classmethod
    def complete(
        cls, vertices: Sequence[Point], g: Sequence[Line]
    ) -> "_PolygonConfig":
        """Config with each h_i filled in as the fourth harmonic line,
        each pencil tested again only in the float lane."""
        v = tuple(vertices)
        cls._check_count(v, g)
        be = _backend_of(*v, *g)
        cls._check_vertices(v, be)
        sides = _sides_around(v)
        h = tuple(
            fourth_harmonic_line(v[i], sides[i - 1], sides[i], g[i], be)
            for i in range(cls._n)
        )
        config = cls.__new__(cls)
        config.__dict__["sides"] = sides
        if be is EXACT:
            config.__dict__.update(vertices=v, g=tuple(g), h=h)
        else:
            config.__init__(v, tuple(g), h, be)
        return config

    @cached_property
    def sides(self) -> tuple[Line, ...]:
        """Entry i joins vertex i to vertex i+1 (cyclic), so the sides
        meeting at vertex i are entries i-1 and i."""
        return _sides_around(self.vertices)

    @classmethod
    def _check_vertices(cls, v: Sequence[Point], backend: Backend) -> None:
        for p, q, r in combinations(v, 3):
            if collinear(p, q, r, backend):
                raise DegenerateConfig(cls._collinear_message)

    @classmethod
    def _check_count(cls, *parts: Sequence) -> None:
        n = cls._n
        if any(len(part) != n for part in parts):
            raise DegenerateInput(f"a {cls._kind} needs {n} vertices and {n} lines")

    def to_json(self) -> dict:
        return {
            "kind": self._kind,
            "vertices": [p.to_json() for p in self.vertices],
            "g": [l.to_json() for l in self.g],
            "h": [l.to_json() for l in self.h],
        }

    @classmethod
    def from_json(cls, data: dict):
        if data.get("kind") != cls._kind:
            raise ValueError(f"expected kind {cls._kind!r}, got {data.get('kind')!r}")
        return cls(
            tuple(Point.from_json(p) for p in data["vertices"]),
            tuple(Line.from_json(l) for l in data["g"]),
            tuple(Line.from_json(l) for l in data["h"]),
        )


@dataclass(frozen=True)
class TriangleConfig(_PolygonConfig):
    """Triangle with one harmonic pencil per vertex.

    At vertex i the pencil is (side through i and i+2, side through
    i and i+1; g_i, h_i); equivalently the two sides meeting at the
    vertex separate g_i and h_i harmonically.
    """

    vertices: tuple[Point, Point, Point]
    g: tuple[Line, Line, Line]
    h: tuple[Line, Line, Line]
    backend: InitVar[Backend | None] = None

    _n = 3
    _kind = "triangle"
    _collinear_message = "triangle vertices are collinear"

    def side(self, i: int) -> Line:
        """Side opposite vertex i (0-based), joining the other two."""
        return self.sides[_cyc(i + 1, 3)]


@dataclass(frozen=True)
class FreeTriangleLines:
    u: tuple[Line, Line, Line]
    v: tuple[Line, Line, Line]


def free_triangle_lines(t: TriangleConfig) -> FreeTriangleLines:
    """Lines u_i through A_i and g_{i+1}*g_{i+2}, v_i through A_i and
    g_{i+1}*h_{i+2}.

    u_i also passes through h_{i+1}*h_{i+2} and v_i through
    g_{i+2}*h_{i+1}; moreover u_i, v_i complete the sides at A_i to a
    harmonic pencil.  Both facts are checked by the test suite.
    """
    A, g, h = t.vertices, t.g, t.h
    u = []
    v = []
    for i in range(3):
        j, k = _cyc(i + 1, 3), _cyc(i + 2, 3)
        u.append(join(A[i], meet(g[j], g[k])))
        v.append(join(A[i], meet(g[j], h[k])))
    return FreeTriangleLines(tuple(u), tuple(v))


def concurrency_triples(t: TriangleConfig) -> dict[str, tuple[Line, Line, Line]]:
    """The four line triples whose concurrencies stand or fall together,
    by name: g1_g2_g3, then g{i}_h{i+1}_h{i+2} for i = 1, 2, 3."""
    g, h = t.g, t.h
    return {
        "g1_g2_g3": (g[0], g[1], g[2]),
        "g1_h2_h3": (g[0], h[1], h[2]),
        "g2_h3_h1": (g[1], h[2], h[0]),
        "g3_h1_h2": (g[2], h[0], h[1]),
    }


def triangle_concurrency_transfer(
    t: TriangleConfig, backend: Backend = EXACT
) -> TheoremReport:
    """Concurrency booleans that stand or fall together.

    For a triangle with harmonic pencils, {g1, g2, g3} is concurrent
    exactly when each mixed triple {g_i, h_{i+1}, h_{i+2}} is, and
    exactly when the cevian ratio product equals one.  The backend's
    concurrency test decides each triple, and the determinant of its
    triples is its residual.
    """
    booleans = {}
    residuals = {}
    for name, lines in concurrency_triples(t).items():
        booleans[name] = concurrent(*lines, backend)
        residuals[name] = _det_of(*lines)
    try:
        product = ceva_product_triangle(t, backend)
        booleans["ratio_product_one"] = backend.eq(product, 1)
        residuals["ratio_product"] = product
    except GeometryError as exc:
        booleans["ratio_product_one"] = False
        residuals["ratio_product"] = repr(exc)
    return TheoremReport(
        theorem="triangle-transfer", booleans=booleans, residuals=residuals
    )


def _det_of(a: Point | Line, b: Point | Line, c: Point | Line) -> Scalar:
    # the residual of three points (or lines): the determinant of their triples
    return _det3(a.triple, b.triple, c.triple)


def ceva_product_triangle(t: TriangleConfig, backend: Backend = EXACT) -> Scalar:
    """Cevian ratio product (A1 B3 / B3 A2)(A2 B1 / B1 A3)(A3 B2 / B2 A1)
    with B_i the foot of g_i on the opposite side."""
    A, g = t.vertices, t.g
    feet = []
    for i in range(3):
        side = t.side(i)
        try:
            feet.append(meet(side, g[i]))
        except CoincidentLines:
            raise UndefinedFoot(f"g{i + 1} coincides with the opposite side")
    terms = []
    for i in range(3):
        j, k = _cyc(i + 1, 3), _cyc(i + 2, 3)
        # foot of g_k divides the side from A_i to A_j
        r = signed_ratio(A[i], feet[k], A[j], backend)
        if r.is_infinite():
            raise UndefinedFoot(f"foot of g{k + 1} hits vertex {j + 1}")
        terms.append(r)
    return ratio_product(terms)


# ---------------------------------------------------------------------------
# quadrilaterals


@dataclass(frozen=True)
class QuadrilateralConfig(_PolygonConfig):
    """Quadrilateral with one harmonic pencil (sides; g_i, h_i) per vertex."""

    vertices: tuple[Point, Point, Point, Point]
    g: tuple[Line, Line, Line, Line]
    h: tuple[Line, Line, Line, Line]
    backend: InitVar[Backend | None] = None

    _n = 4
    _kind = "quadrilateral"
    _collinear_message = "three quadrilateral vertices are collinear"

    def side(self, i: int) -> Line:
        """Side from vertex i to vertex i+1 (0-based, cyclic)."""
        return self.sides[i]

    @property
    def diagonal_point_1(self) -> Point:
        """Intersection of the side pair (A1 A2, A3 A4)."""
        return meet(self.sides[0], self.sides[2])

    @property
    def diagonal_point_2(self) -> Point:
        """Intersection of the side pair (A4 A1, A2 A3)."""
        return meet(self.sides[3], self.sides[1])


# The eight free triples, one row (d, i, j, mixed) each: diagonal point
# d + 1, the crossing _free_crossing(g, h, ...) and the same crossing
# with g and h swapped.  ell_pairs reads only the first two members.
_FREE_TRIPLES = (
    (0, 0, 3, True), (0, 2, 1, True), (0, 0, 3, False), (0, 1, 2, False),
    (1, 0, 1, True), (1, 2, 3, True), (1, 0, 1, False), (1, 2, 3, False),
)


def _free_crossing(g, h, i: int, j: int, mixed: bool) -> Point:
    """The crossing of g_i with h_j if mixed, else with g_j."""
    return meet(g[i], (h if mixed else g)[j])


def free_quadrilateral_triples(
    q: QuadrilateralConfig,
) -> list[tuple[Point, Point, Point]]:
    """The eight point triples that are collinear for every harmonic
    pencil assignment on a quadrilateral."""
    g, h = q.g, q.h
    diagonal = (q.diagonal_point_1, q.diagonal_point_2)
    return [
        (
            diagonal[d],
            _free_crossing(g, h, i, j, mixed),
            _free_crossing(h, g, i, j, mixed),
        )
        for d, i, j, mixed in _FREE_TRIPLES
    ]


@dataclass(frozen=True)
class EllPair:
    """One of the four line pairs whose coincidence is the quadrilateral
    coincidence criterion; both members pass through the same diagonal
    point."""

    index: int
    first: Line
    second: Line

    def coincides(self, backend: Backend = EXACT) -> bool:
        return coincide(self.first, self.second, backend)


def _join_distinct(p: Point, q: Point, what: str) -> Line:
    try:
        return join(p, q)
    except CoincidentPoints:
        raise DegenerateConfig(f"{what} collapses to a point")


def ell_pairs(q: QuadrilateralConfig) -> list[EllPair]:
    """The four pairs of carrier lines through the diagonal points.

    Pair i joins its diagonal point to the middle points of the
    free_quadrilateral_triples 2i-1 and 2i: first through the g/h
    crossings of vertices 1 and 4 (respectively 1 and 2) and second
    through those of vertices 2 and 3 (respectively 3 and 4).  If one
    pair coincides, all four do.
    """
    g, h = q.g, q.h
    diagonal = (q.diagonal_point_1, q.diagonal_point_2)
    ends = [
        (diagonal[d], _free_crossing(g, h, i, j, mixed))
        for d, i, j, mixed in _FREE_TRIPLES
    ]
    return [
        EllPair(
            i,
            _join_distinct(*ends[2 * i - 2], f"ell({i}) first"),
            _join_distinct(*ends[2 * i - 1], f"ell({i}) second"),
        )
        for i in range(1, 5)
    ]


def _foot(side: Line, cevian: Line, what: str) -> Point:
    try:
        return meet(side, cevian)
    except CoincidentLines:
        raise UndefinedFoot(f"{what}: cevian lies on the side")


def quad_zeta(q: QuadrilateralConfig, backend: Backend = EXACT) -> Scalar:
    """Eight-factor side ratio product of the quadrilateral.

    Factor pair i uses the feet of g_{i+2} and g_{i+3} on the side
    from A_i to A_{i+1}; the product equals one exactly when the
    coincidence criterion holds.
    """
    A, g = q.vertices, q.g
    product: Scalar = 1
    for i in range(4):
        side = q.side(i)
        for shift in (2, 3):
            k = _cyc(i + shift, 4)
            foot = _foot(side, g[k], f"side {i + 1}, cevian {k + 1}")
            r = signed_ratio(A[i], foot, A[_cyc(i + 1, 4)], backend)
            if r.is_infinite():
                raise UndefinedFoot(
                    f"foot of g{k + 1} hits vertex {_cyc(i + 1, 4) + 1}"
                )
            product = product * r.value
    return product


def quad_diag_product(q: QuadrilateralConfig, backend: Backend = EXACT) -> Scalar:
    """Four-factor diagonal ratio product of the quadrilateral.

    D_i is the cut of g_i on the diagonal A_{i-1} A_{i+1}; the product
    runs over (A_i D_{i+1} / D_{i+1} A_{i+2}).
    """
    return diagonal_ratio_product(q.vertices, q.g, backend)


def quad_coincidence_equivalence(
    q: QuadrilateralConfig, backend: Backend = EXACT
) -> TheoremReport:
    """All-or-nothing report for the quadrilateral coincidence criterion:
    four pair coincidences, the eight-factor product, and the diagonal
    product are simultaneously satisfied or violated."""
    booleans = {}
    residuals = {}
    for pair in ell_pairs(q):
        name = f"ell{pair.index}_coincides"
        booleans[name] = pair.coincides(backend)
    try:
        zeta = quad_zeta(q, backend)
        booleans["zeta_one"] = backend.eq(zeta, 1)
        residuals["zeta"] = zeta
    except (UndefinedFoot, TooFewDistinct) as exc:
        booleans["zeta_one"] = False
        residuals["zeta"] = repr(exc)
    try:
        diag = quad_diag_product(q, backend)
        booleans["diag_product_one"] = backend.eq(diag, 1)
        residuals["diag_product"] = diag
    except (UndefinedFoot, TooFewDistinct) as exc:
        booleans["diag_product_one"] = False
        residuals["diag_product"] = repr(exc)
    return TheoremReport(
        theorem="quad-equivalence", booleans=booleans, residuals=residuals
    )


def complete_fourth_line(
    vertices: Sequence[Point],
    g1: Line,
    g2: Line,
    g3: Line,
    backend: Backend = EXACT,
) -> Line:
    """The unique line through A4 making the coincidence criterion hold.

    It solves the diagonal ratio product for the missing cut.  The given
    lines' incidence and the cut ratios are tested with the backend.
    """
    A = tuple(vertices)
    if len(A) != 4:
        raise DegenerateInput("need exactly four vertices")
    g = (g1, g2, g3)
    for i in range(3):
        if not incident(g[i], A[i], backend):
            raise DegenerateInput(f"g{i + 1} does not pass through vertex {i + 1}")
    diag24 = _join_distinct(A[1], A[3], "diagonal A2 A4")
    diag13 = _join_distinct(A[0], A[2], "diagonal A1 A3")
    if incident(diag13, A[3], backend):
        raise DegenerateConfig("vertex 4 lies on the diagonal A1 A3")
    d1 = _foot(diag24, g1, "cut of g1")
    d2 = _foot(diag13, g2, "cut of g2")
    d3 = _foot(diag24, g3, "cut of g3")
    try:
        known = ratio_product(
            [
                signed_ratio(A[0], d2, A[2], backend),
                signed_ratio(A[1], d3, A[3], backend),
                signed_ratio(A[3], d1, A[1], backend),
            ]
        )
    except (UndefinedRatio, TooFewDistinct):
        raise NoSolution("a given cevian cut coincides with a vertex")
    if known == 0:
        raise NoSolution("a given cevian passes through a diagonal endpoint")
    # remaining factor must satisfy (A3 D4 / D4 A1) = 1 / known
    d4 = _divide_segment(A[2], A[0], exact_div(1, known))
    if d4 == A[3]:
        raise NoSolution("required cut coincides with vertex 4")
    return join(A[3], d4)


def _divide_segment(a: Point, b: Point, t: Scalar) -> Point:
    """Point d on the line a b with signed ratio (a d / d b) == t.

    Uses the same chart normalizer as the ratio itself, so the round
    trip through signed_ratio returns t exactly.
    """
    carrier = join(a, b)
    ca, cb, _ = carrier.triple
    u = 1 if (ca == 0 and cb == 0) else 2
    au, bu = a.triple[u], b.triple[u]
    coeff_a, coeff_b = bu, t * au
    d = tuple(coeff_a * ai + coeff_b * bi for ai, bi in zip(a.triple, b.triple))
    if d == (0, 0, 0):
        raise NoSolution("segment division degenerates")
    return _built(Point, d)


# ---------------------------------------------------------------------------
# quadruples with equal cross-ratio, generalized Pappus, Desargues


def _check_carrier(points: Sequence[Point], what: str, backend: Backend) -> Line:
    base = join(points[0], points[1])
    for p in points[2:]:
        if not incident(base, p, backend):
            raise DegenerateInput(f"{what} must be collinear")
    return base


_CR_LISTS = (
    ((0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (3, 1), (0, 3), (2, 1), (1, 2), (3, 0), (1, 3), (2, 0)),
    ((0, 0), (2, 2), (1, 1), (3, 3), (0, 1), (3, 2), (0, 3), (1, 2), (1, 0), (2, 3), (2, 1), (3, 0)),
    ((0, 0), (3, 3), (1, 1), (2, 2), (0, 1), (2, 3), (0, 2), (1, 3), (1, 0), (3, 2), (2, 0), (3, 1)),
    ((0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2), (3, 0), (0, 3), (0, 2), (2, 0), (1, 3), (3, 1)),
)


def crossratio_six_point_lists(
    a: Sequence[Point], b: Sequence[Point]
) -> list[list[Point]]:
    """Four lists of six intersection points, each collinear exactly
    when the two quadruples have equal cross-ratio.

    List entries pair consecutive index tuples (i, j), (k, l) into the
    point (A_i x B_j) x (A_k x B_l).
    """
    lists = []
    for spec in _CR_LISTS:
        points = []
        for t in range(0, 12, 2):
            (i1, j1), (i2, j2) = spec[t], spec[t + 1]
            l1 = _join_distinct(a[i1], b[j1], "carrier join")
            l2 = _join_distinct(a[i2], b[j2], "carrier join")
            if l1 == l2:
                raise DegenerateConfig("six-point list has coincident joins")
            points.append(meet(l1, l2))
        lists.append(points)
    return lists


def crossratio_corollary_check(
    a: Sequence[Point], b: Sequence[Point], backend: Backend = EXACT
) -> TheoremReport:
    """Equivalence report for two collinear quadruples: four six-point
    collinearity statements and equality of the cross-ratios."""
    a = tuple(a)
    b = tuple(b)
    _check_carrier(a, "first quadruple", backend)
    _check_carrier(b, "second quadruple", backend)
    booleans = {}
    residuals = {}
    for idx, points in enumerate(crossratio_six_point_lists(a, b), start=1):
        booleans[f"six_points_{idx}"] = all_collinear(points, backend)
    cr_a = cross_ratio_points(*a, backend)
    cr_b = cross_ratio_points(*b, backend)
    booleans["cross_ratios_equal"] = backend.eq(cr_a, cr_b)
    residuals["cr_first"] = cr_a
    residuals["cr_second"] = cr_b
    return TheoremReport(
        theorem="crossratio", booleans=booleans, residuals=residuals
    )


class DegenerateHexagon(GeometryError):
    """A hexagon needed for a coincidence line has collapsed."""


def pappus_lines(
    a: Sequence[Point], b: Sequence[Point], backend: Backend | None = None
) -> list[Line]:
    """Four coincidence lines for two collinear quadruples.

    Line i carries the three points (A_j x B_k) x (A_k x B_j) for the
    index pairs {j, k} avoiding i; any two of the four lines are equal
    exactly when the quadruples have the same cross-ratio.
    """
    a = tuple(a)
    b = tuple(b)
    be = backend or _backend_of(*a, *b)
    _check_carrier(a, "first quadruple", be)
    _check_carrier(b, "second quadruple", be)
    lines = []
    for i in range(4):
        others = [j for j in range(4) if j != i]
        crossings = []
        for s in range(3):
            j, k = others[s], others[(s + 1) % 3]
            l1 = _join_distinct(a[j], b[k], "hexagon side")
            l2 = _join_distinct(a[k], b[j], "hexagon side")
            if l1 == l2:
                raise DegenerateHexagon("opposite hexagon sides coincide")
            crossings.append(meet(l1, l2))
        line = None
        for s in range(3):
            p, q = crossings[s], crossings[(s + 1) % 3]
            if p != q:
                line = join(p, q)
                break
        if line is None:
            raise DegenerateHexagon("hexagon crossings collapse to a point")
        for p in crossings:
            if not incident(line, p, be):
                raise DegenerateHexagon(
                    "hexagon crossings are unexpectedly not collinear"
                )
        lines.append(line)
    return lines


def desargues_quantitative(
    t1: Sequence[Point], t2: Sequence[Point], backend: Backend = EXACT
) -> TheoremReport:
    """Point perspectivity, line perspectivity, and the three cross-ratio
    equalities on shared connecting lines; the five verdicts agree for
    every pair of triangles in general position."""
    t1 = tuple(t1)
    t2 = tuple(t2)
    for t in (t1, t2):
        if len(t) != 3 or collinear(*t, backend):
            raise DegenerateConfig("need two nondegenerate triangles")
    booleans = {}
    residuals = {}

    connectors = []
    for i in range(3):
        if t1[i] == t2[i]:
            raise DegenerateConfig("corresponding vertices coincide")
        connectors.append(join(t1[i], t2[i]))
    booleans["perspective_from_point"] = concurrent(*connectors, backend)
    residuals["connector_concurrency"] = _det_of(*connectors)

    axis_points = []
    for i in range(3):
        j = _cyc(i + 1, 3)
        s1 = join(t1[i], t1[j])
        s2 = join(t2[i], t2[j])
        if s1 == s2:
            raise DegenerateConfig("corresponding sides coincide")
        axis_points.append(meet(s1, s2))
    booleans["perspective_from_line"] = collinear(*axis_points, backend)
    residuals["axis_collinearity"] = _det_of(*axis_points)

    for shift in range(3):
        name = f"cross_ratio_shift_{shift + 1}"
        try:
            booleans[name] = _desargues_cr_equal(t1, t2, shift, backend)
        except GeometryError as exc:
            booleans[name] = False
            residuals[name] = repr(exc)
    return TheoremReport(
        theorem="desargues",
        booleans=booleans,
        residuals=residuals,
        witness={"axis_points": axis_points},
    )


def _desargues_cr_equal(
    t1: Sequence[Point], t2: Sequence[Point], shift: int, backend: Backend
) -> bool:
    # cyclic relabeling (A, B, C) -> (B, C, A) of both triangles
    a1, b1, c1 = (t1[_cyc(shift + s, 3)] for s in range(3))
    a2, b2, c2 = (t2[_cyc(shift + s, 3)] for s in range(3))
    lab = join(a1, b2)
    lba = join(a2, b1)
    a1p = meet(lab, join(b1, c1))
    b1p = meet(lba, join(a1, c1))
    a2p = meet(lba, join(b2, c2))
    b2p = meet(lab, join(a2, c2))
    cr1 = cross_ratio_points(a1, b2, a1p, b2p, backend)
    cr2 = cross_ratio_points(a2, b1, a2p, b1p, backend)
    return backend.eq(cr1, cr2)
