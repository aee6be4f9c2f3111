"""Angle bisector geometry, floating-point backend.

Bisector directions involve square roots, so this module never claims
exactness: every predicate takes a tolerance, incidence residuals are
relative, and concurrency residuals are normalized by the configuration
diameter so verdicts survive translation and uniform scaling.

The internal bisector at a vertex follows the unit-vector-sum rule
(direction = sum of unit vectors toward the two neighbors); the
external bisector is its perpendicular through the same vertex.  The
rule needs no convexity and applies verbatim at reflex vertices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import (
    CoincidentLines,
    GeometryError,
    Line,
    Point,
    collinear,
    collinearity_residual,
    float_backend,
    join,
    meet,
)
from .reduction import CevaGon, ceva_product, is_pseudo_concurrent
from .report import TheoremReport

INCIDENCE_EPS = 1e-9
PRODUCT_EPS = 1e-8
CLASSIFY_EPS = 1e-6


class DegenerateAngle(GeometryError):
    """The three points defining a vertex angle are collinear."""


class DegenerateTriangle(GeometryError):
    """Triangle vertices are (numerically) collinear."""


class DegenerateQuadrilateral(GeometryError):
    """Quadrilateral vertices contain a (numerically) collinear triple."""


@dataclass(frozen=True)
class EuclideanPoint:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("coordinates must be finite")

    def to_point(self) -> Point:
        return Point(float(self.x), float(self.y), 1.0)

    def distance(self, other: "EuclideanPoint") -> float:
        return math.hypot(self.x - other.x, self.y - other.y)

    def to_json(self) -> dict:
        return {"x": self.x, "y": self.y}

    @classmethod
    def from_json(cls, data: dict) -> "EuclideanPoint":
        return cls(float(data["x"]), float(data["y"]))


@dataclass(frozen=True)
class BisectorPair:
    """Internal and external angle bisector at one vertex.

    With the two sides at the vertex they form a harmonic pencil, and
    the two lines are perpendicular; both facts hold by construction
    up to roundoff and are enforced in tests rather than revalidated
    on every instantiation.
    """

    vertex: EuclideanPoint
    internal: Line
    external: Line


def _unit(dx: float, dy: float) -> tuple[float, float]:
    n = math.hypot(dx, dy)
    if n == 0:
        raise DegenerateAngle("zero-length direction")
    return dx / n, dy / n


def _line_through(p: EuclideanPoint, dx: float, dy: float) -> Line:
    return Line(dy, -dx, dx * p.y - dy * p.x)


def angle_bisectors(
    prev: EuclideanPoint,
    v: EuclideanPoint,
    nxt: EuclideanPoint,
) -> BisectorPair:
    """Bisectors of the angle at v formed by rays toward prev and nxt."""
    d1x, d1y = _unit(prev.x - v.x, prev.y - v.y)
    d2x, d2y = _unit(nxt.x - v.x, nxt.y - v.y)
    if abs(d1x * d2y - d1y * d2x) <= INCIDENCE_EPS:
        raise DegenerateAngle("angle legs are collinear")
    ux, uy = d1x + d2x, d1y + d2y
    return BisectorPair(
        vertex=v,
        internal=_line_through(v, ux, uy),
        external=_line_through(v, -uy, ux),
    )


def lines_parallel(l: Line, m: Line) -> bool:
    """Whether two float lines have the same direction within
    INCIDENCE_EPS (after normalizing their normals)."""
    return _parallel(l, m, INCIDENCE_EPS)


def _parallel(l: Line, m: Line, eps: float) -> bool:
    n1 = math.hypot(l.a, l.b)
    n2 = math.hypot(m.a, m.b)
    if n1 == 0 or n2 == 0:
        return False
    return abs(l.a * m.b - l.b * m.a) <= eps * n1 * n2


def classify_against_bisectors(
    line: Line,
    prev: EuclideanPoint,
    v: EuclideanPoint,
    nxt: EuclideanPoint,
) -> str | None:
    """Name the bisector of angle (prev, v, nxt) that a line matches
    within CLASSIFY_EPS, or None if it matches neither."""
    fresh = angle_bisectors(prev, v, nxt)
    if _parallel(line, fresh.internal, CLASSIFY_EPS):
        return "internal"
    if _parallel(line, fresh.external, CLASSIFY_EPS):
        return "external"
    return None


def configuration_diameter(points: Sequence[EuclideanPoint]) -> float:
    best = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            best = max(best, points[i].distance(points[j]))
    return best


def _point_line_distance(l: Line, x: float, y: float) -> float:
    return abs(l.a * x + l.b * y + l.c) / math.hypot(l.a, l.b)


def _concurrency_distance(l1: Line, l2: Line, l3: Line) -> float:
    """Distance from the meet of the first two lines to the third."""
    p = meet(l1, l2)
    if abs(p.w) <= 1e-300 * max(abs(p.x), abs(p.y)):
        raise DegenerateAngle("concurrency candidate is at infinity")
    x, y = p.x / p.w, p.y / p.w
    return _point_line_distance(l3, x, y)


def triangle_bisector_concurrencies(
    a1: EuclideanPoint,
    a2: EuclideanPoint,
    a3: EuclideanPoint,
) -> TheoremReport:
    """Concurrency of the internal bisectors and of each mixed triple
    (one internal, the other two external).

    The four meets are the centers of the touching circles; they are
    reported as witnesses.  Residuals are distances divided by the
    triangle diameter.
    """
    pts = (a1, a2, a3)
    diam = configuration_diameter(pts)
    if diam == 0:
        raise DegenerateTriangle("all vertices coincide")
    area2 = abs(
        (a2.x - a1.x) * (a3.y - a1.y) - (a2.y - a1.y) * (a3.x - a1.x)
    )
    if area2 <= INCIDENCE_EPS * diam * diam:
        raise DegenerateTriangle("vertices are collinear")
    pairs = [
        angle_bisectors(pts[(i - 1) % 3], pts[i], pts[(i + 1) % 3])
        for i in range(3)
    ]
    g = [p.internal for p in pairs]
    h = [p.external for p in pairs]
    booleans = {}
    residuals = {}
    witness = {}

    def center(l1: Line, l2: Line) -> tuple[float, float]:
        p = meet(l1, l2)
        return (p.x / p.w, p.y / p.w)

    d = _concurrency_distance(g[0], g[1], g[2]) / diam
    booleans["internal_concurrent"] = d <= INCIDENCE_EPS
    residuals["internal_concurrent"] = d
    witness["incenter"] = center(g[0], g[1])
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        name = f"excenter_{i + 1}"
        d = _concurrency_distance(g[i], h[j], h[k]) / diam
        booleans[f"{name}_concurrent"] = d <= INCIDENCE_EPS
        residuals[f"{name}_concurrent"] = d
        witness[name] = center(g[i], h[j])
    return TheoremReport(
        theorem="bisectors-triangle",
        booleans=booleans,
        residuals=residuals,
        witness=witness,
    )


def incenter(
    a1: EuclideanPoint, a2: EuclideanPoint, a3: EuclideanPoint
) -> tuple[float, float]:
    """Meet of two internal bisectors, as affine coordinates."""
    p1 = angle_bisectors(a3, a1, a2)
    p2 = angle_bisectors(a1, a2, a3)
    p = meet(p1.internal, p2.internal)
    return (p.x / p.w, p.y / p.w)


# ---------------------------------------------------------------------------
# bisector quintuples on a complete quadrilateral


def steiner_quintuples(points: Sequence[EuclideanPoint]) -> list[list[Point]]:
    """The four quintuples of points that lie on the angle bisectors of
    the two diagonal points of a quadrilateral.

    Each quintuple holds one diagonal point and four crossings of
    vertex bisectors; all five are collinear for every nondegenerate
    quadrilateral.
    """
    if len(points) != 4:
        raise DegenerateQuadrilateral("need exactly four vertices")
    diam = configuration_diameter(points)
    if diam == 0:
        raise DegenerateQuadrilateral("all vertices coincide")
    for i in range(4):
        for j in range(i + 1, 4):
            for k in range(j + 1, 4):
                a, b, c = points[i], points[j], points[k]
                area2 = abs(
                    (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
                )
                if area2 <= INCIDENCE_EPS * diam * diam:
                    raise DegenerateQuadrilateral(
                        "three vertices are collinear"
                    )
    pairs = [
        angle_bisectors(points[(i - 1) % 4], points[i], points[(i + 1) % 4])
        for i in range(4)
    ]
    g = [p.internal for p in pairs]
    h = [p.external for p in pairs]
    hp = [p.to_point() for p in points]
    try:
        a5 = meet(join(hp[0], hp[1]), join(hp[2], hp[3]))
        a6 = meet(join(hp[1], hp[2]), join(hp[3], hp[0]))
    except CoincidentLines:
        raise DegenerateQuadrilateral("opposite sides coincide")
    return [
        [a5, meet(h[0], h[3]), meet(g[0], g[3]), meet(h[2], h[1]), meet(g[2], g[1])],
        [a6, meet(h[2], h[3]), meet(g[2], g[3]), meet(h[0], h[1]), meet(g[0], g[1])],
        [a5, meet(g[0], h[3]), meet(h[0], g[3]), meet(g[2], h[1]), meet(h[2], g[1])],
        [a6, meet(g[2], h[3]), meet(h[2], g[3]), meet(g[0], h[1]), meet(h[0], g[1])],
    ]


def steiner_add_11_check(points: Sequence[EuclideanPoint]) -> TheoremReport:
    """Collinearity report for the four bisector quintuples.

    Every triple inside each quintuple is tested with the relative
    determinant residual, so quintuple members near infinity (almost
    parallel sides or bisectors) do not blow up the verdict.
    """
    quintuples = steiner_quintuples(points)
    be = float_backend(PRODUCT_EPS)
    booleans = {}
    residuals = {}
    for idx, quint in enumerate(quintuples, start=1):
        ok = True
        for i in range(5):
            for j in range(i + 1, 5):
                for k in range(j + 1, 5):
                    if not collinear(quint[i], quint[j], quint[k], be):
                        ok = False
        booleans[f"quintuple_{idx}"] = ok
        residuals[f"quintuple_{idx}"] = _quintuple_worst_residual(quint)
    return TheoremReport(
        theorem="steiner-add-11", booleans=booleans, residuals=residuals
    )


# ---------------------------------------------------------------------------
# bisector gons and pseudo-concurrency


def bisector_gon(
    points: Sequence[EuclideanPoint],
    choice: Sequence[str] | None = None,
) -> CevaGon:
    """Cevian gon whose line at each vertex is the chosen bisector.

    choice gives "internal" or "external" per vertex; None means all
    internal.
    """
    n = len(points)
    if choice is None:
        choice = ("internal",) * n
    if len(choice) != n:
        raise ValueError("one choice per vertex required")
    cevians = []
    for i in range(n):
        pair = angle_bisectors(points[(i - 1) % n], points[i], points[(i + 1) % n])
        if choice[i] == "internal":
            cevians.append(pair.internal)
        elif choice[i] == "external":
            cevians.append(pair.external)
        else:
            raise ValueError(f"unknown bisector choice {choice[i]!r}")
    return CevaGon(
        tuple(p.to_point() for p in points),
        tuple(cevians),
    )


def bisector_pseudo_concurrency(
    points: Sequence[EuclideanPoint],
    choice: Sequence[str] | None = None,
    order="first",
) -> bool:
    """Pseudo-concurrency verdict for the chosen bisectors of an n-gon.

    Internal bisectors of any n-gon pass; so does any choice with an
    even number of external bisectors.  An odd count carries no
    guarantee either way.
    """
    gon = bisector_gon(points, choice)
    verdict, _ = is_pseudo_concurrent(
        gon, order=order, backend=float_backend(PRODUCT_EPS)
    )
    return verdict


def bisector_product(
    points: Sequence[EuclideanPoint],
    choice: Sequence[str] | None = None,
) -> float:
    """Cevian ratio product of the chosen bisectors."""
    gon = bisector_gon(points, choice)
    return ceva_product(gon, float_backend(PRODUCT_EPS))


def _quintuple_worst_residual(quint: Sequence[Point]) -> float:
    worst = 0.0
    for i in range(5):
        for j in range(i + 1, 5):
            for k in range(j + 1, 5):
                value, scale = collinearity_residual(quint[i], quint[j], quint[k])
                rel = abs(value) / max(1.0, abs(scale))
                worst = max(worst, rel)
    return worst
