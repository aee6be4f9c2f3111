"""Angle bisector geometry on the float backend.

Bisector directions involve square roots, so this lane runs on float
coordinates; each call decides zero at one float Backend, the one it
is given or else float_backend() (eps from HARMONICA_EPS).

The internal bisector at a vertex follows the unit-vector-sum rule
(direction = sum of unit vectors toward the two neighbors); the
external bisector is its perpendicular through the same vertex.  The
rule needs no convexity and applies verbatim at reflex vertices.

With the sides at its vertex a bisector pair is a harmonic pencil, so
a triangle or quadrilateral with g the internal and h the external
bisectors is a pencils config; built on the instance moved and scaled
to unit size, its gates and the residuals do not change when the
instance is moved or scaled.  The incenter and excenters are the
triangle's concurrency_triples; each Steiner quintuple joins two
free_quadrilateral_triples; a bisector n-gon is a Ceva gon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .core import (
    Backend,
    GeometryError,
    Line,
    Point,
    all_collinear,
    collinearity_residual,
    concurrency_residual,
    float_backend,
    meet,
)
from .pencils import (
    QuadrilateralConfig,
    TriangleConfig,
    concurrency_triples,
    free_quadrilateral_triples,
)
from .reduction import CevaGon
from .report import TheoremReport


class DegenerateAngle(GeometryError):
    """The three points defining a vertex angle are collinear."""


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
    up to roundoff.  A pair is not revalidated; the configs of the
    triangle and quadrilateral checks validate its pencil.
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
    backend: Backend | None = None,
) -> BisectorPair:
    """Bisectors of the angle at v formed by rays toward prev and nxt,
    whose legs may not be parallel at the backend (default
    float_backend())."""
    d1x, d1y = _unit(prev.x - v.x, prev.y - v.y)
    d2x, d2y = _unit(nxt.x - v.x, nxt.y - v.y)
    if (backend or float_backend()).zero(d1x * d2y - d1y * d2x):
        raise DegenerateAngle("angle legs are collinear")
    ux, uy = d1x + d2x, d1y + d2y
    return BisectorPair(
        vertex=v,
        internal=_line_through(v, ux, uy),
        external=_line_through(v, -uy, ux),
    )


def _bisectors_around(
    points: Sequence[EuclideanPoint], backend: Backend
) -> list[BisectorPair]:
    n = len(points)
    return [
        angle_bisectors(points[i - 1], points[i], points[(i + 1) % n], backend)
        for i in range(n)
    ]


def _bisector_config(cls, points: Sequence[EuclideanPoint], backend: Backend):
    """The config of the points' bisector pencils, validated at the
    backend, on the points moved so that the first is the origin and
    scaled by a power of two (so without roundoff) to put the farthest
    from it at distance 1/2 to 1; and the map of its points back to
    triples in the input's frame."""
    o = points[0] if points else EuclideanPoint(0.0, 0.0)
    far = max((p.distance(o) for p in points), default=0.0)
    r = math.ldexp(1.0, math.frexp(far)[1])
    unit = [EuclideanPoint((p.x - o.x) / r, (p.y - o.y) / r) for p in points]
    pairs = _bisectors_around(unit, backend)
    config = cls(
        tuple(p.to_point() for p in unit),
        tuple(p.internal for p in pairs),
        tuple(p.external for p in pairs),
        backend,
    )
    return config, lambda p: (p.x * r + o.x * p.w, p.y * r + o.y * p.w, p.w)


# report key and witness name of each of the concurrency_triples, in order
_CENTERS = (
    ("internal_concurrent", "incenter"),
    ("excenter_1_concurrent", "excenter_1"),
    ("excenter_2_concurrent", "excenter_2"),
    ("excenter_3_concurrent", "excenter_3"),
)


def triangle_bisector_concurrencies(
    a1: EuclideanPoint,
    a2: EuclideanPoint,
    a3: EuclideanPoint,
    backend: Backend | None = None,
) -> TheoremReport:
    """Concurrency of the internal bisectors and of each mixed triple
    (one internal, the other two external), at the backend (default
    float_backend()).

    The four meets are the centers of the touching circles; they are
    reported as witnesses.  One determinant per triple gives both its
    verdict and its residual, abs(det) / max(1, scale).
    """
    be = backend or float_backend()
    config, back = _bisector_config(TriangleConfig, (a1, a2, a3), be)
    booleans, residuals, witness = {}, {}, {}
    for (name, center), lines in zip(_CENTERS, concurrency_triples(config).values()):
        value, scale = concurrency_residual(*lines)
        booleans[name] = be.zero(value, scale)
        residuals[name] = abs(value) / max(1.0, scale)
        x, y, w = back(meet(lines[0], lines[1]))
        witness[center] = (x / w, y / w)
    return TheoremReport(
        theorem="bisectors-triangle",
        booleans=booleans,
        residuals=residuals,
        witness=witness,
    )


# ---------------------------------------------------------------------------
# bisector quintuples on a complete quadrilateral

# the 1-based numbers of the two free_quadrilateral_triples that make up
# each quintuple; both triples of a pair start at the same diagonal point
_QUINTUPLES = ((3, 4), (7, 8), (1, 2), (6, 5))


def _quintuples(points: Sequence[EuclideanPoint], backend: Backend):
    config, back = _bisector_config(QuadrilateralConfig, points, backend)
    triples = free_quadrilateral_triples(config)
    return [[*triples[i - 1], *triples[j - 1][1:]] for i, j in _QUINTUPLES], back


def steiner_add_11_check(
    points: Sequence[EuclideanPoint], backend: Backend | None = None
) -> TheoremReport:
    """Collinearity report for the four bisector quintuples.

    Each quintuple is decided by all_collinear at the backend (default
    float_backend()).  Its residual is the worst abs(det) / max(1,
    scale) over its ten triples, so quintuple members near infinity
    (almost parallel sides or bisectors) do not blow it up.
    """
    be = backend or float_backend()
    booleans, residuals = {}, {}
    for idx, quint in enumerate(_quintuples(points, be)[0], start=1):
        booleans[f"quintuple_{idx}"] = all_collinear(quint, be)
        residuals[f"quintuple_{idx}"] = max(
            abs(v) / max(1.0, s)
            for v, s in (collinearity_residual(*t) for t in combinations(quint, 3))
        )
    return TheoremReport(
        theorem="steiner-add-11", booleans=booleans, residuals=residuals
    )


# ---------------------------------------------------------------------------
# bisector gons


def bisector_gon(
    points: Sequence[EuclideanPoint],
    choice: Sequence[str] | None = None,
    backend: Backend | None = None,
) -> CevaGon:
    """Cevian gon whose line at each vertex is the chosen bisector,
    built at the backend (default float_backend()).

    choice gives "internal" or "external" per vertex; None means all
    internal.
    """
    n = len(points)
    if choice is None:
        choice = ("internal",) * n
    if len(choice) != n:
        raise ValueError("one choice per vertex required")
    for kind in choice:
        if kind not in ("internal", "external"):
            raise ValueError(f"unknown bisector choice {kind!r}")
    pairs = _bisectors_around(points, backend or float_backend())
    return CevaGon(
        tuple(p.to_point() for p in points),
        tuple(getattr(pair, kind) for pair, kind in zip(pairs, choice)),
    )
