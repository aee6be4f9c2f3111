"""Seeded generation of nondegenerate rational configurations.

gen_hypothesis_forcing is a pure function of a GenSpec (plus the
theorem id and n): the seed pins the whole random stream, so identical
inputs give bit-identical configurations.  Degeneracy is handled by
rejection sampling; a draw that cannot satisfy its predicates within
RETRIES draws raises RetryLimitExceeded instead of looping forever,
which is what makes tiny coordinate bounds safe.

The hypothesis-forcing constructions only draw: a draw is rejected
when a construction step finds it degenerate, never by running the
theorem's check (two-pencils tests its hypothesis, that no line is
shared at one slot, since the drawing does not force it).  The
registry runs the check once per trial; a check that raises on a
forced instance is a reported failure of that trial, not a redraw.

The sample_* helpers take an explicit random.Random so that multi-part
constructions draw several objects from one stream; a caller that
wants a single object draws it from GenSpec.rng().  Harmonic
completion of a triangle or quadrilateral is the configs' own
complete (pencils), not a generator.

The samplers compute on ints: sample_rational reduces each drawn
(numerator, denominator) pair once, in a cache of a few hundred pairs;
sample_point sets up its point with the integer form it reads off the
draws, and sample_point_on writes each coordinate of lam*a + mu*b as
one integer quotient.  The random stream, and so every generated
configuration, is the one Fraction arithmetic on the draws gives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from random import Random
from typing import Sequence

from .bisectors import EuclideanPoint
from .core import (
    DegenerateInput,
    GeometryError,
    Line,
    Point,
    _with_form,
    collinear,
    exact_div,
    incident,
    join,
    meet,
)
from .pencils import (
    HarmonicPencil,
    QuadrilateralConfig,
    TriangleConfig,
    complete_fourth_line,
    two_pencils_points,
)
from .reduction import CevaGon, MenelaosGon
from .report import _plain


# the draws each rejection-sampling loop may take before it gives up
RETRIES = 500


class RetryLimitExceeded(GeometryError):
    """Rejection sampling exhausted its RETRIES budget."""


class UnknownTheorem(GeometryError):
    """Requested id is not a known theorem."""


@dataclass(frozen=True)
class GenSpec:
    """Knobs for one deterministic generation run.

    seed is taken modulo nothing: any int in [0, 2**64) is accepted
    verbatim so CLI-derived per-trial seeds stay collision-free.
    """

    seed: int
    bound: int = 10

    def __post_init__(self) -> None:
        if not (0 <= self.seed < 2**64):
            raise ValueError("seed must lie in [0, 2**64)")
        if self.bound < 1:
            raise ValueError("coordinate bound must be positive")

    def rng(self) -> Random:
        return Random(self.seed)


# ---------------------------------------------------------------------------
# stream-level samplers


@lru_cache(maxsize=256)
def _reduced(num: int, den: int) -> Fraction:
    # bound 10, the default, draws only 21 * 10 = 210 distinct pairs
    return Fraction(num, den)


def sample_rational(rng: Random, bound: int) -> Fraction:
    # numerator and denominator drawn uniformly, reduced once per pair;
    # randrange(a, b + 1) is the stream of randint(a, b)
    return _reduced(rng.randrange(-bound, bound + 1), rng.randrange(1, bound + 1))


def sample_point(rng: Random, bound: int) -> Point:
    """Point(x, y, 1) for two drawn rationals x = p1/q1 and y = p2/q2.

    Its integer form is (p1*L/q1, p2*L/q2, L) with L = lcm(q1, q2),
    which is primitive: a prime's full power in L divides q1 (say), so
    the prime divides neither L/q1 nor p1.
    """
    x = sample_rational(rng, bound)
    y = sample_rational(rng, bound)
    q1, q2 = x.denominator, y.denominator
    lcm = math.lcm(q1, q2)
    form = (x.numerator * (lcm // q1), y.numerator * (lcm // q2), lcm)
    return _with_form(Point, (x, y, 1), form)


def all_distinct(points: Sequence[Point]) -> bool:
    return all(
        points[i] != points[j]
        for i in range(len(points))
        for j in range(i + 1, len(points))
    )


def no_three_collinear(points: Sequence[Point]) -> bool:
    n = len(points)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if collinear(points[i], points[j], points[k]):
                    return False
    return True


def sample_general_points(rng: Random, bound: int, n: int) -> tuple[Point, ...]:
    """n >= 3 affine rational points, no three collinear, and so
    pairwise distinct: a triple through two equal points is collinear."""
    for _ in range(RETRIES):
        pts = tuple(sample_point(rng, bound) for _ in range(n))
        if no_three_collinear(pts):
            return pts
    raise RetryLimitExceeded(
        f"no generic {n}-point configuration within bound {bound}"
    )


def sample_line_through(
    rng: Random, bound: int, p: Point, avoid: Sequence[Line] = ()
) -> Line:
    """Line through p distinct from every line in avoid."""
    for _ in range(RETRIES):
        q = sample_point(rng, bound)
        if q == p:
            continue
        l = join(p, q)
        if all(l != m for m in avoid):
            return l
    raise RetryLimitExceeded(f"no admissible line through {p}")


def sample_point_on(
    rng: Random, bound: int, l: Line, avoid: Sequence[Point] = ()
) -> Point:
    """Point on l distinct from every point in avoid.

    The carrier is parameterized by two of its points a and b, so the
    sample lam*a + mu*b is rational whenever the inputs are.  With
    lam = p/q and mu = r/s, each coordinate is the one quotient
    (p*s*a + r*q*b) / (q*s), computed on ints when a and b are int.
    """
    base_a, base_b = _two_points_of(l)
    for _ in range(RETRIES):
        lam = sample_rational(rng, bound)
        mu = sample_rational(rng, bound)
        p, q = lam.numerator, lam.denominator
        r, s = mu.numerator, mu.denominator
        ps, rq, qs = p * s, r * q, q * s
        triple = tuple(exact_div(ps * a + rq * b, qs) for a, b in zip(base_a, base_b))
        if triple == (0, 0, 0):
            continue
        point = Point(*triple)
        if all(point != other for other in avoid):
            return point
    raise RetryLimitExceeded(f"no admissible point on {l}")


def _two_points_of(l: Line) -> tuple[tuple, tuple]:
    """Triples of two distinct points spanning a line, chosen
    deterministically."""
    a, b, c = l.triple
    if a != 0:
        return (-c, 0, a), (-b, a, 0)
    if b != 0:
        return (0, -c, b), (b, -a, 0)
    return (1, 0, 0), (0, 1, 0)


def sample_float_ngon(rng: Random, bound: int, n: int) -> tuple[EuclideanPoint, ...]:
    """Float vertex sequence with separated vertices and honest angles
    at every corner (bisector-friendly)."""
    for _ in range(RETRIES):
        pts = tuple(
            EuclideanPoint(
                float(sample_rational(rng, bound)),
                float(sample_rational(rng, bound)),
            )
            for _ in range(n)
        )
        if _float_gon_ok(pts):
            return pts
    raise RetryLimitExceeded(f"no well-conditioned float {n}-gon")


def _float_gon_ok(pts: Sequence[EuclideanPoint]) -> bool:
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            if pts[i].distance(pts[j]) < 0.5:
                return False
    for i in range(n):
        a, v, b = pts[(i - 1) % n], pts[i], pts[(i + 1) % n]
        d1 = (a.x - v.x, a.y - v.y)
        d2 = (b.x - v.x, b.y - v.y)
        sin = d1[0] * d2[1] - d1[1] * d2[0]
        if abs(sin) < 0.1 * math.hypot(*d1) * math.hypot(*d2):
            return False
    return True


def sample_convex_float_quad(rng: Random, bound: int) -> tuple[EuclideanPoint, ...]:
    for _ in range(RETRIES):
        pts = [
            EuclideanPoint(
                float(sample_rational(rng, bound)),
                float(sample_rational(rng, bound)),
            )
            for _ in range(4)
        ]
        cx = sum(p.x for p in pts) / 4
        cy = sum(p.y for p in pts) / 4
        pts.sort(key=lambda p: math.atan2(p.y - cy, p.x - cx))
        crosses = [
            (pts[(i + 1) % 4].x - pts[i].x)
            * (pts[(i + 2) % 4].y - pts[(i + 1) % 4].y)
            - (pts[(i + 1) % 4].y - pts[i].y)
            * (pts[(i + 2) % 4].x - pts[(i + 1) % 4].x)
            for i in range(4)
        ]
        convex = all(c > 0.3 for c in crosses) or all(c < -0.3 for c in crosses)
        if convex and _float_gon_ok(pts):
            return tuple(pts)
    raise RetryLimitExceeded("no well-conditioned convex quadrilateral")


# ---------------------------------------------------------------------------
# hypothesis forcing


def gen_hypothesis_forcing(theorem: str, spec: GenSpec, n: int | None = None) -> dict:
    """Instance generator whose output provably satisfies the named
    theorem's hypothesis, by construction and exactly.

    Returns a dict with a "theorem" tag and named parts; feed it to
    config_to_json for a plain-JSON rendering.
    """
    try:
        build = _FORCERS[theorem]
    except KeyError:
        raise UnknownTheorem(
            f"unknown theorem {theorem!r}; known ids: {', '.join(_FORCERS)}"
        ) from None
    if n is not None and theorem not in DEFAULT_N:
        raise ValueError(f"theorem {theorem!r} does not take an n parameter")
    if n is None:
        n = DEFAULT_N.get(theorem)
    elif n < 3:
        raise ValueError("n must be at least 3")
    return build(theorem, spec.rng(), spec, n)


def config_to_json(config) -> dict:
    """Plain-JSON rendering of a generated configuration dict."""
    return _plain(config)


def _forced(build):
    """Retry wrapper: rerun the drawing closure until it returns a
    nondegenerate instance or the budget runs out."""

    def runner(theorem: str, rng: Random, spec: GenSpec, n: int | None):
        for _ in range(RETRIES):
            try:
                out = build(rng, spec, n)
            except GeometryError:
                continue
            out["theorem"] = theorem
            return out
        raise RetryLimitExceeded(f"could not force hypothesis for {theorem}")

    return runner


def _harmonic_lines_at(
    rng: Random, spec: GenSpec, vertices: Sequence[Point]
) -> tuple[Line, ...]:
    """One generic pencil seed line per vertex, clear of every join of
    the vertex with another vertex, so cevian feet stay off the
    vertices."""
    # each pair is joined once: the order of a join's ends does not
    # matter to the projective != that sample_line_through tests
    joins = [[] for _ in vertices]
    for i, j in combinations(range(len(vertices)), 2):
        l = join(vertices[i], vertices[j])
        joins[i].append(l)
        joins[j].append(l)
    return tuple(
        sample_line_through(rng, spec.bound, v, avoid)
        for v, avoid in zip(vertices, joins)
    )


def _force_two_pencils(rng: Random, spec: GenSpec, n) -> dict:
    t = _sample_line(rng, spec)
    verts = []
    for _ in range(2):
        v = sample_point(rng, spec.bound)
        if incident(t, v) or v in verts:
            raise DegenerateInput("vertex draw rejected")
        verts.append(v)
    # the three seed points must dodge the point where t crosses the
    # vertex join, or slot-corresponding lines would coincide
    cross = meet(t, join(verts[0], verts[1]))
    p1, p2, p3 = (sample_point_on(rng, spec.bound, t, [cross]) for _ in range(3))
    if not all_distinct((p1, p2, p3)):
        raise DegenerateInput("transversal points coincide")
    pencils = tuple(
        HarmonicPencil.complete(v, join(v, p1), join(v, p2), join(v, p3))
        for v in verts
    )
    # the hypothesis (no line shared at one slot): the one rejecting check
    two_pencils_points(*pencils)
    return {"pencils": pencils, "transversal": t}


def _sample_line(rng: Random, spec: GenSpec) -> Line:
    p = sample_point(rng, spec.bound)
    return sample_line_through(rng, spec.bound, p)


def _force_cor2(rng: Random, spec: GenSpec, n) -> dict:
    v1 = sample_point(rng, spec.bound)
    v2 = sample_point(rng, spec.bound)
    if v1 == v2:
        raise DegenerateInput("vertices coincide")
    shared = join(v1, v2)
    pencils = []
    for v in (v1, v2):
        a2 = sample_line_through(rng, spec.bound, v, [shared])
        g = sample_line_through(rng, spec.bound, v, [shared, a2])
        pencils.append(HarmonicPencil.complete(v, shared, a2, g))
    pencils = tuple(pencils)
    return {"pencils": pencils}


def _force_free_triangle(rng: Random, spec: GenSpec, n) -> dict:
    vertices = sample_general_points(rng, spec.bound, 3)
    g = _harmonic_lines_at(rng, spec, vertices)
    config = TriangleConfig.complete(vertices, g)
    return {"config": config}


def _force_triangle_transfer(rng: Random, spec: GenSpec, n) -> dict:
    vertices = sample_general_points(rng, spec.bound, 3)
    center = _point_off_joins(rng, spec, vertices)
    g = tuple(join(v, center) for v in vertices)
    config = TriangleConfig.complete(vertices, g)
    return {"config": config, "center": center}


def _point_off_joins(
    rng: Random, spec: GenSpec, vertices: Sequence[Point]
) -> Point:
    """Point avoiding every join of two named points (and the points)."""
    joins = [
        join(vertices[i], vertices[j])
        for i in range(len(vertices))
        for j in range(i + 1, len(vertices))
    ]
    for _ in range(RETRIES):
        p = sample_point(rng, spec.bound)
        if any(p == v for v in vertices):
            continue
        if any(incident(l, p) for l in joins):
            continue
        return p
    raise RetryLimitExceeded("no point clear of the vertex joins")


def _force_free_quad(rng: Random, spec: GenSpec, n) -> dict:
    vertices = sample_general_points(rng, spec.bound, 4)
    g = _harmonic_lines_at(rng, spec, vertices)
    config = QuadrilateralConfig.complete(vertices, g)
    return {"config": config}


def _force_quad_equivalence(rng: Random, spec: GenSpec, n) -> dict:
    vertices = sample_general_points(rng, spec.bound, 4)
    partial = _harmonic_lines_at(rng, spec, vertices)[:3]
    g4 = complete_fourth_line(vertices, *partial)
    config = QuadrilateralConfig.complete(vertices, partial + (g4,))
    return {"config": config}


def _force_matched_quadruples(rng: Random, spec: GenSpec, n) -> dict:
    """Two collinear quadruples with equal cross-ratio, related by a
    perspectivity (which preserves cross-ratio exactly)."""
    l = _sample_line(rng, spec)
    m = _sample_line(rng, spec)
    if l == m:
        raise DegenerateInput("carriers coincide")
    x = meet(l, m)
    center = sample_point(rng, spec.bound)
    if incident(l, center) or incident(m, center):
        raise DegenerateInput("projection center on a carrier")
    # dodging the common point keeps the two quadruples disjoint, so
    # every cross join downstream is defined
    a = []
    avoid = [x]
    for _ in range(4):
        p = sample_point_on(rng, spec.bound, l, avoid)
        avoid.append(p)
        a.append(p)
    b = tuple(meet(m, join(center, p)) for p in a)
    return {"first": tuple(a), "second": b}


def _force_desargues(rng: Random, spec: GenSpec, n) -> dict:
    center = sample_point(rng, spec.bound)
    rays = []
    for _ in range(3):
        r = sample_line_through(rng, spec.bound, center, rays)
        rays.append(r)
    t1 = []
    t2 = []
    for r in rays:
        p1 = sample_point_on(rng, spec.bound, r, [center])
        p2 = sample_point_on(rng, spec.bound, r, [center, p1])
        t1.append(p1)
        t2.append(p2)
    t1, t2 = tuple(t1), tuple(t2)
    if collinear(*t1) or collinear(*t2):
        raise DegenerateInput("perspective triangle is flat")
    return {"first": t1, "second": t2, "center": center}


def _force_ceva(rng: Random, spec: GenSpec, n) -> dict:
    vertices = sample_general_points(rng, spec.bound, n)
    center = _point_off_joins(rng, spec, vertices)
    gon = CevaGon(vertices, tuple(join(v, center) for v in vertices))
    return {"gon": gon, "center": center}


def _force_ceva_quad(rng: Random, spec: GenSpec, n) -> dict:
    return _force_ceva(rng, spec, 4)


def _force_menelaos(rng: Random, spec: GenSpec, n) -> dict:
    vertices = sample_general_points(rng, spec.bound, n)
    for _ in range(RETRIES):
        t = _sample_line(rng, spec)
        if not any(incident(t, v) for v in vertices):
            break
    else:
        raise RetryLimitExceeded("no transversal clear of the vertices")
    m = len(vertices)
    cuts = tuple(
        meet(join(vertices[i], vertices[(i + 1) % m]), t) for i in range(m)
    )
    gon = MenelaosGon(vertices, cuts)
    return {"gon": gon, "transversal": t}


def _force_duality(rng: Random, spec: GenSpec, n) -> dict:
    vertices = sample_general_points(rng, spec.bound, n)
    m = len(vertices)
    cuts = []
    for i in range(m):
        a, b = vertices[i], vertices[(i + 1) % m]
        cuts.append(sample_point_on(rng, spec.bound, join(a, b), [a, b]))
    gon = MenelaosGon(vertices, tuple(cuts))
    return {"gon": gon}


def _force_bisectors_triangle(rng: Random, spec: GenSpec, n) -> dict:
    return {"points": sample_float_ngon(rng, spec.bound, 3)}


def _force_steiner_add_11(rng: Random, spec: GenSpec, n) -> dict:
    return {"points": sample_convex_float_quad(rng, spec.bound)}


def _force_bisectors_ngon(rng: Random, spec: GenSpec, n) -> dict:
    points = sample_float_ngon(rng, spec.bound, n)
    k = rng.choice([k for k in range(0, n + 1, 2)])
    outs = set(rng.sample(range(n), k))
    choice = tuple(
        "external" if i in outs else "internal" for i in range(n)
    )
    return {"points": points, "choice": choice}


# The theorems that take an n parameter, with the n they use by default.
DEFAULT_N = {
    "ceva-ngon": 5,
    "menelaos-ngon": 6,
    "duality": 5,
    "bisectors-ngon": 5,
}

_FORCERS = {
    "two-pencils": _forced(_force_two_pencils),
    "cor2": _forced(_force_cor2),
    "free-triangle": _forced(_force_free_triangle),
    "triangle-transfer": _forced(_force_triangle_transfer),
    "free-quad": _forced(_force_free_quad),
    "quad-equivalence": _forced(_force_quad_equivalence),
    "crossratio": _forced(_force_matched_quadruples),
    "pappus4": _forced(_force_matched_quadruples),
    "desargues": _forced(_force_desargues),
    "ceva-quad": _forced(_force_ceva_quad),
    "ceva-ngon": _forced(_force_ceva),
    "menelaos-ngon": _forced(_force_menelaos),
    "duality": _forced(_force_duality),
    "bisectors-triangle": _forced(_force_bisectors_triangle),
    "steiner-add-11": _forced(_force_steiner_add_11),
    "bisectors-ngon": _forced(_force_bisectors_ngon),
}

FORCED_THEOREMS = tuple(sorted(_FORCERS))
