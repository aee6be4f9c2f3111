"""Shared test utilities: seeded rational configurations and reference
computations kept independent from the package internals."""

from fractions import Fraction
from random import Random

from harmonica.core import Line, Point, collinear, incident, join, meet

BOUND = 10


def rational(rng: Random, bound: int = BOUND) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_point(rng: Random, bound: int = BOUND) -> Point:
    return Point.affine(rational(rng, bound), rational(rng, bound))


def distinct_points(rng: Random, n: int, bound: int = BOUND) -> list:
    points = []
    while len(points) < n:
        p = random_point(rng, bound)
        if all(p != q for q in points):
            points.append(p)
    return points


def random_matrix(rng: Random, bound: int = 10):
    """Invertible 3x3 rational matrix (a projectivity on points)."""
    while True:
        m = [[Fraction(rng.randint(-bound, bound)) for _ in range(3)] for _ in range(3)]
        det = (
            m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
            - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
            + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
        )
        if det != 0:
            return m


def apply_matrix(m, p: Point) -> Point:
    t = p.triple
    return Point(
        m[0][0] * t[0] + m[0][1] * t[1] + m[0][2] * t[2],
        m[1][0] * t[0] + m[1][1] * t[1] + m[1][2] * t[2],
        m[2][0] * t[0] + m[2][1] * t[1] + m[2][2] * t[2],
    )


def apply_matrix_line(m, l: Line) -> Line:
    # lines move by the adjugate transpose when points move by m
    adj = [
        [
            m[(i + 1) % 3][(j + 1) % 3] * m[(i + 2) % 3][(j + 2) % 3]
            - m[(i + 1) % 3][(j + 2) % 3] * m[(i + 2) % 3][(j + 1) % 3]
            for j in range(3)
        ]
        for i in range(3)
    ]
    t = l.triple
    return Line(
        adj[0][0] * t[0] + adj[0][1] * t[1] + adj[0][2] * t[2],
        adj[1][0] * t[0] + adj[1][1] * t[1] + adj[1][2] * t[2],
        adj[2][0] * t[0] + adj[2][1] * t[1] + adj[2][2] * t[2],
    )


def points_in_general_position(rng: Random, n: int, bound: int = BOUND) -> list:
    """n affine points with no three collinear."""
    points = []
    while len(points) < n:
        p = random_point(rng, bound)
        if any(p == q for q in points):
            continue
        if any(
            collinear(points[i], points[j], p)
            for i in range(len(points))
            for j in range(i + 1, len(points))
        ):
            continue
        points.append(p)
    return points


def random_line_through(rng: Random, p: Point, avoid=(), bound: int = BOUND) -> Line:
    """Random line through p distinct from every line in avoid."""
    while True:
        q = random_point(rng, bound)
        if q == p:
            continue
        l = join(p, q)
        if all(l != m for m in avoid):
            return l


def random_point_on(rng: Random, l: Line, avoid=(), bound: int = BOUND) -> Point:
    """Random point on l distinct from every point in avoid."""
    while True:
        q = random_point(rng, bound)
        if incident(l, q):
            p = q
        else:
            try:
                p = meet(l, join(q, random_point(rng, bound)))
            except Exception:
                continue
        if all(p != r for r in avoid):
            return p


def affine_cross_ratio(a, b, c, d) -> Fraction:
    """Reference cross-ratio from affine coordinates only."""
    pa, pb, pc, pd = (p.to_affine() for p in (a, b, c, d))
    if pa[0] == pb[0] == pc[0] == pd[0]:
        xa, xb, xc, xd = pa[1], pb[1], pc[1], pd[1]
    else:
        xa, xb, xc, xd = pa[0], pb[0], pc[0], pd[0]
    return ((xc - xa) * (xd - xb)) / ((xb - xc) * (xa - xd))


def fourth_line_by_crossing(vertices, g1: Line, g2: Line, g3: Line) -> Line:
    """The fourth cevian of a quadrilateral by the crossing route, a
    reference for complete_fourth_line's diagonal route: the line from
    vertex 4 to the cut of g1 with the line through the crossing of g2
    and g3 and the meet of sides 1 and 3."""
    A = vertices
    a5 = meet(join(A[0], A[1]), join(A[2], A[3]))
    return join(A[3], meet(join(a5, meet(g2, g3)), g1))


def lane_pools(rng: Random) -> dict[str, list[tuple]]:
    """Seeded coordinate triples by number kind: ints with common
    factors, negatives and w = 0; Fractions; mixes of ints, Fractions
    and floats; and floats scaled from 1e-150 to 1e150."""

    def small(k: int) -> int:
        return rng.randint(-k, k)

    ints = []
    while len(ints) < 30:
        t = (small(6), small(6), 0 if len(ints) % 5 == 0 else small(6))
        if any(t):
            factor = rng.choice([1, 1, 2, 3, -4, 6])
            ints.append(tuple(v * factor for v in t))
    fractions = []
    while len(fractions) < 20:
        t = tuple(Fraction(small(9), rng.randint(1, 7)) for _ in range(3))
        if any(t):
            fractions.append(t)
    mixed = []
    while len(mixed) < 20:
        t = tuple(
            rng.choice([small(5), Fraction(small(9), rng.randint(1, 7)), small(5) / 4])
            for _ in range(3)
        )
        if any(t) and len({type(v) for v in t}) > 1:
            mixed.append(t)
    floats = [
        tuple(rng.uniform(-1, 1) * scale for _ in range(3))
        for scale in (1e-150, 1e-50, 1e-3, 1.0, 1e3, 1e50, 1e150)
        for _ in range(4)
    ]
    return {"int": ints, "fraction": fractions, "mixed": mixed, "float": floats}
