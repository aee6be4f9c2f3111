import copy
import gc
import importlib
import math
import pickle
import pkgutil
import sys
import weakref
from dataclasses import FrozenInstanceError
from fractions import Fraction
from random import Random

import pytest

from harmonica.core import (
    EXACT,
    CoincidentLines,
    CoincidentPoints,
    DegenerateInput,
    FloatBackend,
    GeometryError,
    Line,
    NotCollinear,
    NotConcurrent,
    Point,
    PointAtInfinity,
    SegmentRatio,
    TooFewDistinct,
    UndefinedRatio,
    _built,
    _tidy,
    coincide,
    collinear,
    collinearity_residual,
    concurrency_residual,
    concurrent,
    cross_ratio_lines,
    cross_ratio_points,
    dualize,
    eps_from_env,
    float_backend,
    fourth_harmonic_line,
    harmonic_conjugate,
    incident,
    is_harmonic_pencil,
    is_harmonic_points,
    join,
    meet,
    ratio_product,
    signed_area,
    signed_ratio,
)
from harmonica.generate import sample_point
from helpers import (
    affine_cross_ratio,
    apply_matrix,
    apply_matrix_line,
    distinct_points,
    random_matrix,
    random_point,
)

ORIGIN = Point(0, 0, 1)
X_AXIS = Line(0, 1, 0)


def xpt(x):
    return Point(x, 0, 1)


# ---------------------------------------------------------------------------
# joins, meets, incidence


def test_join_example():
    assert join(Point(0, 0, 1), Point(2, 3, 1)) == Line(3, -2, 0)


def test_meet_example():
    assert meet(Line(3, -2, 0), Line(0, 1, -3)) == Point(2, 3, 1)


def test_join_meet_roundtrip():
    rng = Random(101)
    for _ in range(100):
        p, q = distinct_points(rng, 2)
        l = join(p, q)
        assert incident(l, p) and incident(l, q)
        m = join(p, random_point(rng))
        if m == l:
            continue
        assert meet(l, m) == p


def test_join_coincident_raises():
    p = Point(2, 4, 2)
    with pytest.raises(CoincidentPoints):
        join(p, Point(1, 2, 1))


def test_meet_coincident_raises():
    with pytest.raises(CoincidentLines):
        meet(Line(1, 2, 3), Line(2, 4, 6))


def test_meet_of_parallels_is_infinite():
    p = meet(Line(1, 1, 0), Line(1, 1, -5))
    assert p.is_infinite()


def test_equality_up_to_scale():
    assert Point(1, 2, 3) == Point(-2, -4, -6)
    assert Point(1, 2, 3) != Point(1, 2, 4)
    assert Line(1, 0, -1) == Line(Fraction(1, 2), 0, Fraction(-1, 2))


def test_zero_triple_rejected():
    with pytest.raises(DegenerateInput):
        Point(0, 0, 0)
    with pytest.raises(DegenerateInput):
        Line(0, 0, 0)


def test_constructor_takes_three_positional_coordinates():
    with pytest.raises(TypeError, match="Point takes 3 coordinates, got 2"):
        Point(1, 2)
    with pytest.raises(TypeError, match="Line takes 3 coordinates, got 4"):
        Line(1, 2, 3, 4)
    with pytest.raises(TypeError):
        Point(x=1, y=2, w=1)


def test_collinear_trivial_cases():
    a, b = Point(0, 0, 1), Point(1, 1, 1)
    # a repeated point never breaks collinearity
    assert collinear(a, a, b)
    assert collinear(a, b, b)
    assert not collinear(a, b, Point(1, 0, 1))


def _floated(obj):
    return type(obj)(*(float(v) for v in obj.triple))


def test_collinearity_via_duality():
    rng = Random(102)
    for _ in range(50):
        exact = distinct_points(rng, 3)
        for p, q, r in (exact, [_floated(o) for o in exact]):
            l, m, n = dualize(p), dualize(q), dualize(r)
            assert collinear(p, q, r) == concurrent(l, m, n)
            assert _typed(collinearity_residual(p, q, r)) == _typed(
                concurrency_residual(l, m, n)
            )


def test_dualize_swaps_join_and_meet():
    # the same triple, coordinate for coordinate, on exact and float input
    rng = Random(103)
    for _ in range(50):
        exact = distinct_points(rng, 2)
        for p, q in (exact, [_floated(o) for o in exact]):
            via_join = dualize(join(p, q)).triple
            assert _typed(via_join) == _typed(meet(dualize(p), dualize(q)).triple)


# ---------------------------------------------------------------------------
# cross-ratios


def test_cross_ratio_harmonic_example():
    cr = cross_ratio_points(xpt(0), xpt(4), xpt(1), xpt(-2))
    assert cr == -1


def test_cross_ratio_third_example():
    cr = cross_ratio_points(xpt(0), xpt(2), xpt(1), xpt(3))
    assert cr == Fraction(-1, 3)


def test_cross_ratio_matches_affine_reference():
    rng = Random(104)
    trials = 0
    while trials < 100:
        a, b = distinct_points(rng, 2)
        l = join(a, b)
        t1, t2 = Fraction(rng.randint(2, 9)), Fraction(rng.randint(-9, -2))
        c = Point(a.x * t1 + b.x, a.y * t1 + b.y, a.w * t1 + b.w)
        d = Point(a.x * t2 + b.x, a.y * t2 + b.y, a.w * t2 + b.w)
        if c == d or c.is_infinite() or d.is_infinite():
            continue
        trials += 1
        assert cross_ratio_points(a, b, c, d) == affine_cross_ratio(a, b, c, d)


def test_cross_ratio_pair_swap():
    rng = Random(105)
    for _ in range(50):
        a, b = distinct_points(rng, 2)
        t1, t2 = Fraction(3, 2), Fraction(-5, 3)
        c = Point(a.x * t1 + b.x, a.y * t1 + b.y, a.w * t1 + b.w)
        d = Point(a.x * t2 + b.x, a.y * t2 + b.y, a.w * t2 + b.w)
        cr = cross_ratio_points(a, b, c, d)
        assert cross_ratio_points(c, d, a, b) == cr
        assert cross_ratio_points(b, a, c, d) == 1 / cr


def test_cross_ratio_projective_invariance():
    rng = Random(106)
    done = 0
    while done < 100:
        a, b = distinct_points(rng, 2)
        t1, t2 = Fraction(rng.randint(1, 9)), Fraction(rng.randint(-9, -1))
        c = Point(a.x * t1 + b.x, a.y * t1 + b.y, a.w * t1 + b.w)
        d = Point(a.x * t2 + b.x, a.y * t2 + b.y, a.w * t2 + b.w)
        if c == d:
            continue
        m = random_matrix(rng)
        images = [apply_matrix(m, p) for p in (a, b, c, d)]
        if images[2] == images[3] or images[0] == images[1]:
            continue
        done += 1
        assert cross_ratio_points(*images) == cross_ratio_points(a, b, c, d)


def test_cross_ratio_handles_point_at_infinity():
    # with d at infinity the second factor bd/da limits to -1, so the
    # cross-ratio degenerates to -ac/cb
    a, b, c = xpt(0), xpt(4), xpt(1)
    d = Point(1, 0, 0)
    assert cross_ratio_points(a, b, c, d) == Fraction(-1, 3)


def test_cross_ratio_rejects_noncollinear():
    with pytest.raises(NotCollinear):
        cross_ratio_points(xpt(0), xpt(1), Point(0, 1, 1), xpt(2))


def test_cross_ratio_rejects_degenerate_quadruple():
    with pytest.raises(TooFewDistinct):
        cross_ratio_points(xpt(0), xpt(1), xpt(1), xpt(2))
    with pytest.raises(CoincidentPoints):
        cross_ratio_points(xpt(0), xpt(0), xpt(1), xpt(2))


def test_pencil_cross_ratio_example():
    v = ORIGIN
    a1, a2 = Line(0, 1, 0), Line(1, 0, 0)
    g, h = Line(1, -1, 0), Line(1, 1, 0)
    assert cross_ratio_lines(v, a1, a2, g, h) == -1
    assert is_harmonic_pencil(v, a1, a2, g, h)


def test_pencil_cross_ratio_transversal_independence():
    rng = Random(107)
    done = 0
    while done < 100:
        v = random_point(rng)
        targets = distinct_points(rng, 4)
        if any(t == v for t in targets):
            continue
        lines = [join(v, t) for t in targets]
        if len({l.triple for l in lines}) < 4 or any(
            lines[i] == lines[j] for i in range(4) for j in range(i + 1, 4)
        ):
            continue
        p, q = distinct_points(rng, 2)
        transversal = join(p, q)
        if incident(transversal, v):
            continue
        cuts = [meet(l, transversal) for l in lines]
        if any(cuts[i] == cuts[j] for i in range(4) for j in range(i + 1, 4)):
            continue
        done += 1
        assert cross_ratio_lines(v, *lines) == cross_ratio_points(*cuts)


# ---------------------------------------------------------------------------
# harmonic conjugates


def midpoint_of(a: Point, b: Point) -> Point:
    ax, ay = a.to_affine()
    bx, by = b.to_affine()
    return Point.affine((ax + bx) / 2, (ay + by) / 2)


def test_harmonic_conjugate_example():
    assert harmonic_conjugate(xpt(0), xpt(4), xpt(1)) == xpt(-2)


def test_harmonic_conjugate_of_midpoint_is_infinite():
    rng = Random(108)
    for _ in range(25):
        a, b = distinct_points(rng, 2)
        y = harmonic_conjugate(a, b, midpoint_of(a, b))
        assert y.is_infinite()
        assert collinear(a, b, y)


def test_harmonic_conjugate_is_involution():
    rng = Random(109)
    done = 0
    while done < 100:
        a, b = distinct_points(rng, 2)
        t = Fraction(Random(done).randint(2, 7), 3)
        x = Point(a.x * t + b.x, a.y * t + b.y, a.w * t + b.w)
        if x == a or x == b:
            continue
        done += 1
        y = harmonic_conjugate(a, b, x)
        assert is_harmonic_points(a, b, x, y)
        assert harmonic_conjugate(a, b, y) == x


def test_harmonic_conjugate_degenerate_inputs():
    a, b = xpt(0), xpt(4)
    with pytest.raises(DegenerateInput):
        harmonic_conjugate(a, b, a)
    with pytest.raises(NotCollinear):
        harmonic_conjugate(a, b, Point(1, 1, 1))


def test_fourth_harmonic_line_example():
    v = ORIGIN
    h = fourth_harmonic_line(v, Line(0, 1, 0), Line(1, 0, 0), Line(1, -1, 0))
    assert h == Line(1, 1, 0)


def test_fourth_harmonic_line_dual_of_conjugate():
    rng = Random(110)
    done = 0
    while done < 50:
        v = random_point(rng)
        p, q, r = distinct_points(rng, 3)
        if v in (p, q, r):
            continue
        a, b, g = join(v, p), join(v, q), join(v, r)
        if a == b or a == g or b == g:
            continue
        done += 1
        h = fourth_harmonic_line(v, a, b, g)
        assert is_harmonic_pencil(v, a, b, g, h)
        via_dual = dualize(
            harmonic_conjugate(dualize(a), dualize(b), dualize(g))
        )
        assert _typed(h.triple) == _typed(via_dual.triple)


# ---------------------------------------------------------------------------
# signed ratios and areas


def test_signed_ratio_examples():
    assert signed_ratio(xpt(0), xpt(1), xpt(2)).value == 1
    assert signed_ratio(xpt(0), xpt(2), xpt(3)).value == 2
    assert signed_ratio(xpt(0), xpt(0), xpt(3)).value == 0
    assert signed_ratio(xpt(0), xpt(3), xpt(3)).is_infinite()


def test_signed_ratio_divider_at_infinity_is_minus_one():
    rng = Random(111)
    for _ in range(25):
        a, b = distinct_points(rng, 2)
        d = meet(join(a, b), Line(0, 0, 1))
        assert signed_ratio(a, d, b).value == -1


def test_signed_ratio_chart_independence():
    # the same ratio computed on a line needing the y chart
    a, d, b = Point(1, 0, 1), Point(1, 1, 1), Point(1, 3, 1)
    assert signed_ratio(a, d, b).value == Fraction(1, 2)


def test_signed_ratio_links_to_cross_ratio():
    rng = Random(112)
    done = 0
    while done < 50:
        a, b = distinct_points(rng, 2)
        t1, t2 = Fraction(5, 2), Fraction(-7, 3)
        c = Point(a.x * t1 + b.x, a.y * t1 + b.y, a.w * t1 + b.w)
        d = Point(a.x * t2 + b.x, a.y * t2 + b.y, a.w * t2 + b.w)
        r1, r2 = signed_ratio(a, c, b), signed_ratio(a, d, b)
        if r1.is_infinite() or r2.is_infinite() or r2.value == 0:
            continue
        done += 1
        assert cross_ratio_points(a, b, c, d) == r1.value / r2.value


def test_ratio_product_rejects_infinite_factor():
    from harmonica.core import UndefinedRatio

    with pytest.raises(UndefinedRatio):
        ratio_product([signed_ratio(xpt(0), xpt(3), xpt(3))])


def test_signed_area_examples():
    assert signed_area(ORIGIN, xpt(1), Point(0, 1, 1)) == Fraction(1, 2)
    assert signed_area(xpt(1), ORIGIN, Point(0, 1, 1)) == Fraction(-1, 2)


def test_signed_area_cyclic_and_antisymmetric():
    rng = Random(113)
    for _ in range(50):
        a, b, c = distinct_points(rng, 3)
        s = signed_area(a, b, c)
        assert signed_area(b, c, a) == s
        assert signed_area(b, a, c) == -s


def test_signed_area_rejects_infinite_point():
    with pytest.raises(PointAtInfinity):
        signed_area(ORIGIN, xpt(1), Point(1, 1, 0))


def test_area_principle():
    rng = Random(114)
    done = 0
    while done < 100:
        a1, a2, b, c = distinct_points(rng, 4)
        if collinear(a1, a2, b) or collinear(a1, a2, c) or b == c:
            continue
        base, cevian = join(a1, a2), join(b, c)
        if base == cevian:
            continue
        d = meet(base, cevian)
        if d == a2 or d.is_infinite():
            continue
        done += 1
        lhs = signed_ratio(a1, d, a2)
        assert lhs.value == signed_area(a1, b, c) / signed_area(b, a2, c)


def test_area_principle_unequal_bases():
    # with c1, c2 both on the cevian through b:
    # a1d/da2 == [a1 b c1] / [b a2 c2] * (bc2 / bc1)
    rng = Random(115)
    done = 0
    while done < 100:
        a1, a2, b, c1 = distinct_points(rng, 4)
        if collinear(a1, a2, b) or b == c1:
            continue
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if t in (0, 1):
            continue
        bx, by = b.to_affine()
        c1x, c1y = c1.to_affine()
        c2 = Point.affine(bx + t * (c1x - bx), by + t * (c1y - by))
        cevian = join(b, c1)
        base = join(a1, a2)
        if base == cevian or incident(cevian, a1) or incident(cevian, a2):
            continue
        d = meet(base, cevian)
        if d == a2 or d.is_infinite():
            continue
        if collinear(b, a2, c2):
            continue
        done += 1
        lhs = signed_ratio(a1, d, a2).value
        rhs = signed_area(a1, b, c1) / signed_area(b, a2, c2) * t
        assert lhs == rhs


# ---------------------------------------------------------------------------
# float backend


def test_float_backend_equality_is_relative():
    be = FloatBackend(1e-9)
    assert be.eq(1.0, 1.0 + 1e-12)
    assert not be.eq(1.0, 1.0 + 1e-6)
    assert be.eq(1e12, 1e12 * (1 + 1e-11))


def test_float_collinearity_with_roundoff():
    be = FloatBackend(1e-9)
    a = Point(0.1, 0.7, 1.0)
    b = Point(2.3, -1.9, 1.0)
    l = join(a, b)
    mid = Point((0.1 + 2.3) / 2, (0.7 - 1.9) / 2, 1.0)
    assert collinear(a, b, mid, be)
    assert incident(l, mid, be)
    off = Point(mid.x + 1e-3, mid.y, 1.0)
    assert not collinear(a, b, off, be)


def test_float_harmonic_quadruple():
    be = FloatBackend(1e-9)
    pts = [Point(float(x), 0.0, 1.0) for x in (0, 4, 1)]
    y = harmonic_conjugate(pts[0], pts[1], pts[2], be)
    assert is_harmonic_points(pts[0], pts[1], pts[2], y, be)


def test_eps_env_override(monkeypatch):
    monkeypatch.setenv("HARMONICA_EPS", "1e-3")
    assert float_backend().eps == 1e-3
    assert eps_from_env() == 1e-3
    monkeypatch.setenv("HARMONICA_EPS", "bogus")
    with pytest.raises(ValueError):
        float_backend()
    monkeypatch.delenv("HARMONICA_EPS")
    assert float_backend().eps == 1e-9


# ---------------------------------------------------------------------------
# serialization


def test_point_json_roundtrip():
    p = Point(Fraction(2, 3), Fraction(-1, 7), 1)
    assert Point.from_json(p.to_json()) == p
    q = Point(0.5, -1.25, 1.0)
    back = Point.from_json(q.to_json())
    assert (back.x, back.y, back.w) == (0.5, -1.25, 1.0)


def test_line_json_roundtrip():
    l = Line(Fraction(1, 2), 3, Fraction(-5, 4))
    assert Line.from_json(l.to_json()) == l


# ---------------------------------------------------------------------------
# integer forms: the exact kernel computes on them, results do not change
#
# The reference functions below compute on the coordinates as given,
# the way the kernel did before points and lines kept an integer form.


def _ref_tidy(x, y, z):
    if any(isinstance(v, float) for v in (x, y, z)):
        m = max(abs(x), abs(y), abs(z))
        if m == 0 or not math.isfinite(m):
            return x, y, z
        return x / m, y / m, z / m
    fx, fy, fz = Fraction(x), Fraction(y), Fraction(z)
    lcm = fx.denominator
    lcm = lcm * fy.denominator // math.gcd(lcm, fy.denominator)
    lcm = lcm * fz.denominator // math.gcd(lcm, fz.denominator)
    ix, iy, iz = (
        fx.numerator * (lcm // fx.denominator),
        fy.numerator * (lcm // fy.denominator),
        fz.numerator * (lcm // fz.denominator),
    )
    g = math.gcd(math.gcd(ix, iy), iz)
    if g > 1:
        ix, iy, iz = ix // g, iy // g, iz // g
    return ix, iy, iz


def _ref_cross(p, q):
    return (
        p[1] * q[2] - p[2] * q[1],
        p[2] * q[0] - p[0] * q[2],
        p[0] * q[1] - p[1] * q[0],
    )


def _ref_incidence(l, p):
    value = l[0] * p[0] + l[1] * p[1] + l[2] * p[2]
    scale = abs(l[0] * p[0]) + abs(l[1] * p[1]) + abs(l[2] * p[2])
    return value, scale


def _ref_det3(p, q, r):
    c = _ref_cross(q, r)
    value = p[0] * c[0] + p[1] * c[1] + p[2] * c[2]
    a, b, d = ([abs(v) for v in t] for t in (p, q, r))
    scale = (
        a[0] * (b[1] * d[2] + b[2] * d[1])
        + a[1] * (b[0] * d[2] + b[2] * d[0])
        + a[2] * (b[0] * d[1] + b[1] * d[0])
    )
    return value, scale


def _ref_proportional(p, q):
    return (
        p[0] * q[1] == p[1] * q[0]
        and p[0] * q[2] == p[2] * q[0]
        and p[1] * q[2] == p[2] * q[1]
    )


def _ref_coincide(a, b, backend):
    scale = max(abs(v) for v in a) * max(abs(v) for v in b)
    return all(backend.zero(v, scale) for v in _ref_cross(a, b))


def _typed(triple):
    return [(type(v), v) for v in triple]


_BACKENDS = (EXACT, FloatBackend(1e-9))


def _coordinate(rng, kind):
    if kind == "int":
        return rng.randint(-4, 4)
    if kind == "fraction":
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    if kind == "float":
        return rng.choice([0.0, float(rng.randint(-4, 4)), rng.uniform(-5, 5)])
    return _coordinate(rng, rng.choice(["int", "fraction"]))  # mixed


def _triple(rng, kind):
    while True:
        if kind == "float-mixed":
            t = [_coordinate(rng, "mixed") for _ in range(3)]
            t[rng.randrange(3)] = _coordinate(rng, "float")
        else:
            t = [_coordinate(rng, kind) for _ in range(3)]
        if rng.random() < 0.2:
            t[2] = 0 * t[2]  # at infinity, keeping the coordinate's type
        if any(v != 0 for v in t):
            return tuple(t)


def _scaled(rng, triple):
    """The same projective object with other coordinates."""
    factor = rng.choice([-3, 2, Fraction(-2, 7), Fraction(5, 3)])
    return tuple(v * factor for v in triple)


def _pool(cls, rng, size=30):
    kinds = ("int", "fraction", "mixed", "float", "float-mixed")
    objs = []
    for i in range(size):
        t = _triple(rng, kinds[i % len(kinds)])
        objs.append(cls(*t))
        if i % 3 == 0:
            objs.append(cls(*_scaled(rng, t)))
    return objs


def _with_incidences(rng, points, lines):
    """Add joins and meets of pool members, so equal and incident pairs
    occur among them as well as generic ones."""
    for _ in range(24):
        p, q = rng.sample(points, 2)
        l, m = rng.sample(lines, 2)
        try:
            lines.append(join(p, q))
        except CoincidentPoints:
            pass
        try:
            points.append(meet(l, m))
        except CoincidentLines:
            pass


@pytest.fixture(scope="module")
def kernel_pool():
    rng = Random(20181)
    points, lines = _pool(Point, rng), _pool(Line, rng)
    _with_incidences(rng, points, lines)
    return rng, points, lines


def test_tidy_int_fast_path_matches_fraction_path():
    rng = Random(4)
    for _ in range(2000):
        big = rng.choice([5, 60, 2**70])
        t = tuple(rng.randint(-big, big) for _ in range(3))
        if rng.random() < 0.5:
            f = rng.randint(1, 12)
            t = tuple(v * f for v in t)
        assert _typed(_tidy(*t)) == _typed(_ref_tidy(*t))
    for t in [(0, 0, 5), (0, -4, 0), (-6, 9, -12), (7, 0, 0), (0, 0, 0)]:
        assert _typed(_tidy(*t)) == _typed(_ref_tidy(*t))


def test_tidy_exact_and_float_paths_unchanged():
    rng = Random(5)
    for kind in ("fraction", "mixed", "float", "float-mixed"):
        for _ in range(300):
            t = _triple(rng, kind)
            assert _typed(_tidy(*t)) == _typed(_ref_tidy(*t))


def test_integer_form_is_positive_primitive_multiple(kernel_pool):
    _, points, lines = kernel_pool
    for obj in points + lines:
        t, form = obj.triple, obj._form
        if any(isinstance(v, float) for v in t):
            assert form is None
            continue
        assert all(type(v) is int for v in form)
        if all(type(v) is int for v in t):
            assert form == t
            continue
        assert math.gcd(*form) == 1
        # a positive multiple: proportional, and every sign kept
        assert _ref_proportional(t, form)
        assert all((a > 0) == (b > 0) and (a < 0) == (b < 0) for a, b in zip(t, form))


def test_join_and_meet_triples_match_coordinates(kernel_pool):
    _, points, lines = kernel_pool
    for build, objs, error in (
        (join, points, CoincidentPoints),
        (meet, lines, CoincidentLines),
    ):
        for a in objs:
            for b in objs:
                t = _ref_cross(a.triple, b.triple)
                if all(v == 0 for v in t):
                    with pytest.raises(error):
                        build(a, b)
                else:
                    assert _typed(build(a, b).triple) == _typed(_ref_tidy(*t))


def test_equality_matches_coordinates(kernel_pool):
    _, points, lines = kernel_pool
    equal = 0
    for objs in (points, lines):
        for a in objs:
            for b in objs:
                expected = _ref_proportional(a.triple, b.triple)
                assert (a == b) is expected
                assert (a != b) is not expected
                equal += expected and a is not b
    assert equal > 20


def test_predicates_match_coordinates(kernel_pool):
    rng, points, lines = kernel_pool
    hits = 0
    for backend in _BACKENDS:
        for l in lines:
            for p in points:
                expected = backend.zero(*_ref_incidence(l.triple, p.triple))
                assert incident(l, p, backend) is expected
                hits += expected
        for _ in range(1500):
            for objs in (points, lines):
                a, b = rng.choice(objs), rng.choice(objs)
                expected = _ref_coincide(a.triple, b.triple, backend)
                assert coincide(a, b, backend) is expected
            for pred, objs in ((collinear, points), (concurrent, lines)):
                a, b, c = (rng.choice(objs) for _ in range(3))
                expected = backend.zero(*_ref_det3(a.triple, b.triple, c.triple))
                assert pred(a, b, c, backend) is expected
                hits += expected
    assert hits > 200


def test_float_backend_on_exact_data_tests_given_coordinates():
    # the tolerance floor max(1, scale) is not scale-free, so a float
    # backend must see these tiny exact residuals as they are: zero
    be = FloatBackend(1e-9)
    tiny = Fraction(1, 10**12)
    p = Point(tiny, 0, 1)
    assert incident(Line(1, 0, 0), p, be)
    assert collinear(Point(0, 0, 1), Point(0, 1, 1), p, be)
    assert concurrent(Line(1, 0, 0), Line(1, 1, 0), Line(1, 0, tiny), be)
    assert coincide(Line(tiny, tiny, 1), Line(0, 0, 1), be)
    assert coincide(Point(tiny, tiny, 1), Point(0, 0, 1), be)
    assert not incident(Line(1, 0, 0), p)
    assert not coincide(Line(tiny, tiny, 1), Line(0, 0, 1))
    assert not coincide(Point(tiny, tiny, 1), Point(0, 0, 1))


def test_residuals_use_given_coordinates(kernel_pool):
    rng, points, lines = kernel_pool
    for _ in range(500):
        l, m, n = (rng.choice(lines) for _ in range(3))
        p, q, r = (rng.choice(points) for _ in range(3))
        assert _typed(collinearity_residual(p, q, r)) == _typed(
            _ref_det3(p.triple, q.triple, r.triple)
        )
        assert _typed(concurrency_residual(l, m, n)) == _typed(
            _ref_det3(l.triple, m.triple, n.triple)
        )


def _state(obj):
    """Everything an element shows or keeps: its class, typed triple,
    integer form, repr and JSON."""
    form = None if obj._form is None else _typed(obj._form)
    return type(obj), _typed(obj.triple), form, repr(obj), obj.to_json()


def test_built_elements_match_the_constructor():
    # a constructed triple skips the constructor exactly when it tidies
    # to an int triple, and the element is the one the constructor makes
    rng = Random(18)
    for kind in ("int", "fraction", "mixed", "float", "float-mixed"):
        for _ in range(300):
            t = _triple(rng, kind)
            if kind == "int" and rng.random() < 0.5:
                t = tuple(v * rng.randint(2, 9) for v in t)
            for cls in (Point, Line):
                built = _built(cls, t)
                assert _state(built) == _state(cls(*_tidy(*t)))
                assert (built._form is None) is ("float" in kind)
                floats = {type(v) is float for v in built.triple}
                if kind == "float":
                    assert floats == {True}
                elif kind == "float-mixed":
                    assert True in floats
                else:
                    assert floats == {False}


def test_elements_have_only_their_two_slots():
    # however a point or line is made, its triple and integer form are
    # all it stores: it has no __dict__, no attribute can be set on it,
    # and copy and pickle rebuild it whole
    a, b, x = Point(0, 0, 1), Point(Fraction(4), 0, 1), Point(1, 0, 1)
    fa, fb, fx = (Point(*map(float, p.triple)) for p in (a, b, x))
    l, m = Line(1, 2, 3), Line(Fraction(1, 2), -1, 0)
    fl, fm = (Line(*map(float, g.triple)) for g in (l, m))
    made = [
        a, b, fa, l, m, fl,
        Point.from_json({"x": "1/2", "y": "-3", "w": "1"}),
        Line.from_json({"a": "0.5", "b": "2", "c": "1"}),
        join(a, b), join(fa, fb), join(fa, b), meet(l, m), meet(fl, fm),
        dualize(a), dualize(fl),
        harmonic_conjugate(a, b, x),
        harmonic_conjugate(fa, fb, fx, float_backend()),
        fourth_harmonic_line(ORIGIN, Line(1, 0, 0), Line(0, 1, 0), Line(1, 1, 0)),
        sample_point(Random(20), 10),
    ]
    assert {o._form is None for o in made} == {False, True}
    for obj in made:
        assert not hasattr(obj, "__dict__")
        for name in ("triple", "_form", obj._keys[0], "label"):
            with pytest.raises(FrozenInstanceError):
                setattr(obj, name, 0)
        for twin in (copy.copy(obj), copy.deepcopy(obj), pickle.loads(pickle.dumps(obj))):
            assert _state(twin) == _state(obj)


def test_constructions_match_the_constructor_on_their_triples(kernel_pool):
    # join, meet and the harmonic fourths build what the public
    # constructor builds from the tidied triple they computed, on
    # int and Fraction operands; float operands keep float triples
    # and no integer form
    rng, points, lines = kernel_pool
    built = 0
    for build, objs, cls in ((join, points, Line), (meet, lines, Point)):
        for a in objs:
            for b in objs:
                t = _ref_cross(a.triple, b.triple)
                if all(v == 0 for v in t):
                    continue
                got = build(a, b)
                assert _state(got) == _state(cls(*_tidy(*t)))
                floats = a._form is None or b._form is None
                assert (got._form is None) is floats
                built += not floats
    exact_points = [p for p in points if p._form is not None]
    exact_lines = [l for l in lines if l._form is not None]
    for i in range(300):
        exact = i % 2 == 0
        v = rng.choice(exact_points if exact else points)
        l = rng.choice(exact_lines if exact else lines)
        row = _members(rng, l, exact_lines if exact else lines, meet, exact_points)
        pencil = _members(rng, v, exact_points if exact else points, join, exact_lines)
        for kernel, ref, args in (
            (harmonic_conjugate, _ref_harmonic_conjugate, rng.choices(row, k=3)),
            (fourth_harmonic_line, _ref_fourth_harmonic_line, [v] + rng.choices(pencil, k=3)),
        ):
            try:
                expected = ref(*args, EXACT)
            except GeometryError as exc:
                with pytest.raises(type(exc)):
                    kernel(*args)
                continue
            got = kernel(*args)
            assert _state(got) == _state(expected)
            floats = any(o._form is None for o in args)
            assert (got._form is None) is floats
            built += not floats
    assert built > 1000


def _hex_state(obj):
    """_state with float coordinates compared by float.hex, so that the
    sign of a zero counts."""
    triple = [v.hex() if type(v) is float else (type(v), v) for v in obj.triple]
    return type(obj), triple, obj._form, repr(obj), obj.to_json()


def test_float_constructions_match_the_constructor():
    # on float and mixed int/float operands each construction makes
    # cls(*_tidy(*t)) for the triple t it computed, -0.0 included
    rng = Random(23)
    kinds = ("float", "float-mixed", "int")
    points = [Point(*_triple(rng, kinds[i % 3])) for i in range(24)]
    lines = [Line(*_triple(rng, kinds[i % 3])) for i in range(24)]
    built = harmonics = negative_zeros = 0
    for build, objs, cls in ((join, points, Line), (meet, lines, Point)):
        for a in objs:
            for b in objs:
                t = _ref_cross(a.triple, b.triple)
                if (a._form and b._form) or all(v == 0 for v in t):
                    continue
                got = build(a, b)
                assert _hex_state(got) == _hex_state(cls(*_tidy(*t)))
                assert got._form is None
                built += 1
                negative_zeros += any(str(v) == "-0.0" for v in got.triple)
    backend = FloatBackend(1e-9)
    floats = [p for p in points if p._form is None]
    float_lines = [l for l in lines if l._form is None]
    for _ in range(300):
        v, l = rng.choice(floats), rng.choice(float_lines)
        row = _members(rng, l, lines, meet, points)
        pencil = _members(rng, v, points, join, lines)
        draws = (
            (harmonic_conjugate, _ref_harmonic_conjugate, rng.choices(row, k=3)),
            (fourth_harmonic_line, _ref_fourth_harmonic_line, [v] + rng.choices(pencil, k=3)),
        )
        for kernel, ref, args in draws:
            try:
                expected = ref(*args, backend)
            except GeometryError as exc:
                with pytest.raises(type(exc)):
                    kernel(*args, backend)
                continue
            got = kernel(*args, backend)
            assert _hex_state(got) == _hex_state(expected)
            assert got._form is None
            harmonics += 1
    assert built > 900 and harmonics > 150 and negative_zeros > 50
    # a zero triple still reaches the constructor, which rejects it, and
    # a non-finite one is kept as the constructor keeps it
    for cls in (Point, Line):
        with pytest.raises(DegenerateInput):
            _built(cls, (0.0, -0.0, 0.0))
        inf = (math.inf, 1.0, -0.0)
        assert _hex_state(_built(cls, inf)) == _hex_state(cls(*_tidy(*inf)))
    with pytest.raises(CoincidentPoints):
        join(Point(1.0, -2.0, 0.5), Point(2.0, -4.0, 1.0))


def test_coordinates_survive_integer_form():
    p = Point(Fraction(2, 4), Fraction(-1, 3), 1)
    assert p.triple == (Fraction(1, 2), Fraction(-1, 3), 1)
    assert p._form == (3, -2, 6)
    assert repr(p) == "Point(1/2 : -1/3 : 1)"
    assert p.to_json() == {"x": "1/2", "y": "-1/3", "w": "1"}


# ---------------------------------------------------------------------------
# the ratio kernel on integer forms: signed ratios, cross-ratios and
# harmonic fourths return what they did on the coordinates as given
#
# The reference functions below are the kernel as it computed on .triple.


def _ref_chart(carrier):
    k, best = 0, abs(carrier[0])
    for i in (1, 2):
        if abs(carrier[i]) > best:
            k, best = i, abs(carrier[i])
    if best == 0:
        raise DegenerateInput("carrier triple is zero")
    return k


def _ref_drop(t, k):
    return tuple(v for i, v in enumerate(t) if i != k)


def _ref_bracket(u, v):
    return u[0] * v[1] - u[1] * v[0]


def _ref_div(num, den):
    if any(isinstance(v, float) for v in (num, den)):
        return num / den
    return Fraction(num) / Fraction(den)


def _ref_brackets(triples, k):
    a, b, c, d = (_ref_drop(t, k) for t in triples)
    num = _ref_bracket(a, c) * _ref_bracket(b, d)
    den = _ref_bracket(c, b) * _ref_bracket(d, a)
    if den == 0:
        if num == 0:
            raise TooFewDistinct("cross-ratio is indeterminate (0/0)")
        raise TooFewDistinct("cross-ratio is infinite for this quadruple")
    return _ref_div(num, den)


def _ref_cross_ratio_points(a, b, c, d, backend):
    carrier = _ref_cross(a.triple, b.triple)
    if carrier == (0, 0, 0):
        raise CoincidentPoints("cross-ratio needs a != b")
    for p in (c, d):
        if not backend.zero(*_ref_incidence(carrier, p.triple)):
            raise NotCollinear(f"{p} is not on the carrier line")
    k = _ref_chart(carrier)
    return _ref_brackets([a.triple, b.triple, c.triple, d.triple], k)


def _ref_cross_ratio_lines(vertex, g1, g2, g3, g4, backend):
    for g in (g1, g2, g3, g4):
        if not backend.zero(*_ref_incidence(g.triple, vertex.triple)):
            raise NotConcurrent(f"{g} does not pass through {vertex}")
    if _ref_proportional(g1.triple, g2.triple):
        raise CoincidentLines("cross-ratio needs g1 != g2")
    k = _ref_chart(vertex.triple)
    return _ref_brackets([g1.triple, g2.triple, g3.triple, g4.triple], k)


def _ref_signed_ratio(a, d, b, backend):
    carrier = _ref_cross(a.triple, b.triple)
    if carrier == (0, 0, 0):
        raise CoincidentPoints("signed ratio needs a != b")
    if not backend.zero(*_ref_incidence(carrier, d.triple)):
        raise NotCollinear(f"{d} is not on the line through the endpoints")
    ca, cb, _ = carrier
    if ca == 0 and cb == 0:
        t, u = 0, 1
    elif abs(cb) >= abs(ca):
        t, u = 0, 2
    else:
        t, u = 1, 2
    at, au = a.triple[t], a.triple[u]
    dt, du = d.triple[t], d.triple[u]
    bt, bu = b.triple[t], b.triple[u]
    num = (dt * au - du * at) * bu
    den = (bt * du - bu * dt) * au
    if den == 0:
        if num == 0:
            raise TooFewDistinct("signed ratio is indeterminate (0/0)")
        return SegmentRatio(None)
    return SegmentRatio(_ref_div(num, den))


def _ref_fourth(a, b, x, k, message):
    a2, b2, x2 = (_ref_drop(t.triple, k) for t in (a, b, x))
    alpha, beta = _ref_bracket(x2, b2), _ref_bracket(a2, x2)
    if alpha == 0 or beta == 0:
        raise DegenerateInput(message)
    return _ref_tidy(*(alpha * p - beta * q for p, q in zip(a.triple, b.triple)))


def _ref_harmonic_conjugate(a, b, x, backend):
    carrier = _ref_cross(a.triple, b.triple)
    if carrier == (0, 0, 0):
        raise CoincidentPoints("harmonic conjugate needs a != b")
    if not backend.zero(*_ref_incidence(carrier, x.triple)):
        raise NotCollinear(f"{x} is not on the line through the base points")
    message = "harmonic conjugate needs x distinct from a and b"
    return Point(*_ref_fourth(a, b, x, _ref_chart(carrier), message))


def _ref_fourth_harmonic_line(vertex, a, b, g, backend):
    for l in (a, b, g):
        if not backend.zero(*_ref_incidence(l.triple, vertex.triple)):
            raise NotConcurrent(f"{l} does not pass through {vertex}")
    if _ref_proportional(a.triple, b.triple):
        raise CoincidentLines("fourth harmonic needs a != b")
    message = "fourth harmonic needs g distinct from a and b"
    return Line(*_ref_fourth(a, b, g, _ref_chart(vertex.triple), message))


def _ref_ratio_product(ratios):
    product = 1
    for r in ratios:
        if r.is_infinite():
            raise UndefinedRatio("infinite factor in ratio product")
        product = product * r.value
    return product


def _outcome(f, *args):
    """A value with its type (a point's or line's typed triple), or the
    exception's class and message."""
    try:
        value = f(*args)
    except GeometryError as exc:
        return type(exc), str(exc)
    if isinstance(value, (Point, Line)):
        return type(value), _typed(value.triple)
    if isinstance(value, SegmentRatio):
        value = value.value
    return type(value), value


def _members(rng, carrier, others, build, strays):
    """Members of the range on a line (or the pencil at a point) that
    build cuts out with others, scaled copies with negative factors
    among them, and one stray that is, as a rule, off the carrier."""
    out = []
    for other in rng.sample(others, 6):
        try:
            out.append(build(carrier, other))
        except (CoincidentPoints, CoincidentLines):
            pass
    out += [type(m)(*_scaled(rng, m.triple)) for m in out[:3]]
    return out + [rng.choice(strays)]


def test_ratio_kernel_matches_coordinates(kernel_pool):
    rng, points, lines = kernel_pool
    # members at infinity: the range on a line meets the line at infinity
    # there, and the pencil at a point holds its joins with ideal points
    crossers = lines + [Line(0, 0, 1), Line(0, 0, -2.0)]
    ideal = points + [
        Point(1, 0, 0),
        Point(Fraction(-1, 2), 1, 0),
        Point(1.0, 2.0, 0.0),
    ]
    # half the ranges and pencils are cut out by exact members only, so
    # the integer forms carry many draws from start to end
    exact = [m for m in crossers if m._form is not None]
    exact_ideal = [p for p in ideal if p._form is not None]
    seen = {}
    for backend in _BACKENDS:
        for i in range(250):
            l, v = rng.choice(lines), rng.choice(points)
            row = _members(rng, l, (crossers, exact)[i % 2], meet, points)
            pencil = _members(rng, v, (ideal, exact_ideal)[i % 2], join, lines)
            draws = [
                (signed_ratio, _ref_signed_ratio, rng.choices(row, k=3)),
                (cross_ratio_points, _ref_cross_ratio_points, rng.choices(row, k=4)),
                (harmonic_conjugate, _ref_harmonic_conjugate, rng.choices(row, k=3)),
                (
                    cross_ratio_lines,
                    _ref_cross_ratio_lines,
                    [v] + rng.choices(pencil, k=4),
                ),
                (
                    fourth_harmonic_line,
                    _ref_fourth_harmonic_line,
                    [v] + rng.choices(pencil, k=3),
                ),
            ]
            for kernel, ref, args in draws:
                got = _outcome(kernel, *args, backend)
                assert got == _outcome(ref, *args, backend), (kernel.__name__, args)
                key = (kernel.__name__, got[0].__name__)
                seen[key] = seen.get(key, 0) + 1
            ratios = []
            for _ in range(rng.randint(0, 4)):
                try:
                    ratios.append(signed_ratio(*rng.choices(row, k=3), backend))
                except GeometryError:
                    pass
            got = _outcome(ratio_product, ratios)
            assert got == _outcome(_ref_ratio_product, ratios)
            seen["ratio_product", got[0].__name__] = 1
    # each value type and each way to fail came up
    for name in ("signed_ratio", "cross_ratio_points", "cross_ratio_lines"):
        for kind in ("Fraction", "float", "TooFewDistinct"):
            assert seen.get((name, kind), 0) >= 5, (name, kind)
    built_by = {"harmonic_conjugate": "Point", "fourth_harmonic_line": "Line"}
    for name, built in built_by.items():
        for kind in (built, "DegenerateInput"):
            assert seen.get((name, kind), 0) >= 5, (name, kind)
    for key in [
        ("signed_ratio", "NoneType"),
        ("signed_ratio", "NotCollinear"),
        ("cross_ratio_points", "CoincidentPoints"),
        ("cross_ratio_lines", "NotConcurrent"),
        ("cross_ratio_lines", "CoincidentLines"),
        ("ratio_product", "UndefinedRatio"),
        ("ratio_product", "Fraction"),
        ("ratio_product", "float"),
        ("ratio_product", "int"),
    ]:
        assert key in seen, key


def test_ratio_kernel_float_backend_on_exact_data_tests_given_coordinates():
    # as for the predicates: these members are off their carrier by a
    # tiny exact amount that the float backend must see at the given
    # scale (zero), not at the integer form's (one)
    be = FloatBackend(1e-9)
    tiny = Fraction(1, 10**12)
    a, b, near = Point(0, 0, 1), Point(1, 0, 1), Point(Fraction(1, 3), tiny, 1)
    assert near._form == (1000000000000, 3, 3000000000000)
    assert signed_ratio(a, near, b, be).value == Fraction(1, 2)
    assert cross_ratio_points(a, b, near, Point(-1, 0, 1), be) == -1
    assert harmonic_conjugate(a, b, near, be).triple == (1, 0, -1)
    vertex, x_axis, y_axis = Point(0, 0, 1), Line(0, 1, 0), Line(1, 0, 0)
    g = Line(1, -1, tiny)
    assert cross_ratio_lines(vertex, x_axis, y_axis, g, Line(1, 1, 0), be) == -1
    assert fourth_harmonic_line(vertex, x_axis, y_axis, g, be).triple == (1, 1, 0)
    for call, error in (
        (lambda: signed_ratio(a, near, b), NotCollinear),
        (lambda: cross_ratio_points(a, b, near, Point(-1, 0, 1)), NotCollinear),
        (lambda: harmonic_conjugate(a, b, near), NotCollinear),
        (lambda: fourth_harmonic_line(vertex, x_axis, y_axis, g), NotConcurrent),
    ):
        with pytest.raises(error):
            call()


def _harmonica_modules() -> list[str]:
    return [n for n in sys.modules if n == "harmonica" or n.startswith("harmonica.")]


def _fresh_import_classes() -> list:
    """Weak references to every class of a fresh import of each of
    harmonica's modules; no strong reference is left behind."""
    for name in _harmonica_modules():
        del sys.modules[name]
    package = importlib.import_module("harmonica")
    refs = []
    for info in pkgutil.iter_modules(package.__path__):
        module = importlib.import_module(f"harmonica.{info.name}")
        refs += [
            weakref.ref(obj)
            for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
        ]
    return refs


def test_importing_again_frees_the_earlier_import():
    # nothing global (such as typing's cache of Union types) may keep
    # an earlier import's classes, and with them its modules, alive:
    # a process that imports harmonica afresh would hold every copy
    saved = {name: sys.modules[name] for name in _harmonica_modules()}
    try:
        first = _fresh_import_classes()
        assert len(first) > 50
        _fresh_import_classes()
        gc.collect()
        alive = [ref().__qualname__ for ref in first if ref() is not None]
        assert alive == []
    finally:
        for name in _harmonica_modules():
            del sys.modules[name]
        sys.modules.update(saved)
