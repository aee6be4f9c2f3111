"""Angle bisectors: construction invariants, the four triangle centers,
quadrilateral bisector quintuples, and n-gon pseudo-concurrency.

Center positions are cross-checked against the independent
side-length-weighted vertex averages, never against the module's own
constructions.
"""

import math
from random import Random

import pytest

from harmonica.bisectors import (
    BisectorPair,
    DegenerateAngle,
    EuclideanPoint,
    _quintuples,
    angle_bisectors,
    bisector_gon,
    steiner_add_11_check,
    triangle_bisector_concurrencies,
)
from harmonica.core import (
    EPS_ENV_VAR,
    GeometryError,
    Line,
    cross_ratio_lines,
    float_backend,
    incident,
    join,
)
from harmonica.reduction import ceva_product, is_pseudo_concurrent, reduce_step


E = EuclideanPoint

# a triangle on which the check once printed False for a true theorem
THIN_TRIANGLE = (
    E(4.636714238557136, 0.10305901286684893),
    E(4.231211645780242, 2.28752103285151),
    E(5.920353384943116, -6.81381708727441),
)


def random_ngon(rng: Random, n: int, spread: float = 5.0):
    """Float vertex sequence with separated vertices and honest angles.

    No convexity or simplicity is required by any bisector theorem
    here; only consecutive collinearity is rejected.
    """
    while True:
        pts = [
            E(rng.uniform(-spread, spread), rng.uniform(-spread, spread))
            for _ in range(n)
        ]
        ok = all(
            pts[i].distance(pts[j]) > 0.5
            for i in range(n)
            for j in range(i + 1, n)
        )
        if not ok:
            continue
        for i in range(n):
            a, v, b = pts[(i - 1) % n], pts[i], pts[(i + 1) % n]
            d1 = ((a.x - v.x), (a.y - v.y))
            d2 = ((b.x - v.x), (b.y - v.y))
            sin = d1[0] * d2[1] - d1[1] * d2[0]
            n1 = math.hypot(*d1)
            n2 = math.hypot(*d2)
            if abs(sin) < 0.1 * n1 * n2:
                ok = False
        if ok:
            return pts


def random_convex_ngon(rng: Random, n: int):
    while True:
        pts = [E(rng.uniform(-5, 5), rng.uniform(-5, 5)) for _ in range(n)]
        cx = sum(p.x for p in pts) / n
        cy = sum(p.y for p in pts) / n
        pts.sort(key=lambda p: math.atan2(p.y - cy, p.x - cx))
        crosses = []
        for i in range(n):
            a, b, c = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
            crosses.append(
                (b.x - a.x) * (c.y - b.y) - (b.y - a.y) * (c.x - b.x)
            )
        if all(c > 0.3 for c in crosses) or all(c < -0.3 for c in crosses):
            if min(
                pts[i].distance(pts[j]) for i in range(n) for j in range(i + 1, n)
            ) > 0.6:
                return pts


def random_convex_quad(rng: Random):
    return random_convex_ngon(rng, 4)


def weighted_center(vertices, weights):
    total = sum(weights)
    x = sum(w * v.x for w, v in zip(weights, vertices)) / total
    y = sum(w * v.y for w, v in zip(weights, vertices)) / total
    return (x, y)


def triangle_side_lengths(a1, a2, a3):
    # lengths opposite each vertex
    return (a2.distance(a3), a1.distance(a3), a1.distance(a2))


def lines_parallel(l: Line, m: Line) -> bool:
    """Whether two float lines have the same direction: the sine of the
    angle between their normals is zero at float_backend()."""
    n1 = math.hypot(l.a, l.b)
    n2 = math.hypot(m.a, m.b)
    if n1 == 0 or n2 == 0:
        return False
    return float_backend().zero((l.a * m.b - l.b * m.a) / (n1 * n2))


def classify_against_bisectors(line: Line, prev, v, nxt) -> str | None:
    """Name the bisector of angle (prev, v, nxt) that a line is parallel
    to (lines_parallel), or None if it matches neither."""
    fresh = angle_bisectors(prev, v, nxt)
    if lines_parallel(line, fresh.internal):
        return "internal"
    if lines_parallel(line, fresh.external):
        return "external"
    return None


class TestAngleBisectors:
    def test_right_isoceles_internal_along_diagonal(self):
        pair = angle_bisectors(E(1, 0), E(0, 0), E(0, 1))
        assert lines_parallel(pair.internal, Line(1.0, -1.0, 0.0))
        assert lines_parallel(pair.external, Line(1.0, 1.0, 0.0))

    def test_unit_vector_sum_ignores_leg_lengths(self):
        # a leg of length 2 contributes the same unit vector as one of
        # length 1, so the bisector is still the diagonal
        pair = angle_bisectors(E(2, 0), E(0, 0), E(0, 1))
        assert lines_parallel(pair.internal, Line(1.0, -1.0, 0.0))

    def test_internal_perpendicular_to_external(self):
        rng = Random(5)
        for _ in range(50):
            pts = random_ngon(rng, 3)
            pair = angle_bisectors(*pts)
            dot = pair.internal.a * pair.external.a + pair.internal.b * pair.external.b
            scale = math.hypot(pair.internal.a, pair.internal.b) * math.hypot(
                pair.external.a, pair.external.b
            )
            assert abs(dot) <= 1e-12 * scale

    def test_both_lines_pass_through_vertex(self):
        rng = Random(7)
        be = float_backend()
        for _ in range(50):
            prev, v, nxt = random_ngon(rng, 3)
            pair = angle_bisectors(prev, v, nxt)
            assert incident(pair.internal, v.to_point(), be)
            assert incident(pair.external, v.to_point(), be)

    def test_harmonic_with_the_two_sides(self):
        rng = Random(11)
        be = float_backend(1e-9)
        for _ in range(50):
            prev, v, nxt = random_ngon(rng, 3)
            pair = angle_bisectors(prev, v, nxt)
            cr = cross_ratio_lines(
                v.to_point(),
                join(v.to_point(), prev.to_point()),
                join(v.to_point(), nxt.to_point()),
                pair.internal,
                pair.external,
                be,
            )
            assert abs(cr + 1) <= 1e-9

    def test_swapping_legs_gives_same_lines(self):
        pair1 = angle_bisectors(E(3, 1), E(0, 0), E(-1, 2))
        pair2 = angle_bisectors(E(-1, 2), E(0, 0), E(3, 1))
        assert lines_parallel(pair1.internal, pair2.internal)
        assert lines_parallel(pair1.external, pair2.external)

    def test_collinear_legs_rejected(self):
        with pytest.raises(DegenerateAngle):
            angle_bisectors(E(-1, 0), E(0, 0), E(1, 0))
        with pytest.raises(DegenerateAngle):
            angle_bisectors(E(2, 2), E(0, 0), E(1, 1))


class TestTriangleCenters:
    def test_three_four_five_incenter(self):
        report = triangle_bisector_concurrencies(E(0, 0), E(4, 0), E(0, 3))
        assert report.all_true()
        ix, iy = report.witness["incenter"]
        assert abs(ix - 1) <= 1e-12 and abs(iy - 1) <= 1e-12

    def test_three_four_five_excenters(self):
        report = triangle_bisector_concurrencies(E(0, 0), E(4, 0), E(0, 3))
        expected = {
            "excenter_1": (6.0, 6.0),
            "excenter_2": (-2.0, 2.0),
            "excenter_3": (3.0, -3.0),
        }
        for name, (ex, ey) in expected.items():
            wx, wy = report.witness[name]
            assert abs(wx - ex) <= 1e-9 and abs(wy - ey) <= 1e-9

    def test_equilateral_incenter_is_centroid(self):
        a = E(0, 0)
        b = E(1, 0)
        c = E(0.5, math.sqrt(3) / 2)
        ix, iy = triangle_bisector_concurrencies(a, b, c).witness["incenter"]
        assert abs(ix - 0.5) <= 1e-12
        assert abs(iy - math.sqrt(3) / 6) <= 1e-12

    def test_random_triangles_all_four_concurrencies(self):
        rng = Random(13)
        for _ in range(30):
            a1, a2, a3 = random_ngon(rng, 3)
            report = triangle_bisector_concurrencies(a1, a2, a3)
            assert report.all_true(), report.residuals

    def test_centers_match_weighted_vertex_averages(self):
        rng = Random(17)
        for _ in range(30):
            a1, a2, a3 = random_ngon(rng, 3)
            la, lb, lc = triangle_side_lengths(a1, a2, a3)
            report = triangle_bisector_concurrencies(a1, a2, a3)
            checks = {
                "incenter": (la, lb, lc),
                "excenter_1": (-la, lb, lc),
                "excenter_2": (la, -lb, lc),
                "excenter_3": (la, lb, -lc),
            }
            for name, weights in checks.items():
                wx, wy = report.witness[name]
                ex, ey = weighted_center((a1, a2, a3), weights)
                scale = max(1.0, abs(ex), abs(ey))
                assert abs(wx - ex) <= 1e-8 * scale, name
                assert abs(wy - ey) <= 1e-8 * scale, name

    def test_thin_triangle_raises_instead_of_a_false_verdict(self):
        # angles 179.997, 0.0021 and 0.00066 degrees: the bisector
        # pencil at vertex 1 is harmonic only to about 1.8e-7
        with pytest.raises(GeometryError):
            triangle_bisector_concurrencies(*THIN_TRIANGLE)

    def test_thin_triangle_follows_harmonica_eps(self, monkeypatch):
        monkeypatch.setenv(EPS_ENV_VAR, "1e-6")
        assert triangle_bisector_concurrencies(*THIN_TRIANGLE).all_true()

    def test_random_triangles_are_all_true_or_raise(self):
        rng = Random(5)
        raised = 0
        for _ in range(2000):
            pts = [E(rng.uniform(-10, 10), rng.uniform(-10, 10)) for _ in range(3)]
            try:
                report = triangle_bisector_concurrencies(*pts)
            except GeometryError:
                raised += 1
                continue
            assert report.all_true(), (pts, report.residuals)
        assert raised <= 5

    def test_thin_triangle_follows_the_backend_passed(self):
        # the backend reaches the config, so one tolerance decides
        report = triangle_bisector_concurrencies(
            *THIN_TRIANGLE, backend=float_backend(1e-6)
        )
        assert report.all_true()
        with pytest.raises(GeometryError):
            triangle_bisector_concurrencies(*THIN_TRIANGLE, backend=float_backend())

    @pytest.mark.parametrize(
        "shape, incenter_at",
        [(((0, 0), (4, 0), (0, 3)), (1, 1)), (((0, 0), (1, 0), (0, 1)), None)],
    )
    @pytest.mark.parametrize("offset", [0.0, 1e5, 1e7])
    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_moved_and_scaled_triangles_pass(self, shape, incenter_at, offset, scale):
        pts = [E(x * scale + offset, y * scale + offset) for x, y in shape]
        report = triangle_bisector_concurrencies(*pts)
        assert report.all_true(), report.residuals
        if incenter_at is not None:
            ix, iy = report.witness["incenter"]
            for got, want in ((ix, incenter_at[0]), (iy, incenter_at[1])):
                want = want * scale + offset
                assert abs(got - want) <= 1e-9 * max(scale, abs(want))

    def test_residuals_stay_at_roundoff_when_moved_and_scaled(self):
        base = triangle_bisector_concurrencies(E(0, 0), E(4, 0), E(0, 3))
        moved = triangle_bisector_concurrencies(
            E(1e5, 1e5), E(1e5 + 4e-5, 1e5), E(1e5, 1e5 + 3e-5)
        )
        for name, value in moved.residuals.items():
            assert value <= 1e-12 and base.residuals[name] <= 1e-12

    def test_collinear_triangle_rejected(self):
        # the angle at each vertex is flat, so its bisectors are
        # undefined before the triangle's config is built
        with pytest.raises(DegenerateAngle):
            triangle_bisector_concurrencies(E(0, 0), E(1, 0), E(2, 0))


class TestSteinerQuintuples:
    def test_random_convex_quadrilaterals(self):
        rng = Random(19)
        for _ in range(25):
            quad = random_convex_quad(rng)
            report = steiner_add_11_check(quad)
            assert report.all_true(), report.residuals
            for value in report.residuals.values():
                assert value <= 1e-8

    def test_symmetric_trapezoid(self):
        quad = [E(-2, 0), E(2, 0), E(1, 2), E(-1, 2)]
        report = steiner_add_11_check(quad)
        assert report.all_true()

    def test_quintuples_have_five_members(self):
        quad = random_convex_quad(Random(23))
        quints, _ = _quintuples(quad, float_backend())
        assert len(quints) == 4
        assert all(len(q) == 5 for q in quints)

    @pytest.mark.parametrize("offset", [0.0, 1e5, 1e7])
    @pytest.mark.parametrize("scale", [1e-5, 1.0, 1e5])
    def test_moved_and_scaled_quadrilaterals_pass(self, offset, scale):
        shape = ((0, 0), (3, 0), (4, 3), (0, 4))
        quad = [E(x * scale + offset, y * scale + offset) for x, y in shape]
        report = steiner_add_11_check(quad)
        assert report.all_true(), report.residuals

    def test_quintuples_are_in_the_input_frame(self):
        # the checks run on a unit-size copy; its map back takes the
        # first member of the first quintuple to the meet of sides 12
        # and 34 of the input
        quad = [E(100, 100), E(103, 100), E(104, 103), E(100, 104)]
        quints, back = _quintuples(quad, float_backend())
        x, y, w = back(quints[0][0])
        # side 12 is y = 100, and side 34 meets it at x = 100 + 4 * 4
        assert abs(x / w - 116) <= 1e-9
        assert abs(y / w - 100) <= 1e-9

    def test_near_parallel_sides_still_pass(self):
        # a12 and a34 nearly parallel: the diagonal point sits far out
        # but relative residuals stay meaningful
        quad = [E(0, 0), E(10, 0), E(11, 3.01), E(1, 3.0)]
        report = steiner_add_11_check(quad)
        assert report.all_true(), report.residuals


class TestBisectorGons:
    def test_internal_bisectors_pseudo_concurrent(self):
        rng = Random(29)
        for n in (4, 5, 6, 7):
            for _ in range(5):
                pts = random_ngon(rng, n)
                gon = bisector_gon(pts)
                assert is_pseudo_concurrent(gon, "first", float_backend())[0]

    def test_internal_product_is_one(self):
        rng = Random(31)
        for n in (4, 5, 6, 7):
            for _ in range(5):
                pts = random_ngon(rng, n)
                product = ceva_product(bisector_gon(pts), float_backend())
                assert abs(product - 1) <= 1e-8

    def test_even_external_choices_pass(self):
        rng = Random(37)
        for n in (5, 6):
            for _ in range(8):
                pts = random_ngon(rng, n)
                k = rng.choice([2, 4])
                outs = rng.sample(range(n), k)
                choice = [
                    "external" if i in outs else "internal" for i in range(n)
                ]
                gon = bisector_gon(pts, choice)
                verdict, _ = is_pseudo_concurrent(gon, "first", float_backend())
                assert verdict, choice

    def test_single_external_choice_fails_generically(self):
        rng = Random(41)
        failures = 0
        trials = 0
        for _ in range(10):
            pts = random_ngon(rng, 5)
            choice = ["internal"] * 5
            choice[rng.randrange(5)] = "external"
            trials += 1
            gon = bisector_gon(pts, choice)
            if not is_pseudo_concurrent(gon, "first", float_backend())[0]:
                failures += 1
        assert trials == 10 and failures >= 8

    def test_even_external_product_is_one(self):
        rng = Random(43)
        for _ in range(8):
            pts = random_ngon(rng, 6)
            outs = rng.sample(range(6), 2)
            choice = ["external" if i in outs else "internal" for i in range(6)]
            product = ceva_product(bisector_gon(pts, choice), float_backend())
            assert abs(product - 1) <= 1e-8

    def _reduced_cevian_label(self, pts, kind):
        """Collapse the pair (2, 3) of a pentagon whose bisector kinds
        at those vertices are given by kind, and classify the new
        cevian against the bisectors of the fresh angle.  None means
        the step or the classification degenerated."""
        choice = ["internal"] * 5
        choice[1] = "internal" if kind[0] == "i" else "external"
        choice[2] = "internal" if kind[1] == "i" else "external"
        gon = bisector_gon(pts, choice)
        try:
            reduced = reduce_step(gon, 2)
        except GeometryError:
            return None
        new = reduced.vertices[1]
        if abs(new.w) < 1e-9 * max(abs(new.x), abs(new.y)):
            return None
        nv = E(new.x / new.w, new.y / new.w)
        try:
            return classify_against_bisectors(
                reduced.cevians[1], pts[0], nv, pts[3]
            )
        except DegenerateAngle:
            return None

    def test_reduced_cevian_is_always_a_bisector(self):
        # for any polygon, convex or not, collapsing two bisector
        # cevians produces one of the two bisectors of the new angle;
        # which of the two depends on where the outer sides cross
        rng = Random(47)
        checked = 0
        for _ in range(40):
            pts = random_ngon(rng, 5)
            kind = rng.choice(["ii", "ee", "ie", "ei"])
            got = self._reduced_cevian_label(pts, kind)
            if got is not None:
                assert got in ("internal", "external")
                checked += 1
        assert checked >= 30

    def test_reduction_parity_rule_on_convex_polygons(self):
        # on convex polygons the outcome is determined by the pair of
        # kinds alone: equal kinds collapse to the internal bisector,
        # mixed kinds to the external one
        rng = Random(49)
        cases = {"ii": 0, "ee": 0, "ie": 0, "ei": 0}
        while min(cases.values()) < 5:
            pts = random_convex_ngon(rng, 5)
            kind = rng.choice(list(cases.keys()))
            got = self._reduced_cevian_label(pts, kind)
            if got is None:
                continue
            expected = "internal" if kind in ("ii", "ee") else "external"
            assert got == expected, (kind, got)
            cases[kind] += 1

    def test_gon_rejects_bad_choice_vector(self):
        pts = random_ngon(Random(53), 4)
        with pytest.raises(ValueError):
            bisector_gon(pts, ["internal"] * 3)
        with pytest.raises(ValueError):
            bisector_gon(pts, ["internal", "internal", "sideways", "internal"])


class TestUtilities:
    def test_pair_is_plain_data(self):
        pair = angle_bisectors(E(1, 0), E(0, 0), E(0, 1))
        assert isinstance(pair, BisectorPair)
        assert pair.vertex == E(0, 0)
