"""Pencil configurations on triangles and quadrilaterals.

Positive instances are built from first principles (harmonic conjugates
on a transversal, concurrent cevians, central projections) so the
theorem code under test never supplies its own hypothesis.
"""

import sys
from fractions import Fraction
from random import Random

import pytest

from harmonica import core, pencils
from harmonica.core import (
    DegenerateConfig,
    DegenerateInput,
    NoSolution,
    Point,
    Line,
    all_collinear,
    collinear,
    concurrent,
    cross_ratio_lines,
    cross_ratio_points,
    float_backend,
    harmonic_conjugate,
    incident,
    is_harmonic_pencil,
    join,
    meet,
)
from harmonica.pencils import (
    EllPair,
    HarmonicPencil,
    QuadrilateralConfig,
    SharedLine,
    SharedLineMissing,
    TriangleConfig,
    ceva_product_triangle,
    complete_fourth_line,
    cor2_collinear_triples,
    crossratio_corollary_check,
    desargues_quantitative,
    ell_pairs,
    free_quadrilateral_triples,
    free_triangle_lines,
    pappus_lines,
    quad_coincidence_equivalence,
    quad_diag_product,
    quad_zeta,
    triangle_concurrency_transfer,
    two_pencils_points,
)
from harmonica.generate import GenSpec, gen_hypothesis_forcing
from harmonica.reduction import diagonal_ratio_product
from harmonica.registry import run_trial

from helpers import (
    distinct_points,
    fourth_line_by_crossing,
    points_in_general_position,
    random_line_through,
    random_point,
    random_point_on,
)


def P(x, y):
    return Point.affine(Fraction(x), Fraction(y))


def random_harmonic_pencil(rng, vertex=None):
    if vertex is None:
        vertex = random_point(rng)
    a1 = random_line_through(rng, vertex)
    a2 = random_line_through(rng, vertex, avoid=(a1,))
    g = random_line_through(rng, vertex, avoid=(a1, a2))
    return HarmonicPencil.complete(vertex, a1, a2, g)


def pencil_through_points(vertex, p1, p2, p3, p4):
    return HarmonicPencil(
        vertex, join(vertex, p1), join(vertex, p2), join(vertex, p3), join(vertex, p4)
    )


# ---------------------------------------------------------------------------
# single pencils and pairs of pencils


class TestHarmonicPencil:
    def test_complete_produces_harmonic_pencil(self):
        rng = Random(11)
        for _ in range(20):
            p = random_harmonic_pencil(rng)
            cr = cross_ratio_lines(p.vertex, *p.lines)
            assert cr == -1

    def test_non_harmonic_quadruple_rejected(self):
        v = P(0, 0)
        a1 = join(v, P(1, 0))
        a2 = join(v, P(0, 1))
        g = join(v, P(1, 1))
        h = join(v, P(1, 2))
        assert cross_ratio_lines(v, a1, a2, g, h) != -1
        with pytest.raises(DegenerateInput):
            HarmonicPencil(v, a1, a2, g, h)

    def test_two_pencils_fourth_point_follows_three(self):
        # force three of the intersections onto a transversal and watch
        # the fourth land on it as well
        rng = Random(23)
        for _ in range(25):
            a1, a2 = distinct_points(rng, 2)
            p1 = random_harmonic_pencil(rng, a1)
            t = random_line_through(rng, random_point(rng))
            if incident(t, a1) or incident(t, a2):
                continue
            try:
                q1 = meet(p1.a1, t)
                q2 = meet(p1.a2, t)
                q3 = meet(p1.g, t)
                p2 = HarmonicPencil.complete(
                    a2, join(a2, q1), join(a2, q2), join(a2, q3)
                )
                m = two_pencils_points(p1, p2)
            except Exception:
                continue
            assert incident(t, m[0]) and incident(t, m[1]) and incident(t, m[2])
            assert incident(t, m[3])
            assert all_collinear(list(m))

    def test_two_pencils_all_four_on_common_transversal(self):
        rng = Random(29)
        for _ in range(25):
            a1, a2 = distinct_points(rng, 2)
            t = random_line_through(rng, random_point(rng))
            if incident(t, a1) or incident(t, a2):
                continue
            pts = [random_point_on(rng, t) for _ in range(3)]
            if len({p.triple for p in pts}) < 3 or any(
                p == a1 or p == a2 for p in pts
            ):
                continue
            try:
                q4 = harmonic_conjugate(pts[0], pts[1], pts[2])
                if q4.is_infinite() or q4 == a1 or q4 == a2:
                    continue
                p1 = pencil_through_points(a1, pts[0], pts[1], pts[2], q4)
                p2 = pencil_through_points(a2, pts[0], pts[1], pts[2], q4)
                m = two_pencils_points(p1, p2)
            except Exception:
                continue
            assert list(m) == [pts[0], pts[1], pts[2], q4]

    def test_two_pencils_generic_meets_not_collinear(self):
        rng = Random(31)
        hits = 0
        for _ in range(10):
            a1, a2 = distinct_points(rng, 2)
            p1 = random_harmonic_pencil(rng, a1)
            p2 = random_harmonic_pencil(rng, a2)
            try:
                m = two_pencils_points(p1, p2)
            except Exception:
                continue
            hits += 1
            assert not all_collinear(list(m))
        assert hits >= 5

    def test_two_pencils_rejects_shared_slot_line(self):
        a1, a2 = P(0, 0), P(4, 0)
        shared = join(a1, a2)
        p1 = HarmonicPencil.complete(
            a1, shared, join(a1, P(0, 1)), join(a1, P(1, 1))
        )
        p2 = HarmonicPencil.complete(
            a2, shared, join(a2, P(4, 1)), join(a2, P(3, 1))
        )
        with pytest.raises(SharedLine):
            two_pencils_points(p1, p2)

    def test_cor2_triples_collinear_unconditionally(self):
        rng = Random(37)
        checked = 0
        for _ in range(25):
            a1, a2 = distinct_points(rng, 2)
            shared = join(a1, a2)
            try:
                p1 = HarmonicPencil.complete(
                    a1,
                    shared,
                    random_line_through(rng, a1, avoid=(shared,)),
                    random_line_through(rng, a1, avoid=(shared,)),
                )
                p2 = HarmonicPencil.complete(
                    a2,
                    shared,
                    random_line_through(rng, a2, avoid=(shared,)),
                    random_line_through(rng, a2, avoid=(shared,)),
                )
                t1, t2 = cor2_collinear_triples(p1, p2)
            except Exception:
                continue
            checked += 1
            assert collinear(*t1)
            assert collinear(*t2)
        assert checked >= 15

    def test_cor2_requires_shared_first_line(self):
        rng = Random(41)
        a1, a2 = distinct_points(rng, 2)
        p1 = random_harmonic_pencil(rng, a1)
        p2 = random_harmonic_pencil(rng, a2)
        with pytest.raises(SharedLineMissing):
            cor2_collinear_triples(p1, p2)


# ---------------------------------------------------------------------------
# triangles


def random_triangle_config(rng, concurrent_at=None):
    v = tuple(points_in_general_position(rng, 3))
    if concurrent_at is not None:
        g = tuple(join(v[i], concurrent_at) for i in range(3))
    else:
        g = tuple(
            random_line_through(
                rng, v[i], avoid=(join(v[i], v[(i + 1) % 3]), join(v[i], v[(i + 2) % 3]))
            )
            for i in range(3)
        )
    return TriangleConfig.complete(v, g)


class TestTriangle:
    def test_free_triangle_carrier_lines(self):
        rng = Random(43)
        done = 0
        for _ in range(15):
            try:
                t = random_triangle_config(rng)
                ft = free_triangle_lines(t)
            except Exception:
                continue
            done += 1
            for i in range(3):
                j, k = (i + 1) % 3, (i + 2) % 3
                # u_i also carries the h-crossing, v_i the swapped one
                assert incident(ft.u[i], meet(t.h[j], t.h[k]))
                assert incident(ft.v[i], meet(t.g[k], t.h[j]))
                # and together they complete the sides harmonically
                cr = cross_ratio_lines(
                    t.vertices[i], t.side(j), t.side(k), ft.u[i], ft.v[i]
                )
                assert cr == -1
        assert done >= 10

    def test_transfer_positive_for_concurrent_cevians(self):
        rng = Random(47)
        done = 0
        for _ in range(15):
            try:
                o = random_point(rng)
                t = random_triangle_config(rng, concurrent_at=o)
                report = triangle_concurrency_transfer(t)
            except Exception:
                continue
            done += 1
            assert report.all_true(), report.booleans
        assert done >= 10

    def test_transfer_negative_all_or_nothing(self):
        rng = Random(53)
        done = 0
        for _ in range(15):
            try:
                t = random_triangle_config(rng)
                if concurrent(*t.g):
                    continue
                report = triangle_concurrency_transfer(t)
            except Exception:
                continue
            done += 1
            assert not any(report.booleans.values()), report.booleans
        assert done >= 10

    def test_ceva_product_medians_is_one(self):
        v = (P(0, 0), P(6, 0), P(0, 6))
        midpoints = (P(3, 3), P(0, 3), P(3, 0))
        g = tuple(join(v[i], midpoints[i]) for i in range(3))
        t = TriangleConfig.complete(v, g)
        assert ceva_product_triangle(t) == 1
        assert concurrent(*t.g)

    def test_ceva_product_known_value(self):
        # feet at (4,2), (0,3), (2,0) on the sides of the right triangle
        v = (P(0, 0), P(6, 0), P(0, 6))
        feet = (P(4, 2), P(0, 3), P(2, 0))
        g = tuple(join(v[i], feet[i]) for i in range(3))
        t = TriangleConfig.complete(v, g)
        assert ceva_product_triangle(t) == Fraction(1, 4)
        assert not concurrent(*t.g)


def float_point(rng):
    return Point(rng.uniform(-10, 10), rng.uniform(-10, 10), 1.0)


class TestFloatComplete:
    """complete fills in each h at the backend the result is validated
    with, so float input is completed at the float tolerance."""

    @pytest.mark.parametrize("cls, n", [(TriangleConfig, 3), (QuadrilateralConfig, 4)])
    def test_random_float_configs_complete_and_validate(self, cls, n):
        rng = Random(61)
        for _ in range(200):
            v = tuple(float_point(rng) for _ in range(n))
            g = tuple(join(p, float_point(rng)) for p in v)
            config = cls.complete(v, g)
            again = cls(config.vertices, config.g, config.h)
            assert type(again.from_json(again.to_json())) is cls

    def test_random_float_pencils_complete_and_validate(self):
        rng = Random(67)
        be = float_backend()
        for _ in range(200):
            v = float_point(rng)
            a1, a2, g = (join(v, float_point(rng)) for _ in range(3))
            pencil = HarmonicPencil.complete(v, a1, a2, g)
            assert is_harmonic_pencil(pencil.vertex, *pencil.lines, be)

    def test_config_checks_at_the_backend_given(self):
        rng = Random(71)
        v = tuple(float_point(rng) for _ in range(3))
        config = TriangleConfig.complete(v, tuple(join(p, float_point(rng)) for p in v))
        # each h turned about its vertex by 1e-6 radians
        h = []
        for p, l in zip(v, config.h):
            a, b = l.a - 1e-6 * l.b, l.b + 1e-6 * l.a
            h.append(Line(a, b, -(a * p.x + b * p.y) / p.w))
        with pytest.raises(DegenerateInput):
            TriangleConfig(v, config.g, tuple(h))
        TriangleConfig(v, config.g, tuple(h), float_backend(1e-3))

    def test_thin_float_triangle_is_collinear_at_the_float_tolerance(self):
        v = (Point(0.0, 0.0, 1.0), Point(1.0, 1e-13, 1.0), Point(2.0, 0.0, 1.0))
        g = tuple(join(p, Point(0.5, 3.0, 1.0)) for p in v)
        with pytest.raises(DegenerateConfig, match="collinear"):
            TriangleConfig.complete(v, g)
        with pytest.raises(DegenerateConfig, match="collinear"):
            TriangleConfig(v, g, g)


def _floated(obj):
    return type(obj)(*(float(v) for v in obj.triple))


class TestCompleteChecksOnlyInTheFloatLane:
    """In the exact lane complete builds each h with
    fourth_harmonic_line, which tests everything the pencil check
    would, so the check is not run again; the float lane runs it."""

    @pytest.fixture
    def checks(self, monkeypatch):
        calls = []
        real = pencils._check_pencil

        def counted(*args):
            calls.append(args[-1])
            return real(*args)

        monkeypatch.setattr(pencils, "_check_pencil", counted)
        return calls

    @pytest.mark.parametrize(
        "tid",
        [
            "two-pencils",
            "cor2",
            "free-triangle",
            "triangle-transfer",
            "free-quad",
            "quad-equivalence",
        ],
    )
    def test_forced_exact_instances_pass_the_skipped_check(self, checks, tid):
        for seed in range(40):
            config = gen_hypothesis_forcing(tid, GenSpec(seed))
            completed = config.get("pencils") or (config["config"],)
            assert checks == [], (tid, seed)
            expected = 0
            for obj in completed:
                # the public constructors run the full pencil check
                if isinstance(obj, HarmonicPencil):
                    again = HarmonicPencil(obj.vertex, *obj.lines)
                    expected += 1
                else:
                    again = type(obj)(obj.vertices, obj.g, obj.h)
                    expected += len(obj.vertices)
                assert again == obj
            assert len(checks) == expected
            checks.clear()

    def test_float_complete_runs_the_check(self, checks):
        for seed in range(10):
            for tid in ("cor2", "free-quad"):
                config = gen_hypothesis_forcing(tid, GenSpec(seed))
                checks.clear()
                for p in config.get("pencils", ()):
                    HarmonicPencil.complete(
                        _floated(p.vertex), *map(_floated, p.lines[:3])
                    )
                    assert len(checks) == 1
                    checks.clear()
                if "config" in config:
                    q = config["config"]
                    QuadrilateralConfig.complete(
                        tuple(map(_floated, q.vertices)), tuple(map(_floated, q.g))
                    )
                    assert checks == ["vertex 1", "vertex 2", "vertex 3", "vertex 4"]
                    checks.clear()
        rng = Random(73)
        v = tuple(float_point(rng) for _ in range(3))
        TriangleConfig.complete(v, tuple(join(p, float_point(rng)) for p in v))
        assert checks == ["vertex 1", "vertex 2", "vertex 3"]


# ---------------------------------------------------------------------------
# quadrilaterals


SQUARE = (P(0, 0), P(1, 0), P(1, 1), P(0, 1))
SQUARE_G123 = (
    Line(Fraction(1), Fraction(-2), Fraction(0)),
    Line(Fraction(1), Fraction(3), Fraction(-1)),
    Line(Fraction(1), Fraction(-2), Fraction(1)),
)


def random_quad_config(rng, matched=False):
    v = tuple(points_in_general_position(rng, 4))
    sides = [join(v[i], v[(i + 1) % 4]) for i in range(4)]
    g = []
    for i in range(3 if matched else 4):
        g.append(
            random_line_through(rng, v[i], avoid=(sides[(i - 1) % 4], sides[i]))
        )
    if matched:
        g.append(complete_fourth_line(v, *g))
        if g[3] == sides[2] or g[3] == sides[3]:
            raise NoSolution("completion hit a side")
    return QuadrilateralConfig.complete(v, tuple(g))


class TestQuadrilateral:
    def test_configs_need_their_own_vertex_count(self):
        rng = Random(331)
        tri, quad = random_triangle_config(rng), random_quad_config(rng)
        for own, other in ((tri, quad), (quad, tri)):
            cls, n = type(own), len(own.vertices)
            message = f"needs {n} vertices and {n} lines"
            with pytest.raises(DegenerateInput, match=message):
                cls(other.vertices, other.g, other.h)
            with pytest.raises(DegenerateInput, match=message):
                cls(own.vertices, own.g, own.h[:-1])
            kind = own.to_json()["kind"]
            with pytest.raises(DegenerateInput, match=message):
                cls.from_json({**other.to_json(), "kind": kind})
            with pytest.raises(DegenerateInput, match=message):
                cls.complete(other.vertices, other.g)

    def test_ell_pair_coincidence_follows_the_backend(self):
        # 0.1, 0.2, 0.3 is (1, 2, 3) up to rounding: equal at the float
        # backend's tolerance, unequal exactly
        near = EllPair(1, Line(1.0, 2.0, 3.0), Line(0.1, 0.2, 0.3))
        apart = EllPair(2, Line(1.0, 2.0, 3.0), Line(1.0, 2.0, 3.001))
        same = EllPair(3, Line(1, 2, 3), Line(-2, -4, -6))
        assert not near.coincides()
        assert near.coincides(float_backend())
        assert not apart.coincides(float_backend())
        assert same.coincides() and same.coincides(float_backend())

    def test_free_quad_triples_collinear_unconditionally(self):
        rng = Random(59)
        done = 0
        for _ in range(15):
            try:
                q = random_quad_config(rng)
                triples = free_quadrilateral_triples(q)
            except Exception:
                continue
            done += 1
            assert len(triples) == 8
            for triple in triples:
                assert collinear(*triple)
        assert done >= 10

    def test_complete_fourth_line_square_frozen(self):
        g4 = complete_fourth_line(SQUARE, *SQUARE_G123)
        assert g4 == Line(Fraction(3), Fraction(4), Fraction(-4))

    def test_complete_fourth_line_routes_agree(self):
        rng = Random(61)
        done = 0
        for _ in range(15):
            v = tuple(points_in_general_position(rng, 4))
            sides = [join(v[i], v[(i + 1) % 4]) for i in range(4)]
            try:
                g123 = [
                    random_line_through(rng, v[i], avoid=(sides[(i - 1) % 4], sides[i]))
                    for i in range(3)
                ]
                by_diagonal = complete_fourth_line(v, *g123)
                by_crossing = fourth_line_by_crossing(v, *g123)
            except Exception:
                continue
            done += 1
            assert by_diagonal == by_crossing
        assert done >= 10

    def test_matched_quad_passes_everything(self):
        rng = Random(67)
        done = 0
        for _ in range(15):
            try:
                q = random_quad_config(rng, matched=True)
                report = quad_coincidence_equivalence(q)
            except Exception:
                continue
            done += 1
            assert report.all_true(), report.booleans
            assert quad_zeta(q) == 1
            assert quad_diag_product(q) == 1
            for pair in ell_pairs(q):
                assert pair.coincides()
        assert done >= 8

    def test_unmatched_quad_fails_everything(self):
        rng = Random(71)
        done = 0
        for _ in range(15):
            try:
                q = random_quad_config(rng)
                if quad_diag_product(q) == 1:
                    continue
                report = quad_coincidence_equivalence(q)
            except Exception:
                continue
            done += 1
            assert not any(report.booleans.values()), report.booleans
        assert done >= 8

    def test_sides_are_joined_once(self, monkeypatch):
        # join is imported by name, so count it in every module holding it
        calls = []
        original = join

        def counting(p, q):
            calls.append((p, q))
            return original(p, q)

        for name, module in list(sys.modules.items()):
            holds = getattr(module, "join", None) is original
            if name.startswith("harmonica") and holds:
                monkeypatch.setattr(module, "join", counting)
        per_trial = []
        for seed in range(5):
            calls.clear()
            assert run_trial("quad-equivalence", seed)[0]
            per_trial.append(len(calls))
        # the forcer 10 (6 vertex pairs, 4 drawn lines), its fourth
        # cevian 4, complete 4 (whose sides the config keeps), the ell
        # pairs 8 and the diagonal product 4; quad_zeta and the diagonal
        # points reuse the kept sides
        assert per_trial == [30] * 5

        rng = Random(79)
        for config in (random_triangle_config(rng), random_quad_config(rng)):
            # JSON, == and repr see only the three fields
            rebuilt = type(config)(config.vertices, config.g, config.h)
            assert rebuilt == config and repr(rebuilt) == repr(config)
            assert rebuilt.to_json() == config.to_json()
            assert "sides" not in repr(config)
            calls.clear()
            v, n = config.vertices, len(config.vertices)
            for i in range(n):
                # a triangle numbers its sides by the opposite vertex
                a, b = (i + 1, i + 2) if n == 3 else (i, i + 1)
                assert config.side(i).triple == original(v[a % n], v[b % n]).triple
            assert calls == []
        # config is the quadrilateral now
        config.diagonal_point_1, config.diagonal_point_2, quad_zeta(config)
        assert calls == []

    def test_crossings_are_met_once(self, monkeypatch):
        calls = []
        original = pencils.meet

        def counting(l, m):
            calls.append((l, m))
            return original(l, m)

        monkeypatch.setattr(pencils, "meet", counting)
        for seed in range(200):
            assert run_trial("quad-equivalence", seed)[0]
        # per trial: the forcer's fourth cevian 3, ell_pairs 10 (the two
        # diagonal points and the middle point of each free triple, whose
        # third points it does not read) and quad_zeta's 8 feet
        assert len(calls) == 21 * 200

    def test_diag_product_matches_quad_wrapper(self):
        rng = Random(73)
        for _ in range(10):
            try:
                q = random_quad_config(rng)
                assert quad_diag_product(q) == diagonal_ratio_product(
                    q.vertices, q.g
                )
            except Exception:
                continue


# ---------------------------------------------------------------------------
# equal cross-ratio corollaries: six-point lists, coincidence lines,
# quantitative Desargues


def projected_quadruple(rng, a_points, center, target_line):
    bs = []
    for p in a_points:
        ray = join(center, p)
        b = meet(ray, target_line)
        bs.append(b)
    return bs


class TestCrossRatioCorollaries:
    def test_equal_cross_ratio_positive(self):
        rng = Random(79)
        done = 0
        for _ in range(15):
            try:
                carrier_a = random_line_through(rng, random_point(rng))
                carrier_b = random_line_through(rng, random_point(rng))
                if carrier_a == carrier_b:
                    continue
                center = random_point(rng)
                if incident(carrier_a, center) or incident(carrier_b, center):
                    continue
                a = [random_point_on(rng, carrier_a) for _ in range(4)]
                if len({p.triple for p in a}) < 4:
                    continue
                b = projected_quadruple(rng, a, center, carrier_b)
                report = crossratio_corollary_check(a, b)
            except Exception:
                continue
            done += 1
            assert report.all_true(), report.booleans
        assert done >= 8

    def test_unequal_cross_ratio_negative(self):
        rng = Random(83)
        done = 0
        for _ in range(15):
            try:
                carrier_a = random_line_through(rng, random_point(rng))
                carrier_b = random_line_through(rng, random_point(rng))
                if carrier_a == carrier_b:
                    continue
                a = [random_point_on(rng, carrier_a) for _ in range(4)]
                b = [random_point_on(rng, carrier_b) for _ in range(4)]
                if len({p.triple for p in a}) < 4 or len({p.triple for p in b}) < 4:
                    continue
                if cross_ratio_points(*a) == cross_ratio_points(*b):
                    continue
                report = crossratio_corollary_check(a, b)
            except Exception:
                continue
            done += 1
            assert not any(report.booleans.values()), report.booleans
        assert done >= 8

    def test_pappus_lines_equal_iff_equal_cross_ratio(self):
        rng = Random(89)
        pos = neg = 0
        for _ in range(30):
            try:
                carrier_a = random_line_through(rng, random_point(rng))
                carrier_b = random_line_through(rng, random_point(rng))
                if carrier_a == carrier_b:
                    continue
                a = [random_point_on(rng, carrier_a) for _ in range(4)]
                if len({p.triple for p in a}) < 4:
                    continue
                if pos <= neg:
                    center = random_point(rng)
                    if incident(carrier_a, center) or incident(carrier_b, center):
                        continue
                    b = projected_quadruple(rng, a, center, carrier_b)
                else:
                    b = [random_point_on(rng, carrier_b) for _ in range(4)]
                    if len({p.triple for p in b}) < 4:
                        continue
                    if cross_ratio_points(*a) == cross_ratio_points(*b):
                        continue
                lines = pappus_lines(a, b)
                equal_cr = cross_ratio_points(*a) == cross_ratio_points(*b)
            except Exception:
                continue
            if equal_cr:
                pos += 1
                assert all(l == lines[0] for l in lines)
            else:
                neg += 1
                assert len({l.triple for l in lines}) == 4
        assert pos >= 5 and neg >= 5

    def test_desargues_positive_for_perspective_triangles(self):
        rng = Random(97)
        done = 0
        for _ in range(15):
            try:
                o = random_point(rng)
                t1 = points_in_general_position(rng, 3)
                if any(p == o for p in t1):
                    continue
                t2 = []
                for p in t1:
                    ray = join(o, p)
                    q = random_point_on(rng, ray, avoid=(o, p))
                    t2.append(q)
                if collinear(*t2):
                    continue
                report = desargues_quantitative(t1, t2)
            except Exception:
                continue
            done += 1
            assert report.all_true(), report.booleans
        assert done >= 8

    def test_desargues_negative_all_or_nothing(self):
        rng = Random(101)
        done = 0
        for _ in range(15):
            try:
                t1 = points_in_general_position(rng, 3)
                t2 = points_in_general_position(rng, 3)
                if any(p == q for p in t1 for q in t2):
                    continue
                connectors = [join(t1[i], t2[i]) for i in range(3)]
                if concurrent(*connectors):
                    continue
                report = desargues_quantitative(t1, t2)
            except Exception:
                continue
            done += 1
            assert not any(report.booleans.values()), report.booleans
        assert done >= 8


def test_exact_reports_compute_no_float_scale(monkeypatch):
    # the exact backend decides at == 0, so neither report needs the
    # float backend's determinant scale
    v = (P(0, 0), P(4, 0), P(0, 4))
    t = TriangleConfig.complete(v, tuple(join(p, P(1, 1)) for p in v))
    t2 = (P(-1, -1), P(7, -1), P(-1, 7))  # v seen from (1, 1)

    def no_scale(*triples):
        raise AssertionError("the exact lane computed a float scale")

    monkeypatch.setattr(core, "_det3_scale", no_scale)
    assert triangle_concurrency_transfer(t).all_true()
    assert desargues_quantitative(v, t2).all_true()
