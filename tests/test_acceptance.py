"""End-to-end acceptance runs for the whole engine.

Every criterion prints exactly one PASS or FAIL line (run with
``pytest -v -s tests/test_acceptance.py`` to watch them) and enforces
its time budget where one is stated.  Seeds are fixed, so the runs are
byte-reproducible; a failing trial's seed regenerates its instance
through harmonica.generate.
"""

import io
import json
import time
from contextlib import contextmanager, redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

from harmonica.bisectors import (
    EuclideanPoint,
    bisector_gon,
    steiner_add_11_check,
    triangle_bisector_concurrencies,
)
from harmonica.cli import main as cli_main
from harmonica.core import (
    GeometryError,
    Line,
    Point,
    all_collinear,
    cross_ratio_lines,
    cross_ratio_points,
    float_backend,
    harmonic_conjugate,
    incident,
    is_harmonic_pencil,
    join,
    meet,
)
from harmonica.dsl import format_scene, parse
from harmonica.generate import GenSpec, gen_hypothesis_forcing
from harmonica.pencils import (
    HarmonicPencil,
    QuadrilateralConfig,
    TriangleConfig,
    ceva_product_triangle,
    complete_fourth_line,
    crossratio_corollary_check,
    desargues_quantitative,
    free_triangle_lines,
    pappus_lines,
    quad_coincidence_equivalence,
    triangle_concurrency_transfer,
    two_pencils_points,
)
from harmonica.reduction import (
    CevaGon,
    DegenerateStep,
    MenelaosGon,
    ceva_product,
    duality_bridge,
    is_pseudo_collinear,
    is_pseudo_concurrent,
    menelaos_product,
    reduce_step,
)
from harmonica.registry import run_trial
from harmonica.render import render_scene

from helpers import (
    distinct_points,
    apply_matrix,
    fourth_line_by_crossing,
    points_in_general_position,
    random_line_through,
    random_matrix,
    random_point,
    random_point_on,
)

ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def criterion(number: int, label: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed >= budget:
            raise AssertionError(
                f"criterion {number} took {elapsed:.1f}s, budget {budget:.0f}s"
            )
    except BaseException:
        print(f"FAIL criterion {number:2d}: {label}")
        raise
    print(f"PASS criterion {number:2d}: {label} ({elapsed:.2f}s)")


def _retrying(build, cap=2000):
    """Resample a random construction past its measure-zero degeneracies."""
    for _ in range(cap):
        try:
            return build()
        except GeometryError:
            continue
    raise AssertionError("random construction kept degenerating")


def test_criterion_01_harmonic_kernel():
    with criterion(1, "harmonic kernel, 1000 exact seeded trials", budget=5.0):
        rng = Random(14159)
        for _ in range(1000):
            p, q = distinct_points(rng, 2, bound=7)
            carrier = join(p, q)
            a, b = p, q
            x = random_point_on(rng, carrier, avoid=(a, b), bound=7)
            y = harmonic_conjugate(a, b, x)

            # cross-ratio is exactly -1 and conjugation is an involution
            assert cross_ratio_points(a, b, x, y) == -1
            assert harmonic_conjugate(a, b, y) == x

            # invariance under a random projectivity
            m = random_matrix(rng, 4)
            images = [apply_matrix(m, t) for t in (a, b, x, y)]
            assert cross_ratio_points(*images) == -1

            # the pencil over any outside vertex carries the same ratio
            v = random_point(rng, 7)
            while incident(carrier, v):
                v = random_point(rng, 7)
            lines = tuple(join(v, t) for t in (a, b, x, y))
            assert cross_ratio_lines(v, *lines) == -1
            assert is_harmonic_pencil(v, *lines)

            # and any transversal cuts it back out unchanged
            def fresh_transversal():
                t = join(*distinct_points(rng, 2, bound=7))
                if incident(t, v) or any(t == l for l in lines):
                    raise GeometryError("transversal through the vertex")
                return t

            t = _retrying(fresh_transversal)
            cut = [meet(l, t) for l in lines]
            assert cross_ratio_points(*cut) == -1


def test_criterion_02_two_pencils():
    with criterion(
        2, "two-pencils: 500 positives, 500 exact negatives", budget=10.0
    ):
        for i in range(500):
            passed, detail = run_trial("two-pencils", 20000 + i)
            assert passed, (i, detail)

        # negatives: same linkage except the second pencil's g line is
        # re-aimed at a different transversal point, which provably
        # knocks the g-cross off the carrier of the other three
        rng = Random(22222)
        for _ in range(500):

            def build():
                t = join(*distinct_points(rng, 2, bound=7))
                v1, v2 = distinct_points(rng, 2, bound=7)
                if incident(t, v1) or incident(t, v2):
                    raise GeometryError("vertex on the transversal")
                cross = meet(t, join(v1, v2))
                avoid = [cross]
                pts = []
                for _ in range(4):
                    pt = random_point_on(rng, t, avoid=tuple(avoid), bound=7)
                    avoid.append(pt)
                    pts.append(pt)
                p1, p2, p3, alt = pts
                pen1 = HarmonicPencil.complete(
                    v1, join(v1, p1), join(v1, p2), join(v1, p3)
                )
                pen2 = HarmonicPencil.complete(
                    v2, join(v2, p1), join(v2, p2), join(v2, alt)
                )
                return two_pencils_points(pen1, pen2)

            points = _retrying(build)
            assert not all_collinear(points)


def test_criterion_03_triangle_theorems():
    with criterion(
        3, "triangle: free lines, transfer equivalence, cevian product"
    ):
        for i in range(500):
            config = gen_hypothesis_forcing(
                "free-triangle", GenSpec(seed=30000 + i)
            )["config"]
            A, g, h = config.vertices, config.g, config.h
            ft = free_triangle_lines(config)
            for v in range(3):
                j, k = (v + 1) % 3, (v + 2) % 3
                assert all_collinear(
                    (A[v], meet(g[j], g[k]), meet(h[j], h[k]))
                )
                assert all_collinear(
                    (A[v], meet(g[j], h[k]), meet(g[k], h[j]))
                )
                assert is_harmonic_pencil(
                    A[v], config.side(j), config.side(k), ft.u[v], ft.v[v]
                )

        for i in range(500):
            passed, detail = run_trial("triangle-transfer", 31000 + i)
            assert passed, (i, detail)

        rng = Random(33333)
        for _ in range(500):

            def build():
                A = points_in_general_position(rng, 3, bound=7)
                sides = [join(A[(i + 1) % 3], A[(i + 2) % 3]) for i in range(3)]
                g = tuple(
                    random_line_through(
                        rng,
                        A[i],
                        avoid=(sides[(i + 1) % 3], sides[(i + 2) % 3]),
                        bound=7,
                    )
                    for i in range(3)
                )
                config = TriangleConfig.complete(tuple(A), g)
                return config, triangle_concurrency_transfer(config)

            config, report = _retrying(build)
            # equivalence never mixes: all booleans stand or fall together
            assert len(set(report.booleans.values())) == 1
            product = ceva_product_triangle(config)
            assert (product == 1) == report.booleans["g1_g2_g3"]


def test_criterion_04_quadrilateral_theorem():
    with criterion(
        4, "quadrilateral: 300 solved positives, 300 negatives", budget=30.0
    ):
        for i in range(300):
            config = gen_hypothesis_forcing(
                "quad-equivalence", GenSpec(seed=40000 + i)
            )["config"]
            report = quad_coincidence_equivalence(config)
            assert report.all_true(), (i, report.booleans)
            # uniqueness: both solving routes reproduce the shipped g4
            again = complete_fourth_line(config.vertices, *config.g[:3])
            assert again == config.g[3]
            crossing = fourth_line_by_crossing(config.vertices, *config.g[:3])
            assert crossing == config.g[3]

        rng = Random(44444)
        for _ in range(300):

            def build():
                A = points_in_general_position(rng, 4, bound=7)
                g = []
                for i in range(4):
                    adjacent = (
                        join(A[i], A[(i + 1) % 4]),
                        join(A[(i - 1) % 4], A[i]),
                    )
                    g.append(
                        random_line_through(rng, A[i], avoid=adjacent, bound=7)
                    )
                q = QuadrilateralConfig.complete(tuple(A), tuple(g))
                report = quad_coincidence_equivalence(q)
                if report.all_true():
                    # an accidental solution is a positive, not a negative
                    raise GeometryError("resample")
                return report

            report = _retrying(build)
            vals = report.booleans
            # the criterion and both products stand or fall together
            assert len(set(vals.values())) == 1
            assert not any(vals.values())


def test_criterion_05_projective_corollaries():
    with criterion(
        5, "cross-ratio, pappus lines, desargues: 300 + 300 each"
    ):
        for tid, base in (
            ("crossratio", 50000),
            ("pappus4", 51000),
            ("desargues", 52000),
        ):
            for i in range(300):
                passed, detail = run_trial(tid, base + i)
                assert passed, (tid, i, detail)

        rng = Random(55555)
        done = 0
        while done < 300:

            def build():
                a_carrier = join(*distinct_points(rng, 2, bound=7))
                b_carrier = join(*distinct_points(rng, 2, bound=7))
                if a_carrier == b_carrier:
                    raise GeometryError("carriers coincide")
                shared = meet(a_carrier, b_carrier)
                quadruples = []
                for carrier in (a_carrier, b_carrier):
                    avoid = [shared]
                    for _ in range(4):
                        pt = random_point_on(
                            rng, carrier, avoid=tuple(avoid), bound=7
                        )
                        avoid.append(pt)
                    quadruples.append(tuple(avoid[1:]))
                a, b = quadruples
                if cross_ratio_points(*a) == cross_ratio_points(*b):
                    raise GeometryError("accidental cross-ratio match")
                return a, b, crossratio_corollary_check(a, b), pappus_lines(a, b)

            a, b, report, lines = _retrying(build)
            assert set(report.booleans.values()) == {False}
            for s in range(4):
                for t in range(s + 1, 4):
                    assert lines[s] != lines[t]
            done += 1

        done = 0
        while done < 300:

            def build():
                t1 = tuple(points_in_general_position(rng, 3, bound=7))
                t2 = tuple(points_in_general_position(rng, 3, bound=7))
                return desargues_quantitative(t1, t2)

            report = _retrying(build)
            assert len(set(report.booleans.values())) == 1
            done += 1


def _random_ceva_gon(rng: Random, n: int) -> CevaGon:
    def build():
        A = points_in_general_position(rng, n, bound=7)
        cevians = []
        for i in range(n):
            avoid = tuple(join(A[i], A[j]) for j in range(n) if j != i)
            cevians.append(random_line_through(rng, A[i], avoid=avoid, bound=7))
        return CevaGon(tuple(A), tuple(cevians))

    return _retrying(build)


def _random_menelaos_gon(rng: Random, n: int) -> MenelaosGon:
    def build():
        A = points_in_general_position(rng, n, bound=7)
        cuts = []
        for i in range(n):
            side = join(A[i], A[(i + 1) % n])
            cuts.append(
                random_point_on(rng, side, avoid=(A[i], A[(i + 1) % n]), bound=7)
            )
        return MenelaosGon(tuple(A), tuple(cuts))

    return _retrying(build)


def test_criterion_06_gon_reductions():
    with criterion(
        6, "n-gon reductions: order agreement and product criteria", budget=120.0
    ):
        rng = Random(66666)
        for n in (4, 5, 6):
            for i in range(15):
                gon = gen_hypothesis_forcing(
                    "ceva-ngon", GenSpec(seed=60000 + 100 * n + i), n=n
                )["gon"]
                verdict, _ = is_pseudo_concurrent(gon, order="exhaustive")
                assert verdict is True
                assert ceva_product(gon) == 1
                mgon = gen_hypothesis_forcing(
                    "menelaos-ngon", GenSpec(seed=61000 + 100 * n + i), n=n
                )["gon"]
                verdict, _ = is_pseudo_collinear(mgon, order="exhaustive")
                assert verdict is True
                assert menelaos_product(mgon) == (-1) ** n
            for _ in range(15):
                gon = _random_ceva_gon(rng, n)
                verdict, _ = is_pseudo_concurrent(gon, order="exhaustive")
                assert (ceva_product(gon) == 1) == verdict
                mgon = _random_menelaos_gon(rng, n)
                verdict, _ = is_pseudo_collinear(mgon, order="exhaustive")
                assert (menelaos_product(mgon) == (-1) ** n) == verdict

        # products are step invariants (up to the menelaos sign flip)
        for _ in range(40):
            n = rng.choice((4, 5, 6))
            gon = _random_ceva_gon(rng, n)
            before = ceva_product(gon)
            stepped = 0
            for i in range(1, n + 1):
                try:
                    reduced = reduce_step(gon, i)
                    after = ceva_product(reduced)
                except GeometryError:
                    continue
                assert after == before, (n, i)
                stepped += 1
            assert stepped >= 1
            mgon = _random_menelaos_gon(rng, n)
            before = menelaos_product(mgon)
            stepped = 0
            for i in range(1, n + 1):
                try:
                    reduced = reduce_step(mgon, i)
                    after = menelaos_product(reduced)
                except GeometryError:
                    continue
                assert after == -before, (n, i)
                stepped += 1
            assert stepped >= 1

        # n = 7, 8: these gons are checked by sampling rather than by
        # exhaustive enumeration (which stops at n = 7); one hundred
        # sampled orders must still agree with the first
        for n in (7, 8):
            gons = [
                gen_hypothesis_forcing(
                    "ceva-ngon", GenSpec(seed=62000 + n), n=n
                )["gon"],
                _random_ceva_gon(rng, n),
            ]
            mgons = [
                gen_hypothesis_forcing(
                    "menelaos-ngon", GenSpec(seed=63000 + n), n=n
                )["gon"],
                _random_menelaos_gon(rng, n),
            ]
            for gon in gons:
                base, _ = is_pseudo_concurrent(gon)
                agreed = 0
                for k in range(100):
                    try:
                        verdict, _ = is_pseudo_concurrent(gon, order=("seed", k))
                    except DegenerateStep:
                        continue
                    assert verdict == base
                    agreed += 1
                assert agreed >= 90
            for mgon in mgons:
                base, _ = is_pseudo_collinear(mgon)
                agreed = 0
                for k in range(100):
                    try:
                        verdict, _ = is_pseudo_collinear(mgon, order=("seed", k))
                    except DegenerateStep:
                        continue
                    assert verdict == base
                    agreed += 1
                assert agreed >= 90


def test_criterion_07_duality():
    with criterion(7, "duality: 200 exact verdict agreements"):
        for i in range(100):
            n = 4 + (i % 3)
            gon = gen_hypothesis_forcing(
                "duality", GenSpec(seed=70000 + i), n=n
            )["gon"]
            primal, _ = is_pseudo_collinear(gon)
            dual, _ = is_pseudo_concurrent(duality_bridge(gon))
            assert primal == dual
        done = 0
        seed = 71000
        while done < 100:
            n = 4 + (done % 3)
            gon = gen_hypothesis_forcing(
                "menelaos-ngon", GenSpec(seed=seed), n=n
            )["gon"]
            seed += 1
            try:
                dual, _ = is_pseudo_concurrent(duality_bridge(gon))
            except GeometryError:
                continue  # dual reduction degenerated, resample
            primal, _ = is_pseudo_collinear(gon)
            assert primal is True and dual is True
            done += 1


def test_criterion_08_bisectors():
    with criterion(8, "float bisectors: gons, centers, quintuples"):
        for i in range(200):
            n = 3 + (i % 5)
            config = gen_hypothesis_forcing(
                "bisectors-ngon", GenSpec(seed=80000 + i), n=n
            )
            gon = bisector_gon(config["points"])
            verdict, _ = is_pseudo_concurrent(gon, "first", float_backend())
            assert verdict, (i, n)
        for i in range(200):
            n = 3 + (i % 5)
            config = gen_hypothesis_forcing(
                "bisectors-ngon", GenSpec(seed=81000 + i), n=n
            )
            gon = bisector_gon(config["points"], config["choice"])
            verdict, _ = is_pseudo_concurrent(gon, "first", float_backend())
            assert verdict, (i, n, config["choice"])
        for i in range(200):
            points = gen_hypothesis_forcing(
                "bisectors-triangle", GenSpec(seed=82000 + i)
            )["points"]
            report = triangle_bisector_concurrencies(*points)
            assert report.all_true(), (i, report.residuals)
        for i in range(200):
            points = gen_hypothesis_forcing(
                "steiner-add-11", GenSpec(seed=83000 + i)
            )["points"]
            report = steiner_add_11_check(points)
            assert report.all_true(), (i, report.residuals)


def test_criterion_09_345_incenter():
    with criterion(9, "3-4-5 right triangle incenter at (1, 1)"):
        x, y = triangle_bisector_concurrencies(
            EuclideanPoint(0.0, 0.0),
            EuclideanPoint(3.0, 0.0),
            EuclideanPoint(0.0, 4.0),
        ).witness["incenter"]
        assert abs(x - 1.0) <= 1e-12
        assert abs(y - 1.0) <= 1e-12


def test_criterion_10_scene_language():
    with criterion(10, "scenes: round-trips, shipped figures, determinism"):
        from test_dsl import _AstBuilder

        rng = Random(101010)
        for _ in range(1000):
            ast = _AstBuilder(rng).build()
            text = format_scene(ast)
            assert parse(text) == ast
            assert format_scene(parse(text)) == text

        scene_paths = sorted((ROOT / "scenes").glob("*.hgeo"))
        assert len(scene_paths) == 8
        sink = io.StringIO()
        for path in scene_paths:
            with redirect_stdout(sink):
                code = cli_main(["check", str(path)])
            assert code == 0, path.name

        for path in scene_paths:
            ast = parse(path.read_text())
            for fmt in ("svg", "tikz"):
                assert render_scene(ast, fmt=fmt) == render_scene(ast, fmt=fmt)


def test_criterion_11_order_sensitivity_witness():
    with criterion(11, "shipped vertex-order sensitivity witness"):
        data = json.loads(
            (ROOT / "data" / "order_sensitivity_witness.json").read_text()
        )
        vertices = [Point(*triple) for triple in data["vertices"]]
        cevians = [Line(*triple) for triple in data["cevians"]]
        verdicts = []
        for entry in data["orders"]:
            perm = [i - 1 for i in entry["vertex_order"]]
            gon = CevaGon(
                tuple(vertices[i] for i in perm),
                tuple(cevians[i] for i in perm),
            )
            assert ceva_product(gon) == Fraction(entry["ceva_product"])
            verdict, _ = is_pseudo_concurrent(gon, order="exhaustive")
            assert verdict == entry["pseudo_concurrent"]
            verdicts.append(verdict)
        # the same lines through the same points, traversed differently
        assert verdicts == [True, False]
