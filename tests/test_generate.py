"""Seeded configuration generators: determinism, nondegeneracy sweeps,
harmonic completion, and the hypothesis-forcing constructions."""

import json
from fractions import Fraction
from random import Random

import pytest

from harmonica import generate
from harmonica.bisectors import (
    EuclideanPoint,
    bisector_gon,
    steiner_add_11_check,
    triangle_bisector_concurrencies,
)
from harmonica.cli import main
from harmonica.core import (
    DegenerateInput,
    Line,
    Point,
    all_collinear,
    collinear,
    cross_ratio_points,
    float_backend,
    incident,
    join,
)
from harmonica.generate import (
    FORCED_THEOREMS,
    GenSpec,
    RetryLimitExceeded,
    UnknownTheorem,
    config_to_json,
    gen_hypothesis_forcing,
    sample_general_points,
    sample_point,
    sample_point_on,
)
from harmonica.pencils import (
    QuadrilateralConfig,
    TriangleConfig,
    quad_diag_product,
    quad_zeta,
    two_pencils_points,
)
from harmonica.reduction import (
    CevaGon,
    MenelaosGon,
    ceva_product,
    is_pseudo_collinear,
    is_pseudo_concurrent,
    menelaos_product,
)


def frozen_json(value) -> str:
    return json.dumps(config_to_json(value), sort_keys=True)


class TestGenSpec:
    def test_seed_range(self):
        GenSpec(seed=0)
        GenSpec(seed=2**64 - 1)
        with pytest.raises(ValueError):
            GenSpec(seed=-1)
        with pytest.raises(ValueError):
            GenSpec(seed=2**64)

    def test_positive_knobs(self):
        with pytest.raises(ValueError):
            GenSpec(seed=1, bound=0)


def general_points(spec: GenSpec, n: int):
    return sample_general_points(spec.rng(), spec.bound, n)


class TestBasicGenerators:
    def test_point_determinism(self):
        a = sample_point(GenSpec(seed=424242).rng(), 10)
        b = sample_point(GenSpec(seed=424242).rng(), 10)
        assert a == b
        assert frozen_json(a) == frozen_json(b)

    def test_ngon_determinism(self):
        a = general_points(GenSpec(seed=7), 6)
        b = general_points(GenSpec(seed=7), 6)
        assert frozen_json(a) == frozen_json(b)
        assert frozen_json(a) != frozen_json(general_points(GenSpec(seed=8), 6))

    def test_validator_sweep(self):
        for seed in range(200):
            quad = general_points(GenSpec(seed=seed), 4)
            assert len(quad) == 4
            for i in range(4):
                for j in range(i + 1, 4):
                    assert quad[i] != quad[j]
                    for k in range(j + 1, 4):
                        assert not collinear(quad[i], quad[j], quad[k])

    def test_points_are_rational_affine(self):
        p = sample_point(GenSpec(seed=3).rng(), 10)
        assert isinstance(p.x, (int, Fraction))
        assert p.w != 0

    def test_tiny_bound_terminates_or_errors_cleanly(self):
        for seed in range(20):
            spec = GenSpec(seed=seed, bound=1)
            try:
                tri = general_points(spec, 3)
            except RetryLimitExceeded:
                continue
            assert not collinear(*tri)

    def test_ngon_needs_three_vertices(self):
        with pytest.raises(ValueError, match="at least 3"):
            gen_hypothesis_forcing("ceva-ngon", GenSpec(seed=1), n=2)

    def test_sample_point_on_lands_on_line(self):
        spec = GenSpec(seed=11)
        rng = spec.rng()
        l = Line(Fraction(2), Fraction(-3), Fraction(5))
        avoid = [Point(Fraction(-1), Fraction(1), 1)]
        for _ in range(20):
            p = sample_point_on(rng, spec.bound, l, avoid)
            assert incident(l, p)
            assert p != avoid[0]


class TestSamplers:
    def test_sample_rational_draws_reduced_fractions(self):
        # the same two randint calls per draw as Fraction(num, den)
        rng, ref = Random(5), Random(5)
        for bound in (1, 10, 1000):
            for _ in range(500):
                got = generate.sample_rational(rng, bound)
                num, den = ref.randint(-bound, bound), ref.randint(1, bound)
                assert type(got) is Fraction and got == Fraction(num, den)
        assert rng.random() == ref.random()

    def test_fraction_cache_stays_bounded(self, capsys):
        # a bound far past the cache's size draws many more distinct
        # pairs than it holds
        info = generate._reduced.cache_info()
        misses = info.misses
        for tid in FORCED_THEOREMS:
            for seed in range(20):
                argv = ["gen", tid, "--seed", str(seed), "--bound", "1000"]
                assert main(argv) == 0
        capsys.readouterr()
        info = generate._reduced.cache_info()
        assert info.maxsize is not None and info.maxsize <= 512
        assert info.misses - misses > info.maxsize
        assert info.currsize <= info.maxsize

    def test_sample_point_is_the_constructed_point(self):
        # the integer form read off the draws is the one the constructor
        # computes, over bounds with and without shared denominators
        for bound in (1, 2, 10, 97, 1000):
            for seed in range(40):
                rng, ref = Random(seed), Random(seed)
                for _ in range(50):
                    got = generate.sample_point(rng, bound)
                    x = generate.sample_rational(ref, bound)
                    y = generate.sample_rational(ref, bound)
                    want = Point(x, y, 1)
                    assert type(got) is Point
                    assert [(type(v), v) for v in got.triple] == [
                        (type(v), v) for v in want.triple
                    ]
                    assert got._form == want._form
                assert rng.random() == ref.random()

    @pytest.mark.parametrize(
        "base",
        [
            ((3, -2, 1), (0, 5, -4)),
            ((Fraction(1, 2), 0, Fraction(-3, 4)), (2, Fraction(5, 3), 0)),
            ((0.5, -1.25, 3.0), (2.0, 0.0, -0.75)),
        ],
        ids=["int", "fraction", "float"],
    )
    def test_sample_point_on_is_the_combination_of_two_points(self, monkeypatch, base):
        a, b = base
        l = join(Point(*a), Point(*b))
        monkeypatch.setattr(generate, "_two_points_of", lambda line: base)
        rng, ref = Random(9), Random(9)
        for _ in range(200):
            p = sample_point_on(rng, 10, l)
            lam = generate.sample_rational(ref, 10)
            mu = generate.sample_rational(ref, 10)
            expected = tuple(lam * x + mu * y for x, y in zip(a, b))
            if isinstance(a[0], float):
                assert p.triple == pytest.approx(expected, rel=1e-12, abs=1e-12)
            else:
                assert [(type(v), v) for v in p.triple] == [
                    (type(v), v) for v in expected
                ]


class TestHarmonicLinesAt:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_each_vertex_pair_is_joined_once(self, monkeypatch, n):
        spec = GenSpec(seed=40 + n)
        vertices = general_points(spec, n)
        index = {id(v): i for i, v in enumerate(vertices)}
        pairs = []

        def counting_join(a, b):
            if id(a) in index and id(b) in index:
                pairs.append(frozenset((index[id(a)], index[id(b)])))
            return join(a, b)

        monkeypatch.setattr(generate, "join", counting_join)
        lines = generate._harmonic_lines_at(spec.rng(), spec, vertices)
        assert len(pairs) == n * (n - 1) // 2
        assert len(set(pairs)) == len(pairs)
        assert len(lines) == n

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_lines_match_joining_from_each_end(self, n):
        # the draws and lines of the former body, which joined each
        # vertex with every other one
        spec = GenSpec(seed=50 + n)
        vertices = general_points(spec, n)
        rng = spec.rng()
        expected = tuple(
            generate.sample_line_through(
                rng,
                spec.bound,
                v,
                [join(v, w) for w in vertices if w is not v],
            )
            for v in vertices
        )
        lines = generate._harmonic_lines_at(spec.rng(), spec, vertices)
        assert [g.triple for g in lines] == [g.triple for g in expected]
        for v, g in zip(vertices, expected):
            assert incident(g, v)
            assert all(g != join(v, w) for w in vertices if w is not v)


class TestHarmonicCompletion:
    def test_triangle_from_g(self):
        forced = gen_hypothesis_forcing("free-triangle", GenSpec(seed=22))
        config = forced["config"]
        rebuilt = TriangleConfig.complete(config.vertices, config.g)
        assert isinstance(rebuilt, TriangleConfig)
        assert rebuilt.h == config.h

    def test_quadrilateral_from_g(self):
        forced = gen_hypothesis_forcing("free-quad", GenSpec(seed=24))
        config = forced["config"]
        rebuilt = QuadrilateralConfig.complete(config.vertices, config.g)
        assert isinstance(rebuilt, QuadrilateralConfig)
        assert rebuilt.h == config.h

    def test_side_line_rejected(self):
        # g_1 replaced by a side through vertex 1, numbered as each kind
        # numbers its sides
        for theorem, cls, side in (
            ("free-triangle", TriangleConfig, 1),
            ("free-quad", QuadrilateralConfig, 0),
        ):
            config = gen_hypothesis_forcing(theorem, GenSpec(seed=25))["config"]
            bad = (config.side(side),) + config.g[1:]
            with pytest.raises(DegenerateInput):
                cls.complete(config.vertices, bad)


class TestHypothesisForcing:
    def test_unknown_theorem(self):
        with pytest.raises(UnknownTheorem, match="known ids: two-pencils, cor2"):
            gen_hypothesis_forcing("no-such-thing", GenSpec(seed=1))

    def test_n_rejected_where_it_does_not_apply(self):
        with pytest.raises(ValueError):
            gen_hypothesis_forcing("two-pencils", GenSpec(seed=1), n=5)

    def test_determinism_across_all_ids(self):
        for theorem in FORCED_THEOREMS:
            a = gen_hypothesis_forcing(theorem, GenSpec(seed=91))
            b = gen_hypothesis_forcing(theorem, GenSpec(seed=91))
            assert frozen_json(a) == frozen_json(b), theorem

    def test_two_pencils_meets_on_transversal(self):
        for seed in range(10):
            forced = gen_hypothesis_forcing("two-pencils", GenSpec(seed=seed))
            t = forced["transversal"]
            meets = two_pencils_points(*forced["pencils"])
            for p in meets:
                assert incident(t, p)

    @pytest.mark.parametrize("bound", [1, 2])
    def test_two_pencils_share_no_line_at_one_slot(self, bound):
        # small bounds are where draws violating the hypothesis occur
        for seed in range(40):
            spec = GenSpec(seed=seed, bound=bound)
            p1, p2 = gen_hypothesis_forcing("two-pencils", spec)["pencils"]
            assert p1.vertex != p2.vertex
            for l, m in zip(p1.lines, p2.lines):
                assert l != m, (bound, seed)

    def test_cor2_shares_first_line(self):
        forced = gen_hypothesis_forcing("cor2", GenSpec(seed=31))
        p1, p2 = forced["pencils"]
        assert p1.a1 == p2.a1 == join(p1.vertex, p2.vertex)

    def test_triangle_transfer_concurrent(self):
        forced = gen_hypothesis_forcing("triangle-transfer", GenSpec(seed=32))
        config, center = forced["config"], forced["center"]
        for g in config.g:
            assert incident(g, center)

    def test_quad_equivalence_criterion_holds(self):
        for seed in range(5):
            forced = gen_hypothesis_forcing("quad-equivalence", GenSpec(seed=seed))
            config = forced["config"]
            assert quad_zeta(config) == 1
            assert quad_diag_product(config) == 1

    def test_crossratio_matched(self):
        forced = gen_hypothesis_forcing("crossratio", GenSpec(seed=34))
        a, b = forced["first"], forced["second"]
        assert cross_ratio_points(*a) == cross_ratio_points(*b)
        assert all_collinear(a) and all_collinear(b)

    def test_pappus_matched(self):
        forced = gen_hypothesis_forcing("pappus4", GenSpec(seed=35))
        a, b = forced["first"], forced["second"]
        assert cross_ratio_points(*a) == cross_ratio_points(*b)

    def test_desargues_perspective_from_center(self):
        forced = gen_hypothesis_forcing("desargues", GenSpec(seed=36))
        t1, t2, center = forced["first"], forced["second"], forced["center"]
        for p, q in zip(t1, t2):
            assert incident(join(p, q), center)

    def test_ceva_ngon_concurrent_default_five(self):
        forced = gen_hypothesis_forcing("ceva-ngon", GenSpec(seed=37))
        gon, center = forced["gon"], forced["center"]
        assert isinstance(gon, CevaGon) and gon.n == 5
        for g in gon.cevians:
            assert incident(g, center)
        assert ceva_product(gon) == 1
        verdict, _ = is_pseudo_concurrent(gon)
        assert verdict

    def test_ceva_ngon_n_override(self):
        forced = gen_hypothesis_forcing("ceva-ngon", GenSpec(seed=38), n=6)
        assert forced["gon"].n == 6

    def test_ceva_quad_is_four(self):
        forced = gen_hypothesis_forcing("ceva-quad", GenSpec(seed=39))
        assert forced["gon"].n == 4

    def test_menelaos_ngon_on_transversal(self):
        forced = gen_hypothesis_forcing("menelaos-ngon", GenSpec(seed=40))
        gon, t = forced["gon"], forced["transversal"]
        assert isinstance(gon, MenelaosGon) and gon.n == 6
        for b in gon.side_points:
            assert incident(t, b)
        assert menelaos_product(gon) == (-1) ** 6
        verdict, _ = is_pseudo_collinear(gon)
        assert verdict

    def test_duality_gon(self):
        forced = gen_hypothesis_forcing("duality", GenSpec(seed=41))
        assert isinstance(forced["gon"], MenelaosGon)
        assert forced["gon"].n == 5

    def test_bisectors_triangle(self):
        forced = gen_hypothesis_forcing("bisectors-triangle", GenSpec(seed=42))
        points = forced["points"]
        assert len(points) == 3
        assert all(isinstance(p, EuclideanPoint) for p in points)
        assert triangle_bisector_concurrencies(*points).all_true()

    def test_steiner_quadrilateral(self):
        forced = gen_hypothesis_forcing("steiner-add-11", GenSpec(seed=43))
        assert steiner_add_11_check(forced["points"]).all_true()

    def test_bisectors_ngon_even_choice(self):
        for seed in range(6):
            forced = gen_hypothesis_forcing("bisectors-ngon", GenSpec(seed=seed))
            points, choice = forced["points"], forced["choice"]
            assert len(points) == len(choice) == 5
            assert sum(1 for c in choice if c == "external") % 2 == 0
            gon = bisector_gon(points, choice)
            assert is_pseudo_concurrent(gon, "first", float_backend())[0]

    def test_every_forced_config_serializes(self):
        for theorem in FORCED_THEOREMS:
            forced = gen_hypothesis_forcing(theorem, GenSpec(seed=90))
            text = frozen_json(forced)
            assert json.loads(text)["theorem"] == theorem
