"""Theorem registry: id -> generator + check, as data.

Each entry knows how to build a seeded positive instance (through the
hypothesis-forcing generators) and how to check the claimed conclusion
on it.  The verify command iterates this table, so adding a theorem
means adding an entry here, not touching the CLI.

Exact theorems can also be run under the float backend: the generated
rational instance is coerced coordinate-wise to floats and the check
runs with the tolerance backend.  The bisector theorems are float-only
by nature; asking for exact arithmetic on them is a usage error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .bisectors import (
    bisector_gon,
    steiner_add_11_check,
    triangle_bisector_concurrencies,
)
from .core import (
    EXACT,
    Backend,
    GeometryError,
    Line,
    Point,
    all_collinear,
    coincide,
    cross_ratio_points,
    float_backend,
    incident,
    is_harmonic_pencil,
    meet,
)
from .generate import DEFAULT_N, GenSpec, gen_hypothesis_forcing
from .pencils import (
    HarmonicPencil,
    QuadrilateralConfig,
    TriangleConfig,
    cor2_collinear_triples,
    crossratio_corollary_check,
    desargues_quantitative,
    free_quadrilateral_triples,
    free_triangle_lines,
    pappus_lines,
    quad_coincidence_equivalence,
    triangle_concurrency_transfer,
    two_pencils_points,
)
from .reduction import (
    CevaGon,
    MenelaosGon,
    ceva_product,
    duality_bridge,
    is_pseudo_collinear,
    is_pseudo_concurrent,
    menelaos_product,
)


class UnknownTheorem(GeometryError):
    """Requested id is not in the registry."""


# ---------------------------------------------------------------------------
# per-theorem conclusion checks; each takes the forced config


def _check_two_pencils(config, backend, order):
    p1, p2 = config["pencils"]
    points = two_pencils_points(p1, p2)
    ok = all_collinear(points, backend)
    return ok, {"four_points_collinear": ok}


def _check_cor2(config, backend, order):
    p1, p2 = config["pencils"]
    t1, t2 = cor2_collinear_triples(p1, p2, backend)
    b1, b2 = all_collinear(t1, backend), all_collinear(t2, backend)
    return b1 and b2, {"triple_1": b1, "triple_2": b2}


def _check_free_triangle(config, backend, order):
    t = config["config"]
    ft = free_triangle_lines(t)
    booleans = {}
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        booleans[f"u{i + 1}_carries_h_cross"] = incident(
            ft.u[i], meet(t.h[j], t.h[k]), backend
        )
        booleans[f"v{i + 1}_carries_swapped_cross"] = incident(
            ft.v[i], meet(t.g[k], t.h[j]), backend
        )
        booleans[f"pencil_{i + 1}_harmonic"] = is_harmonic_pencil(
            t.vertices[i], t.side(j), t.side(k), ft.u[i], ft.v[i], backend
        )
    return all(booleans.values()), booleans


def _check_triangle_transfer(config, backend, order):
    report = triangle_concurrency_transfer(config["config"], backend)
    return report.all_true(), report.to_json()


def _check_free_quad(config, backend, order):
    q = config["config"]
    triples = free_quadrilateral_triples(q)
    flags = [all_collinear(t, backend) for t in triples]
    return all(flags), {f"triple_{i + 1}": f for i, f in enumerate(flags)}


def _check_quad_equivalence(config, backend, order):
    report = quad_coincidence_equivalence(config["config"], backend)
    return report.all_true(), report.to_json()


def _check_crossratio(config, backend, order):
    report = crossratio_corollary_check(
        config["first"], config["second"], backend
    )
    return report.all_true(), report.to_json()


def _check_pappus4(config, backend, order):
    a, b = config["first"], config["second"]
    lines = pappus_lines(a, b, backend)
    same = all(coincide(lines[0], l, backend) for l in lines[1:])
    crs_equal = backend.eq(
        cross_ratio_points(*a, backend), cross_ratio_points(*b, backend)
    )
    return same and crs_equal, {
        "four_lines_coincide": same,
        "cross_ratios_equal": crs_equal,
    }


def _check_desargues(config, backend, order):
    report = desargues_quantitative(config["first"], config["second"], backend)
    return report.all_true(), report.to_json()


def _check_ceva(config, backend, order):
    gon = config["gon"]
    verdict, _ = is_pseudo_concurrent(gon, order, backend)
    product = ceva_product(gon, backend)
    product_one = backend.eq(product, 1)
    return verdict and product_one, {
        "pseudo_concurrent": verdict,
        "product_one": product_one,
    }


def _check_menelaos(config, backend, order):
    gon = config["gon"]
    verdict, _ = is_pseudo_collinear(gon, order, backend)
    product = menelaos_product(gon, backend)
    product_signed_one = backend.eq(product, (-1) ** gon.n)
    return verdict and product_signed_one, {
        "pseudo_collinear": verdict,
        "product_signed_one": product_signed_one,
    }


def _check_duality(config, backend, order):
    # the claim is agreement of the verdicts, whatever they are
    gon = config["gon"]
    primal, _ = is_pseudo_collinear(gon, order, backend)
    dual, _ = is_pseudo_concurrent(duality_bridge(gon), order, backend)
    return primal == dual, {
        "pseudo_collinear": primal,
        "dual_pseudo_concurrent": dual,
    }


def _check_bisectors_triangle(config, backend, order):
    report = triangle_bisector_concurrencies(*config["points"], backend=backend)
    return report.all_true(), report.to_json()


def _check_steiner_add_11(config, backend, order):
    report = steiner_add_11_check(config["points"], backend)
    return report.all_true(), report.to_json()


def _check_bisectors_ngon(config, backend, order):
    # one gon for both the verdict and the product
    gon = bisector_gon(config["points"], config["choice"], backend)
    verdict, _ = is_pseudo_concurrent(gon, order, backend)
    return verdict, {
        "pseudo_concurrent": verdict,
        "product": ceva_product(gon, backend),
        "externals": sum(1 for c in config["choice"] if c == "external"),
    }


# ---------------------------------------------------------------------------
# the table


@dataclass(frozen=True)
class TheoremEntry:
    id: str
    summary: str
    arith: str  # "exact" | "float"
    check: Callable

    @property
    def takes_n(self) -> bool:
        return self.id in DEFAULT_N


THEOREMS: dict[str, TheoremEntry] = {
    e.id: e
    for e in (
        TheoremEntry(
            "two-pencils",
            "cross meets of two linked harmonic pencils are collinear",
            "exact",
            _check_two_pencils,
        ),
        TheoremEntry(
            "cor2",
            "pencils sharing the join of their vertices give two collinear"
            " triples",
            "exact",
            _check_cor2,
        ),
        TheoremEntry(
            "free-triangle",
            "carrier lines through double crossings, harmonic at each vertex",
            "exact",
            _check_free_triangle,
        ),
        TheoremEntry(
            "triangle-transfer",
            "cevian concurrency transfers to the mixed g/h triples and the"
            " ratio product",
            "exact",
            _check_triangle_transfer,
        ),
        TheoremEntry(
            "free-quad",
            "eight unconditional collinear triples of a harmonic"
            " quadrilateral",
            "exact",
            _check_free_quad,
        ),
        TheoremEntry(
            "quad-equivalence",
            "l-pair coincidence, zeta = 1, and diagonal product = 1 stand"
            " together",
            "exact",
            _check_quad_equivalence,
        ),
        TheoremEntry(
            "crossratio",
            "six-point collinearity lists agree with cross-ratio equality",
            "exact",
            _check_crossratio,
        ),
        TheoremEntry(
            "pappus4",
            "the four pappus lines of matched quadruples coincide",
            "exact",
            _check_pappus4,
        ),
        TheoremEntry(
            "desargues",
            "point perspectivity, line perspectivity, and cross-ratio shifts"
            " agree",
            "exact",
            _check_desargues,
        ),
        TheoremEntry(
            "ceva-quad",
            "quadrilateral cevians: reduction verdict matches product = 1",
            "exact",
            _check_ceva,
        ),
        TheoremEntry(
            "ceva-ngon",
            "n-gon cevians: reduction verdict matches product = 1",
            "exact",
            _check_ceva,
        ),
        TheoremEntry(
            "menelaos-ngon",
            "n-gon side cuts: reduction verdict matches product = (-1)^n",
            "exact",
            _check_menelaos,
        ),
        TheoremEntry(
            "duality",
            "the pseudo-collinearity verdict survives dualizing the gon",
            "exact",
            _check_duality,
        ),
        TheoremEntry(
            "bisectors-triangle",
            "incenter and the three excenters concur as predicted",
            "float",
            _check_bisectors_triangle,
        ),
        TheoremEntry(
            "steiner-add-11",
            "four quintuples of bisector crossings are collinear",
            "float",
            _check_steiner_add_11,
        ),
        TheoremEntry(
            "bisectors-ngon",
            "internal (or evenly external) bisectors are pseudo-concurrent",
            "float",
            _check_bisectors_ngon,
        ),
    )
}


def theorem_ids() -> tuple[str, ...]:
    return tuple(THEOREMS)


def get_entry(theorem: str) -> TheoremEntry:
    try:
        return THEOREMS[theorem]
    except KeyError:
        raise UnknownTheorem(
            f"unknown theorem {theorem!r}; known ids: {', '.join(THEOREMS)}"
        )


# ---------------------------------------------------------------------------
# float coercion for exact instances


def _floatify(obj):
    if isinstance(obj, Point):
        return Point(*(float(v) for v in obj.triple))
    if isinstance(obj, Line):
        return Line(*(float(v) for v in obj.triple))
    if isinstance(obj, HarmonicPencil):
        return HarmonicPencil(
            _floatify(obj.vertex), *(_floatify(l) for l in obj.lines)
        )
    if isinstance(obj, (TriangleConfig, QuadrilateralConfig)):
        return type(obj)(
            _floatify(obj.vertices), _floatify(obj.g), _floatify(obj.h)
        )
    if isinstance(obj, (CevaGon, MenelaosGon)):
        return type(obj)(_floatify(obj.vertices), _floatify(obj.items))
    if isinstance(obj, (tuple, list)):
        return tuple(_floatify(o) for o in obj)
    if isinstance(obj, dict):
        return {k: _floatify(v) for k, v in obj.items()}
    return obj


def run_trial(
    theorem: str,
    seed: int,
    n: int | None = None,
    order="first",
    backend: str | None = None,
) -> tuple[bool, dict]:
    """One seeded positive trial: force the hypothesis, check the claim.

    backend "exact" / "float" / None (the theorem's natural arithmetic).
    Returns (passed, detail); the same seed regenerates the identical
    instance through the gen command.
    """
    entry = get_entry(theorem)
    if backend is None:
        backend = entry.arith
    if entry.arith == "float" and backend == "exact":
        raise ValueError(f"{theorem} verifies with the float backend only")
    spec = GenSpec(seed=seed)
    config = gen_hypothesis_forcing(theorem, spec, n=n)
    if entry.arith == "exact" and backend == "float":
        config = _floatify(config)
        be: Backend = float_backend()
    elif entry.arith == "float":
        be = float_backend()
    else:
        be = EXACT
    passed, detail = entry.check(config, be, order)
    return passed, detail
