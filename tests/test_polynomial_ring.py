"""The shipped kernel and reductions over a polynomial ring.

The generalized Ceva and Menelaos theorems are polynomial identities:
with symbolic coordinates, the exact backend's zero tests decide them
for every instance at once.  Poly below is a minimal sparse polynomial
over Z, enough of a commutative ring for join, meet, the predicates and
the reductions; nothing divides or takes an absolute value.
"""

from operator import add

import pytest

from harmonica.core import Line, Point, collinear, join, meet
from harmonica.pencils import QuadrilateralConfig, free_quadrilateral_triples
from harmonica.reduction import (
    CevaGon,
    MenelaosGon,
    is_pseudo_collinear,
    is_pseudo_concurrent,
)

NVARS = 8


class Poly:
    """Polynomial over Z in NVARS variables: exponent tuple -> nonzero int."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict) -> None:
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def var(cls, i: int) -> "Poly":
        return cls({tuple(int(k == i) for k in range(NVARS)): 1})

    @staticmethod
    def lift(v) -> "Poly":
        return v if isinstance(v, Poly) else Poly({(0,) * NVARS: v})

    def __add__(self, other) -> "Poly":
        terms = dict(self.terms)
        for e, c in Poly.lift(other).terms.items():
            terms[e] = terms.get(e, 0) + c
        return Poly(terms)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other) -> "Poly":
        return self + -Poly.lift(other)

    def __rsub__(self, other) -> "Poly":
        return Poly.lift(other) + -self

    def __mul__(self, other) -> "Poly":
        terms: dict = {}
        factor = Poly.lift(other).terms.items()
        for e1, c1 in self.terms.items():
            for e2, c2 in factor:
                e = tuple(map(add, e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return Poly(terms)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return self.terms == Poly.lift(other).terms


X = [Poly.var(i) for i in range(NVARS)]
FRAME = (Point(1, 0, 0), Point(0, 1, 0), Point(0, 0, 1), Point(1, 1, 1))


def generic_point(k: int) -> Point:
    """The affine point with the free coordinates X[2k], X[2k + 1]."""
    return Point(X[2 * k], X[2 * k + 1], 1)


def gon_vertices(n: int) -> tuple:
    """The frame followed by n - 4 generic affine points."""
    return FRAME + tuple(generic_point(k) for k in range(n - 4))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_ceva_gon_through_generic_centre_is_pseudo_concurrent(n):
    v = gon_vertices(n)
    centre = generic_point(2)
    gon = CevaGon(v, tuple(join(p, centre) for p in v))
    assert is_pseudo_concurrent(gon, "exhaustive")[0] is True


@pytest.mark.parametrize("n", [4, 5, 6])
def test_menelaos_gon_cut_by_generic_transversal_is_pseudo_collinear(n):
    v = gon_vertices(n)
    transversal = Line(X[4], X[5], 1)
    cuts = tuple(meet(join(v[i], v[(i + 1) % n]), transversal) for i in range(n))
    gon = MenelaosGon(v, cuts)
    assert is_pseudo_collinear(gon, "exhaustive")[0] is True


def test_ceva_gon_with_one_cevian_off_the_centre_is_not_pseudo_concurrent():
    v = gon_vertices(5)
    centre, other = generic_point(2), generic_point(3)
    cevians = (join(v[0], other),) + tuple(join(p, centre) for p in v[1:])
    assert is_pseudo_concurrent(CevaGon(v, cevians), "exhaustive")[0] is False


def _free_quadrilateral() -> QuadrilateralConfig:
    # built without __init__, whose pencil validation divides
    q = QuadrilateralConfig.__new__(QuadrilateralConfig)
    object.__setattr__(q, "vertices", FRAME)
    s = q.sides
    t = X[4:8]
    for name, sign in (("g", 1), ("h", -1)):
        lines = tuple(
            Line(*(a + sign * t[i] * b for a, b in zip(s[i - 1].triple, s[i].triple)))
            for i in range(4)
        )
        object.__setattr__(q, name, lines)
    return q


def test_free_quadrilateral_triples_are_identically_collinear():
    triples = free_quadrilateral_triples(_free_quadrilateral())
    assert len(triples) == 8
    assert all(collinear(*t) for t in triples)
    # negative control: the last members of two triples swapped
    (a, b, c), (d, e, f) = triples[:2]
    assert not collinear(a, b, f)
    assert not collinear(d, e, c)
