"""The shipped kernel and reductions over a polynomial ring.

The generalized Ceva and Menelaos theorems are polynomial identities:
with symbolic coordinates, the exact backend's zero tests decide them
for every instance at once.  Poly below is a minimal sparse polynomial
over Z, enough of a commutative ring for join, meet, the predicates and
the reductions; nothing divides or takes an absolute value.
"""

from operator import add

import pytest

from harmonica.core import Line, Point, _cross, collinear, join, meet
from harmonica.pencils import QuadrilateralConfig, free_quadrilateral_triples
from harmonica.reduction import (
    CevaGon,
    MenelaosGon,
    is_pseudo_collinear,
    is_pseudo_concurrent,
    reduce_step,
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


# ---------------------------------------------------------------------------
# Lemma A: orders that remove the same slots reduce a gon to one gon
#
# A Menelaos step removes a vertex and a Ceva step a side, and every
# other slot carries over, so a reduced gon is fixed by its kept slots
# (vertices, or sides) up to the item of each merged arc: the run of
# original slots between two kept ones.  A step merges two adjacent
# arcs into one.  Merging is a partial operation on adjacent arcs, as
# composition is on the arrows of a category: if merging three adjacent
# arcs gives one item in both bracketings, then, by the general
# associative law, every bracketing of any run of arcs gives one item,
# for every n, so every order that removes the same slots ends in the
# same gon.  The tests below prove the three-arc case over generic
# items: an arc's item is a point of the line joining its end vertices
# (Menelaos) or a line through the meet of its end sides (Ceva), and
# a + s*b is such a member for every s.  The frame takes any four kept
# slots in general position, and rotating the labels puts the arcs
# across the wrap of the slot list, where the steps place the merged
# item differently.


def identically_equal(a, b) -> bool:
    """Whether two points or two lines are projectively equal for every
    value of the variables: their cross product is the zero polynomial."""
    return all(c == 0 for c in _cross(a.triple, b.triple))


def member(a, b, s):
    """a + s*b: a point of the line through points a and b, or a line
    through the meet of lines a and b."""
    return type(a)(*(p + s * q for p, q in zip(a.triple, b.triple)))


FRAME_LINES = tuple(Line(*p.triple) for p in FRAME)


def lemma_a_gon(kind: str):
    """A pentagon whose slots 0-3 are the frame (vertices, or sides for
    Ceva) with a generic item on each arc."""
    if kind == "menelaos":
        v = gon_vertices(5)
        cuts = tuple(member(v[k], v[(k + 1) % 5], X[2 + k]) for k in range(5))
        return MenelaosGon(v, cuts)
    sides = FRAME_LINES + (Line(X[0], X[1], 1),)
    # vertex k is the meet of sides k - 1 and k, so side k joins
    # vertices k and k + 1
    v = tuple(meet(sides[k - 1], sides[k]) for k in range(5))
    cevians = tuple(member(sides[k - 1], sides[k], X[2 + k]) for k in range(5))
    return CevaGon(v, cevians)


def removing(gon, labels: list, removed: tuple):
    """The gon after one step for each label in removed, in turn:
    labels[k] names slot k, the vertex k of a Menelaos gon, which a step
    at k + 1 removes, or the side k of a Ceva gon, which a step at k + 1
    removes by collapsing its two vertices."""
    labels = list(labels)
    for label in removed:
        k = labels.index(label)
        gon = reduce_step(gon, k + 1)
        del labels[k]
    return gon


@pytest.mark.parametrize("rotation", range(5))
@pytest.mark.parametrize("kind", ["ceva", "menelaos"])
def test_merging_three_arcs_is_associative(kind, rotation):
    # removing slot 1 then slot 2 merges the arcs (01, 12) first and
    # then (02, 23); removing slot 2 first merges (12, 23), then (01, 13)
    gon = lemma_a_gon(kind)
    r = rotation
    v, items = gon.vertices, gon.items
    rotated = type(gon)(v[r:] + v[:r], items[r:] + items[:r])
    labels = list(range(r, 5)) + list(range(r))
    first = removing(rotated, labels, (1, 2))
    second = removing(rotated, labels, (2, 1))
    pairs = list(zip(first.vertices + first.items, second.vertices + second.items))
    assert len(pairs) == 6
    assert all(identically_equal(a, b) for a, b in pairs)


@pytest.mark.parametrize("kind", ["ceva", "menelaos"])
def test_a_wrong_merged_side_breaks_the_identity(kind):
    # negative control: the last merge of the second bracketing made
    # with the side of slots 0 and 2 (Menelaos; the vertex of sides 0
    # and 2 for Ceva) instead of that of slots 0 and 3
    gon = lemma_a_gon(kind)
    first = removing(gon, list(range(5)), (1, 2))
    halfway = removing(gon, list(range(5)), (2,))
    if kind == "menelaos":
        v, x, q = gon.vertices, halfway.items[0], halfway.items[1]
        wrong = meet(join(v[0], v[2]), join(x, q))
        right = first.items[0]
    else:
        s = FRAME_LINES
        g, q = halfway.items[1], halfway.items[2]
        wrong = join(meet(s[0], s[2]), meet(g, q))
        right = first.items[1]
    assert not identically_equal(wrong, right)


def ratio(a: Point, d: Point, b: Point) -> tuple:
    """The signed ratio ad/db of collinear points a, d, b, as a
    numerator and a denominator: for d = alpha*a + beta*b it is
    beta*b_w / (alpha*a_w), and alpha and beta are in proportion as
    the w-components of d x b and a x d wherever that of a x b is not
    zero, as for generic points."""
    ta, td, tb = a.triple, d.triple, b.triple
    return _cross(ta, td)[2] * tb[2], _cross(td, tb)[2] * ta[2]


def test_a_menelaos_merge_keeps_the_ratio_of_its_arc():
    # Menelaos on the triangle a, b, c with the transversal through x
    # and y: the cut P that removing b puts on side ac has
    # r(a, P, c) = -r(a, x, b) * r(b, y, c), so by induction an arc of
    # k sides has (-1)^(k - 1) times the product of its sides' ratios
    a, b, c = (generic_point(k) for k in range(3))
    x, y = member(a, b, X[6]), member(b, c, X[7])
    d = Point(0, 0, 1)
    gon = MenelaosGon((a, b, c, d), (x, y, member(c, d, 2), member(d, a, 2)))
    p = reduce_step(gon, 2).side_points[0]
    (ap, pc), (ax, xb), (by, yc) = ratio(a, p, c), ratio(a, x, b), ratio(b, y, c)
    assert ap * xb * yc + pc * ax * by == 0
    # negative control: the identity without its sign
    assert ap * xb * yc - pc * ax * by != 0
