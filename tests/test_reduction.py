"""Gon reduction: step rules, product formulas, order independence,
traces, and the duality bridge."""

import gc
import hashlib
import json
import operator
from collections import Counter
from fractions import Fraction
from math import comb, isfinite
from pathlib import Path
from random import Random
from typing import Iterator

import pytest

from harmonica import core, reduction
from harmonica.core import (
    EXACT,
    CoincidentLines,
    CoincidentPoints,
    DegenerateInput,
    ExactBackend,
    FloatBackend,
    GeometryError,
    Line,
    Point,
    UndefinedFoot,
    collinear,
    concurrent,
    float_backend,
    incident,
    join,
    meet,
    _backend_of,
)
from harmonica.generate import GenSpec, gen_hypothesis_forcing
from harmonica.reduction import (
    CevaGon,
    DegenerateStep,
    InconsistentOrders,
    MenelaosGon,
    ReductionTrace,
    ReplayMismatch,
    all_reduction_orders,
    ceva_product,
    duality_bridge,
    gon_from_json,
    is_pseudo_collinear,
    is_pseudo_concurrent,
    menelaos_product,
    reduce_step,
    replay_trace,
)

from helpers import lane_pools, points_in_general_position, random_point


def P(x, y):
    return Point.affine(Fraction(x), Fraction(y))


def L(a, b, c):
    return Line(Fraction(a), Fraction(b), Fraction(c))


def fraction_between(rng: Random) -> Fraction:
    # a ratio parameter strictly inside (0, 1) plus occasional outside values
    num = rng.randint(1, 9)
    den = rng.randint(num + 1, 12)
    t = Fraction(num, den)
    if rng.random() < 0.3:
        t = t + rng.choice([-1, 1])
    if t in (0, 1):
        t = Fraction(1, 2)
    return t


def affine_mix(a: Point, b: Point, t: Fraction) -> Point:
    ax, ay = a.to_affine()
    bx, by = b.to_affine()
    return Point.affine(ax + t * (bx - ax), ay + t * (by - ay))


def ceva_gon_concurrent(rng: Random, n: int) -> CevaGon:
    while True:
        vs = points_in_general_position(rng, n + 1)
        o, vs = vs[0], tuple(vs[1:])
        cevians = tuple(join(v, o) for v in vs)
        if len({l.triple for l in cevians}) == n:
            return CevaGon(vs, cevians)


def ceva_gon_random(rng: Random, n: int) -> CevaGon:
    while True:
        vs = tuple(points_in_general_position(rng, n))
        cevians = tuple(join(v, random_point(rng)) for v in vs)
        try:
            gon = CevaGon(vs, cevians)
        except Exception:
            continue
        return gon


def menelaos_gon_on_transversal(rng: Random, n: int) -> MenelaosGon:
    while True:
        pts = points_in_general_position(rng, n + 2)
        t = join(pts[0], pts[1])
        vs = tuple(pts[2:])
        if any(incident(t, v) for v in vs):
            continue
        try:
            cuts = tuple(
                meet(join(vs[i], vs[(i + 1) % n]), t) for i in range(n)
            )
            return MenelaosGon(vs, cuts)
        except Exception:
            continue


def menelaos_gon_random(rng: Random, n: int) -> MenelaosGon:
    while True:
        vs = tuple(points_in_general_position(rng, n))
        cuts = tuple(
            affine_mix(vs[i], vs[(i + 1) % n], fraction_between(rng))
            for i in range(n)
        )
        try:
            return MenelaosGon(vs, cuts)
        except Exception:
            continue


def small_point(rng: Random) -> Point:
    return Point.affine(rng.randint(-3, 3), rng.randint(-3, 3))


def small_gon(rng: Random, kind: str, n: int, floats: bool):
    """Gon with integer coordinates in [-3, 3]: coincidences are common,
    so orders degenerate or disagree often.  Optionally coerced to
    floats after construction."""
    while True:
        vs = tuple(small_point(rng) for _ in range(n))
        try:
            if kind == "ceva":
                items = tuple(join(v, small_point(rng)) for v in vs)
            else:
                items = tuple(
                    meet(
                        join(vs[i], vs[(i + 1) % n]),
                        join(small_point(rng), small_point(rng)),
                    )
                    for i in range(n)
                )
            if floats:
                vs, items = (
                    tuple(type(o)(*map(float, o.triple)) for o in objs)
                    for objs in (vs, items)
                )
            return (CevaGon if kind == "ceva" else MenelaosGon)(vs, items)
        except GeometryError:
            continue


def uniform_point(rng: Random) -> Point:
    return Point(rng.uniform(-1, 1), rng.uniform(-1, 1), 1.0)


def uniform_gon(rng: Random, kind: str, n: int, forced: bool):
    """Gon with random uniform float coordinates in [-1, 1], where every
    construction rounds: cevians through one point or cuts on one line
    when forced, else each through a point or on a line of its own."""
    while True:
        vs = tuple(uniform_point(rng) for _ in range(n))
        try:
            if kind == "ceva":
                o = uniform_point(rng)
                items = tuple(join(v, o if forced else uniform_point(rng)) for v in vs)
            else:
                t = join(uniform_point(rng), uniform_point(rng))
                items = tuple(
                    meet(
                        join(vs[i], vs[(i + 1) % n]),
                        t if forced else join(uniform_point(rng), uniform_point(rng)),
                    )
                    for i in range(n)
                )
            return (CevaGon if kind == "ceva" else MenelaosGon)(vs, items)
        except GeometryError:
            continue


def rebuild(gon):
    # the public constructor, which validates every slot
    if isinstance(gon, CevaGon):
        return CevaGon(gon.vertices, gon.cevians)
    return MenelaosGon(gon.vertices, gon.side_points)


def assert_steps_revalidate(gon) -> None:
    """Every gon reached by any sequence of steps passes full
    validation."""
    if gon.n == 3:
        return
    for i in range(1, gon.n + 1):
        try:
            reduced = reduce_step(gon, i)
        except DegenerateStep:
            continue
        rebuild(reduced)
        assert_steps_revalidate(reduced)


def check_of(gon):
    return is_pseudo_concurrent if isinstance(gon, CevaGon) else is_pseudo_collinear


def walk_outcome(run) -> tuple:
    """How a walk ended: its verdict and trace, or the type, message,
    step index and trace of the error it raised."""
    try:
        verdict, trace = run()
    except (DegenerateStep, InconsistentOrders) as exc:
        trace = getattr(exc, "trace", None)
        return (
            type(exc).__name__,
            str(exc),
            getattr(exc, "index", None),
            trace and trace.to_json_lines(),
        )
    return "trace", verdict, trace.to_json_lines()


def merged_slots(kind: str, blocks: tuple, i: int) -> tuple:
    """The original slots each slot of a reduced gon stands for, after
    a step at i: a Ceva step merges the blocks of the vertex pair
    (i, i + 1), a Menelaos step those of sides i - 1 and i, the two
    sides of the vertex it removes.  The merged block takes the lower
    position, or at the wrapped pair the first (Ceva) or last
    (Menelaos)."""
    m = len(blocks)
    a, b = (i - 1, i % m) if kind == "ceva" else ((i - 2) % m, i - 1)
    merged = blocks[a] | blocks[b]
    if a < b:
        return blocks[:a] + (merged,) + blocks[b + 1 :]
    rest = blocks[1 : m - 1]
    return (merged,) + rest if kind == "ceva" else rest + (merged,)


def order_runs(gon, backend) -> Iterator[tuple[tuple, bool, object]]:
    """Each order of all_reduction_orders reduced on its own, on objects:
    the order, whether the walk's skip rule passes it over, and its
    verdict and trace or its DegenerateStep.

    The rule, without the walk's slot labels: a reduced gon, triangles
    included, is keyed on how its slots partition the original ones,
    which fixes the removed slots, and an order is passed over at the
    first prefix whose key an earlier non-degenerate prefix reached."""
    n = gon.n
    blocks = {(): tuple(frozenset([k]) for k in range(n))}  # of each prefix
    reached: dict = {}  # key: the prefix that reached it first
    for order in all_reduction_orders(n):
        try:
            result = reduction._run_reduction(gon, order, backend)
            done = len(order)
        except DegenerateStep as exc:
            result, done = exc, len(exc.trace.steps)
        skipped = False
        for length in range(1, min(done, n - 3) + 1):
            prefix, i = order[:length], order[length - 1]
            if prefix not in blocks:
                blocks[prefix] = merged_slots(gon.kind, blocks[prefix[:-1]], i)
            if reached.setdefault(frozenset(blocks[prefix]), prefix) != prefix:
                skipped = True
                break
        yield order, skipped, result


class Agreement:
    """An exhaustive check fed one order's run at a time: it ends in the
    first success, in InconsistentOrders at the first disagreement or,
    when every order degenerates, in the first order's DegenerateStep."""

    def __init__(self) -> None:
        self.first = self.first_degenerate = self.disagreement = None

    def add(self, order: tuple, result) -> None:
        if self.disagreement:
            return
        if isinstance(result, DegenerateStep):
            self.first_degenerate = self.first_degenerate or result
        elif self.first is None:
            self.first = result
        elif result[0] != self.first[0]:
            self.disagreement = InconsistentOrders(
                f"order {order} gave {result[0]}, "
                f"order {self.first[1].indices} gave {self.first[0]}"
            )

    def outcome(self) -> tuple[bool, ReductionTrace]:
        if self.disagreement:
            raise self.disagreement
        if self.first is None:
            raise self.first_degenerate
        return self.first


def references(gon, backend) -> tuple[Agreement, Agreement]:
    """every_order and every_slot_set, with each order reduced once for
    both."""
    every, slot_sets = Agreement(), Agreement()
    for order, skipped, result in order_runs(gon, backend):
        every.add(order, result)
        if not skipped:
            slot_sets.add(order, result)
        if every.disagreement and slot_sets.disagreement:
            break
    return every, slot_sets


def every_order(gon, backend) -> tuple[bool, ReductionTrace]:
    """An exhaustive check with no walk and no skipping: each order of
    all_reduction_orders reduced on its own."""
    return references(gon, backend)[0].outcome()


def every_slot_set(gon, backend) -> tuple[bool, ReductionTrace]:
    """every_order without the orders the walk's skip rule passes over:
    the walk's reference on float data, where gons with the same
    removed slots are equal only up to rounding."""
    return references(gon, backend)[1].outcome()


def walk_and_references(gon) -> tuple[tuple, tuple, tuple]:
    """The outcomes of a gon's exhaustive check, every_order and
    every_slot_set, in the data's lane."""
    backend = _backend_of(*gon.vertices, *gon.items)
    walked = walk_outcome(lambda: check_of(gon)(gon, order="exhaustive"))
    every, slot_sets = references(gon, backend)
    return walked, walk_outcome(every.outcome), walk_outcome(slot_sets.outcome)


def assert_exhaustive_matches_explicit_orders(gon) -> str:
    """Check order="exhaustive" against every_slot_set and, on exact
    data, every_slot_set against every_order; return how the walk
    ended: "trace", "InconsistentOrders" or "DegenerateStep"."""
    walked, every, slot_sets = walk_and_references(gon)
    assert walked == slot_sets
    if _backend_of(*gon.vertices, *gon.items).kind == "exact":
        assert slot_sets == every
    return walked[0]


# ---------------------------------------------------------------------------
# constructors


class TestGonTypes:
    def test_cevian_must_pass_through_vertex(self):
        vs = (P(0, 0), P(1, 0), P(0, 1))
        bad = (L(1, 0, -5), L(1, 0, -1), L(1, 1, -1))
        with pytest.raises(DegenerateInput):
            CevaGon(vs, bad)

    def test_consecutive_vertices_must_differ(self):
        with pytest.raises(DegenerateInput):
            CevaGon(
                (P(0, 0), P(0, 0), P(1, 0)),
                (L(1, 0, 0), L(1, 0, 0), L(1, 0, -1)),
            )

    def test_cut_must_lie_on_its_side(self):
        vs = (P(0, 0), P(2, 0), P(0, 2))
        with pytest.raises(DegenerateInput):
            MenelaosGon(vs, (P(1, 1), P(1, 1), P(0, 1)))

    def test_cut_must_avoid_side_endpoints(self):
        vs = (P(0, 0), P(2, 0), P(0, 2))
        with pytest.raises(DegenerateInput):
            MenelaosGon(vs, (P(2, 0), P(1, 1), P(0, 1)))

    def test_json_round_trip(self):
        rng = Random(3)
        cg = ceva_gon_random(rng, 5)
        assert gon_from_json(cg.to_json()) == cg
        mg = menelaos_gon_random(rng, 5)
        assert gon_from_json(mg.to_json()) == mg

    def test_both_kinds_share_one_body(self):
        rng = Random(5)
        cases = [
            (ceva_gon_random(rng, 4), "ceva", "cevians",
             "one cevian per vertex required"),
            (menelaos_gon_random(rng, 4), "menelaos", "side_points",
             "one side point per side required"),
        ]
        for gon, kind, field, count_message in cases:
            assert gon.kind == kind
            assert gon.items is getattr(gon, field)
            assert list(gon.to_json()) == ["kind", "vertices", field]
            assert gon.to_json()["kind"] == kind
            with pytest.raises(DegenerateInput, match=count_message):
                type(gon)(gon.vertices, gon.items[:-1])
            with pytest.raises(DegenerateInput, match="at least 3 vertices"):
                type(gon)(gon.vertices[:2], gon.items[:2])
        with pytest.raises(ValueError, match="unknown gon kind 'square'"):
            gon_from_json({"kind": "square"})


# ---------------------------------------------------------------------------
# hand-computed step oracles


class TestStepOracles:
    def test_ceva_square_step_at_wrapped_pair(self):
        # unit square; collapsing the pair (4, 1) sends the new vertex
        # and the crossing of the two parallel cevians to infinity
        gon = CevaGon(
            (P(0, 0), P(1, 0), P(1, 1), P(0, 1)),
            (L(1, -1, 0), L(1, 0, -1), L(1, -2, 1), L(1, -1, 1)),
        )
        reduced = reduce_step(gon, 4)
        assert reduced.vertices == (
            Point(1, 0, 0),
            P(1, 0),
            P(1, 1),
        )
        assert reduced.cevians == (
            Line(0, 0, 1),
            L(1, 0, -1),
            L(1, -2, 1),
        )

    def test_menelaos_quadrilateral_step_at_vertex_4(self):
        # removing vertex 4 merges its sides into the diagonal y = x;
        # the transversal through the removed cuts is parallel to it,
        # so the new cut is the infinite point of that direction
        gon = MenelaosGon(
            (P(0, 0), P(2, 0), P(2, 2), P(0, 2)),
            (P(1, 0), P(2, 1), P(Fraction(3, 2), 2), P(0, Fraction(1, 2))),
        )
        reduced = reduce_step(gon, 4)
        assert reduced.vertices == (P(0, 0), P(2, 0), P(2, 2))
        assert reduced.side_points == (P(1, 0), P(2, 1), Point(1, 1, 0))
        # independent check: this instance is pseudo-collinear and the
        # reduced triangle confirms it
        assert menelaos_product(gon) == 1
        assert collinear(*reduced.side_points)

    def test_untouched_entries_carry_over(self):
        rng = Random(7)
        gon = ceva_gon_random(rng, 6)
        reduced = reduce_step(gon, 3)
        assert reduced.vertices[:2] == gon.vertices[:2]
        assert reduced.vertices[3:] == gon.vertices[4:]
        assert reduced.cevians[:2] == gon.cevians[:2]
        assert reduced.cevians[3:] == gon.cevians[4:]
        mgon = menelaos_gon_random(rng, 6)
        mreduced = reduce_step(mgon, 3)
        assert mreduced.vertices == mgon.vertices[:2] + mgon.vertices[3:]
        assert mreduced.side_points[:1] == mgon.side_points[:1]
        assert mreduced.side_points[2:] == mgon.side_points[3:]

    def test_concurrent_cevians_stay_concurrent(self):
        rng = Random(11)
        gon = ceva_gon_concurrent(rng, 5)
        o = meet(gon.cevians[0], gon.cevians[1])
        for i in range(1, 6):
            try:
                reduced = reduce_step(gon, i)
            except DegenerateStep:
                continue
            for l in reduced.cevians:
                assert incident(l, o)

    def test_transversal_cuts_stay_on_transversal(self):
        rng = Random(13)
        gon = menelaos_gon_on_transversal(rng, 5)
        t = join(gon.side_points[0], gon.side_points[1])
        for i in range(1, 6):
            try:
                reduced = reduce_step(gon, i)
            except DegenerateStep:
                continue
            for b in reduced.side_points:
                assert incident(t, b)

    def test_wrapped_pair_reports_lowest_coinciding_pair(self):
        # vertices 2 and 4 coincide, so collapsing the wrapped pair (5, 1)
        # puts the new vertex on vertex 2 = vertex 4, which become its
        # neighbours in slots 2 and 4; the constructor's loop meets the
        # pair (1, 2) before the pair (4, 1)
        vs = (P(0, 0), P(1, 0), P(1, 1), P(1, 0), P(0, 1))
        gon = CevaGon(
            vs, (L(1, -1, 0), L(0, 1, 0), L(1, 0, -1), L(1, -1, -1), L(0, 1, -1))
        )
        message = "consecutive vertices 1 and 2 coincide"
        with pytest.raises(DegenerateInput, match=message):
            CevaGon((P(1, 0),) + vs[1:4], (L(1, 0, -1),) + gon.cevians[1:4])
        with pytest.raises(DegenerateStep) as info:
            reduce_step(gon, 5)
        assert str(info.value) == f"reduced gon is degenerate: {message}"
        assert info.value.index == 5
        with pytest.raises(DegenerateStep, match=message):
            is_pseudo_concurrent(gon, order=(5, 1))

    @pytest.mark.parametrize("make", [ceva_gon_random, menelaos_gon_random])
    def test_step_needs_at_least_four_vertices(self, make):
        gon = make(Random(17), 3)
        with pytest.raises(ValueError) as info:
            reduce_step(gon, 1)
        assert str(info.value) == "reduction steps need at least a 4-gon"

    @pytest.mark.parametrize("index", [True, 1.0, "1"])
    def test_step_index_must_be_an_int(self, index):
        # True would reduce at index 1 and 1.0 fail to index a tuple
        gon = ceva_gon_random(Random(17), 5)
        message = f"step index must be an integer, got {index!r}"
        with pytest.raises(ValueError) as info:
            reduce_step(gon, index)
        assert str(info.value) == message

    @pytest.mark.parametrize("kind", ["ceva", "menelaos"])
    def test_reduce_step_matches_an_explicit_order_trace(self, kind):
        # each step remakes the objects the trace recorded, and the last
        # one the recorded final triangle
        rng = Random(31)
        if kind == "ceva":
            gon, check = ceva_gon_concurrent(rng, 6), is_pseudo_concurrent
        else:
            gon, check = menelaos_gon_on_transversal(rng, 6), is_pseudo_collinear
        _, trace = check(gon, order=(6, 3, 1))
        current = gon
        for step in trace.steps:
            current = reduce_step(current, step.index)
            assert type(current) is type(gon)
            held = [o.to_json() for o in current.vertices + current.items]
            for made in (step.vertex, step.line, step.point):
                assert made is None or made.to_json() in held
        assert current.to_json() == trace.final.to_json()


# Hand-built gons, one for each coincidence that makes a step's join or
# meet fail: the step index and the reason the step must give.
STEP_DEGENERACIES = [
    # all four vertices on y = 0: both outer sides of pair (2, 3) are it
    (
        CevaGon(
            (P(0, 0), P(1, 0), P(2, 0), P(3, 0)),
            (L(1, 0, 0), L(1, 0, -1), L(1, 0, -2), L(1, 0, -3)),
        ),
        2,
        "outer sides of the chosen pair coincide",
    ),
    # cevians 1 and 2 are both the side y = 0
    (
        CevaGon(
            (P(0, 0), P(2, 0), P(2, 2), P(0, 2)),
            (L(0, 1, 0), L(0, 1, 0), L(1, -1, 0), L(1, 1, -2)),
        ),
        1,
        "the two removed cevians coincide",
    ),
    # the outer sides x = 0 and 2x + y = 4 of pair (1, 2) meet at (0, 4),
    # where cevians 1 and 2 cross
    (
        CevaGon(
            (P(0, 0), P(2, 0), P(1, 2), P(0, 2)),
            (L(1, 0, 0), L(2, 1, -4), L(1, -1, 1), L(1, 1, -2)),
        ),
        1,
        "new vertex equals the crossing of the removed cevians",
    ),
    # vertices 1 and 3, the neighbours of vertex 2, coincide
    (
        MenelaosGon(
            (P(0, 0), P(2, 0), P(0, 0), P(0, 2)),
            (P(1, 0), P(3, 0), P(0, 1), P(0, 3)),
        ),
        2,
        "neighbors of the removed vertex coincide",
    ),
    # vertices 1, 2, 3 on y = 0, and cuts 1 and 2 both at (3, 0)
    (
        MenelaosGon(
            (P(0, 0), P(1, 0), P(2, 0), P(1, 2)),
            (P(3, 0), P(3, 0), P(Fraction(3, 2), 1), P(Fraction(1, 2), 1)),
        ),
        2,
        "the two removed cuts coincide",
    ),
    # vertices 1, 2, 3 and cuts 1, 2 on y = 0
    (
        MenelaosGon(
            (P(0, 0), P(1, 0), P(2, 0), P(1, 2)),
            (P(3, 0), P(-1, 0), P(Fraction(3, 2), 1), P(Fraction(1, 2), 1)),
        ),
        2,
        "cut transversal equals the merged side",
    ),
]


def F(x, y, w=1.0):
    return Point(float(x), float(y), float(w))


# The coincidences between given elements once more, moved by (1, 1), on
# float data whose coinciding pair is given by triples scaled by 1e300
# and 2e300: == calls the two equal, but their cross product's products
# overflow, so its components are NaN (inf - inf) where they would be 0.
# A coincidence between built elements has no such case: the float
# lanes normalize what they build.
BIG, BIGGER = 1e300, 2e300
OVERFLOWING_DEGENERACIES = [
    (
        CevaGon(
            (F(1, 1), F(3, 1), F(3, 3), F(1, 3)),
            (
                Line(0.0, BIG, -BIG),
                Line(0.0, BIGGER, -BIGGER),
                Line(1.0, -1.0, 0.0),
                Line(1.0, 1.0, -4.0),
            ),
        ),
        1,
        "the two removed cevians coincide",
    ),
    (
        MenelaosGon(
            (F(BIG, BIG, BIG), F(3, 1), F(BIGGER, BIGGER, BIGGER), F(1, 3)),
            (F(2, 1), F(4, 1), F(1, 2), F(1, 4)),
        ),
        2,
        "neighbors of the removed vertex coincide",
    ),
    (
        MenelaosGon(
            (F(1, 1), F(2, 1), F(3, 1), F(2, 3)),
            (F(4 * BIG, BIG, BIG), F(4 * BIGGER, BIGGER, BIGGER), F(2.5, 2), F(1.5, 2)),
        ),
        2,
        "the two removed cuts coincide",
    ),
]


class TestStepDegeneracies:
    """Each reason a step gives for a coincidence its join or meet meets,
    with its index, in every lane: on integer forms, on float triples,
    and on objects of both number kinds."""

    @pytest.mark.parametrize("gon, i, reason", STEP_DEGENERACIES)
    def test_every_lane_gives_the_reason(self, gon, i, reason):
        floats = floatify(gon)
        step = type(gon)._step
        runs = [
            lambda: step(*reduction._read(gon, "_form"), i, reduction._FORMS),
            lambda: step(
                *reduction._read(floats, "triple"),
                i,
                reduction._float_lane(float_backend()),
            ),
            lambda: reduce_step(gon, i),
            lambda: reduce_step(floats, i),
        ]
        for run in runs:
            with pytest.raises(DegenerateStep) as info:
                run()
            assert (str(info.value), info.value.index) == (reason, i)

    @pytest.mark.parametrize("gon, i, reason", OVERFLOWING_DEGENERACIES)
    def test_overflowing_products_give_the_reason(self, gon, i, reason):
        step = type(gon)._step
        runs = [
            lambda: step(
                *reduction._read(gon, "triple"),
                i,
                reduction._float_lane(float_backend()),
            ),
            lambda: reduce_step(gon, i),
        ]
        for run in runs:
            with pytest.raises(DegenerateStep) as info:
                run()
            assert (str(info.value), info.value.index) == (reason, i)

    def test_an_undefined_diagonal_cut_leaves_no_product(self):
        # vertices 1 and 3, the ends of the diagonal at vertex 2, coincide;
        # the last gon moves this one by (1, 1) and gives the two by
        # triples whose cross product overflows
        gon = CevaGon(
            (P(0, 0), P(2, 0), P(0, 0), P(0, 2)),
            (L(1, -1, 0), L(1, 0, -2), L(1, 1, 0), L(0, 1, -2)),
        )
        far = CevaGon(
            (F(BIG, BIG, BIG), F(3, 1), F(BIGGER, BIGGER, BIGGER), F(1, 3)),
            (
                Line(1.0, -1.0, 0.0),
                Line(1.0, 0.0, -3.0),
                Line(1.0, 1.0, -2.0),
                Line(0.0, 1.0, -3.0),
            ),
        )
        for data, backend in (
            (gon, EXACT),
            (floatify(gon), float_backend()),
            (far, float_backend()),
        ):
            with pytest.raises(UndefinedFoot) as info:
                ceva_product(data, backend)
            assert str(info.value) == "diagonal at vertex 2 collapses"
        # cevian 2 is the diagonal at vertex 2 itself, so it meets it nowhere
        A = (P(0, 0), P(1, 0), P(2, 0), P(1, 3))
        on_diagonal = CevaGon(
            A, (L(1, -1, 0), join(A[0], A[2]), L(1, 0, -2), L(1, 0, -1))
        )
        for data, backend in (
            (on_diagonal, EXACT),
            (floatify(on_diagonal), float_backend()),
        ):
            with pytest.raises(UndefinedFoot) as info:
                ceva_product(data, backend)
            assert str(info.value) == "line 2 lies on its diagonal"


def pentagon(kind: str):
    if kind == "ceva":
        return ceva_gon_concurrent(Random(73), 5)
    return menelaos_gon_on_transversal(Random(79), 5)


# an order of a pentagon with one index outside 1..m, m the size of the
# gon it steps: 5, then 4
OUT_OF_RANGE_ORDERS = [
    ((0, 1), "step index 0 out of range 1..5"),
    ((6, 1), "step index 6 out of range 1..5"),
    ((1, 0), "step index 0 out of range 1..4"),
    ((1, 5), "step index 5 out of range 1..4"),
]


class TestStepIndexRange:
    """A step index below 1 or above the size of the gon it steps is a
    ValueError, whether it comes from an explicit order, a single step
    or a recorded trace."""

    @pytest.mark.parametrize("kind", ["ceva", "menelaos"])
    @pytest.mark.parametrize("order, message", OUT_OF_RANGE_ORDERS)
    def test_explicit_orders(self, kind, order, message):
        gon = pentagon(kind)
        with pytest.raises(ValueError) as info:
            check_of(gon)(gon, order=order)
        assert str(info.value) == message

    @pytest.mark.parametrize("kind", ["ceva", "menelaos"])
    @pytest.mark.parametrize("i", [0, 6])
    def test_reduce_step(self, kind, i):
        with pytest.raises(ValueError) as info:
            reduce_step(pentagon(kind), i)
        assert str(info.value) == f"step index {i} out of range 1..5"

    @pytest.mark.parametrize("kind", ["ceva", "menelaos"])
    @pytest.mark.parametrize("order, message", OUT_OF_RANGE_ORDERS)
    def test_replay_of_an_edited_trace(self, kind, order, message):
        gon = pentagon(kind)
        _, trace = check_of(gon)(gon, order="first")
        lines = trace.to_json_lines().splitlines()
        for row, index in enumerate(order, 1):
            step = json.loads(lines[row])
            step["index"] = index
            lines[row] = json.dumps(step)
        edited = ReductionTrace.from_json_lines("\n".join(lines))
        assert edited.indices == order
        with pytest.raises(ValueError) as info:
            replay_trace(edited)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# products


class TestProducts:
    def test_ceva_product_invariant_under_each_step(self):
        rng = Random(19)
        for n in (4, 5, 6, 7):
            for _ in range(3):
                gon = ceva_gon_random(rng, n)
                try:
                    before = ceva_product(gon)
                except Exception:
                    continue
                for i in range(1, n + 1):
                    try:
                        after = ceva_product(reduce_step(gon, i))
                    except Exception:
                        continue
                    assert after == before, (n, i)

    def test_menelaos_product_flips_sign_each_step(self):
        rng = Random(23)
        for n in (4, 5, 6, 7):
            for _ in range(3):
                gon = menelaos_gon_random(rng, n)
                try:
                    before = menelaos_product(gon)
                except Exception:
                    continue
                for i in range(1, n + 1):
                    try:
                        after = menelaos_product(reduce_step(gon, i))
                    except Exception:
                        continue
                    assert after == -before, (n, i)

    def test_concurrent_cevians_product_is_one(self):
        rng = Random(29)
        for n in (4, 5, 6):
            gon = ceva_gon_concurrent(rng, n)
            assert ceva_product(gon) == 1

    def test_random_cevians_product_usually_not_one(self):
        rng = Random(31)
        off = 0
        for _ in range(10):
            gon = ceva_gon_random(rng, 5)
            try:
                if ceva_product(gon) != 1:
                    off += 1
            except Exception:
                continue
        assert off >= 8

    def test_transversal_product_is_signed_unit(self):
        rng = Random(37)
        for n in (3, 4, 5, 6):
            gon = menelaos_gon_on_transversal(rng, n)
            assert menelaos_product(gon) == (-1) ** n

    def test_triangle_menelaos_classical(self):
        # cuts of the line y = x - 1 on the 2-4-right triangle
        vs = (P(0, 0), P(4, 0), P(0, 2))
        t = L(1, -1, -1)
        cuts = tuple(meet(join(vs[i], vs[(i + 1) % 3]), t) for i in range(3))
        gon = MenelaosGon(vs, cuts)
        assert menelaos_product(gon) == -1


# ---------------------------------------------------------------------------
# pseudo-concurrency / pseudo-collinearity drivers


class TestPseudoPredicates:
    def test_positive_under_every_order_strategy(self):
        rng = Random(41)
        for n in (4, 5, 6):
            gon = ceva_gon_concurrent(rng, n)
            for order in ("first", ("seed", 7), "exhaustive"):
                verdict, trace = is_pseudo_concurrent(gon, order=order)
                assert verdict, (n, order)
                assert len(trace.steps) == n - 3
                assert trace.verdict is True
            assert assert_exhaustive_matches_explicit_orders(gon) == "trace"

    def test_negative_under_every_order_strategy(self):
        rng = Random(43)
        found = 0
        while found < 3:
            gon = ceva_gon_random(rng, 5)
            try:
                if ceva_product(gon) == 1:
                    continue
                for order in ("first", ("seed", 3), "exhaustive"):
                    verdict, _ = is_pseudo_concurrent(gon, order=order)
                    assert not verdict
            except DegenerateStep:
                continue
            found += 1

    def test_menelaos_positive_and_negative(self):
        rng = Random(47)
        for n in (4, 5, 6):
            gon = menelaos_gon_on_transversal(rng, n)
            verdict, _ = is_pseudo_collinear(gon, order="exhaustive")
            assert verdict
            assert assert_exhaustive_matches_explicit_orders(gon) == "trace"
        found = 0
        while found < 3:
            gon = menelaos_gon_random(rng, 5)
            try:
                if menelaos_product(gon) == -1:
                    continue
                verdict, _ = is_pseudo_collinear(gon, order="exhaustive")
                assert not verdict
            except DegenerateStep:
                continue
            found += 1

    def test_triangle_needs_no_steps(self):
        rng = Random(53)
        gon = ceva_gon_concurrent(rng, 3)
        verdict, trace = is_pseudo_concurrent(gon)
        assert verdict and trace.steps == [] and trace.final == gon
        gon2 = ceva_gon_random(rng, 3)
        verdict2, _ = is_pseudo_concurrent(gon2)
        assert verdict2 == concurrent(*gon2.cevians)

    def test_verdict_equals_product_criterion(self):
        rng = Random(59)
        matched = 0
        for _ in range(20):
            gon = ceva_gon_random(rng, rng.choice([4, 5]))
            try:
                product = ceva_product(gon)
                verdict, _ = is_pseudo_concurrent(gon)
            except Exception:
                continue
            assert verdict == (product == 1)
            matched += 1
        assert matched >= 12

    def test_menelaos_verdict_equals_product_criterion(self):
        rng = Random(61)
        matched = 0
        for _ in range(20):
            n = rng.choice([4, 5])
            gon = menelaos_gon_random(rng, n)
            try:
                product = menelaos_product(gon)
                verdict, _ = is_pseudo_collinear(gon)
            except Exception:
                continue
            assert verdict == (product == (-1) ** n)
            matched += 1
        assert matched >= 12

    @pytest.mark.parametrize("floats", [False, True], ids=["exact", "float"])
    @pytest.mark.parametrize("kind", ["ceva", "menelaos"])
    def test_exhaustive_matches_every_explicit_order(self, kind, floats):
        rng = Random(107)
        outcomes = set()
        for _ in range(40):
            gon = small_gon(rng, kind, rng.choice([4, 5, 6]), floats)
            outcomes.add(assert_exhaustive_matches_explicit_orders(gon))
            assert_steps_revalidate(gon)
        assert "trace" in outcomes and len(outcomes) >= 2

    def test_all_orders_enumerated(self):
        assert list(all_reduction_orders(3)) == [()]
        assert len(list(all_reduction_orders(4))) == 4
        assert len(list(all_reduction_orders(5))) == 20
        assert len(list(all_reduction_orders(6))) == 120

    def test_explicit_order_validation(self):
        rng = Random(67)
        gon = ceva_gon_random(rng, 5)
        with pytest.raises(ValueError):
            is_pseudo_concurrent(gon, order=(1,))
        with pytest.raises(ValueError):
            is_pseudo_concurrent(gon, order=(1, 9))
        with pytest.raises(ValueError):
            is_pseudo_concurrent(gon, order="sideways")
        # a bool is an int to isinstance, but a trace whose step index
        # is true cannot be read back
        for order in ((True, 1), [1, False]):
            with pytest.raises(ValueError, match="unknown reduction order"):
                is_pseudo_concurrent(gon, order=order)

    def test_exhaustive_capped(self):
        rng = Random(71)
        gon = ceva_gon_concurrent(rng, 13)
        with pytest.raises(ValueError, match="limited to n <= 12"):
            is_pseudo_concurrent(gon, order="exhaustive")

    @pytest.mark.parametrize("n", [9, 12])
    @pytest.mark.parametrize("theorem", ["ceva-ngon", "menelaos-ngon", "duality"])
    def test_exhaustive_walks_forced_gons_up_to_the_cap(self, theorem, n):
        # each set of removed slots is stepped to once, 465 steps at
        # n = 9 and 4,016 at n = 12, in the walk's exact or float lane,
        # and the reported order's n - 3 are then taken on objects;
        # every order of a forced Ceva or Menelaos gon says True, and a
        # duality gon and its bridged dual agree; no first order
        # degenerates, so (1, ..., 1) is the one reported
        gon = gen_hypothesis_forcing(theorem, GenSpec(seed=0), n=n)["gon"]
        for data in (gon, floatify(gon)):
            gons = (data, duality_bridge(data)) if theorem == "duality" else (data,)
            verdicts = set()
            for g in gons:
                verdict, trace = check_of(g)(g, order="exhaustive")
                verdicts.add(verdict)
                assert trace.indices == (1,) * (n - 3)
            assert verdicts == {True} or theorem == "duality" and len(verdicts) == 1

    def test_exhaustive_octagons_agree_with_explicit_orders(self):
        # an octagon's 6,720 orders are too many to run one by one in a
        # test (the exhaustive cap is n = 12), so a few stand in
        rng = Random(79)
        cases = [
            (ceva_gon_concurrent(rng, 8), True),
            (ceva_gon_random(rng, 8), False),
            (menelaos_gon_on_transversal(rng, 8), True),
            (menelaos_gon_random(rng, 8), False),
        ]
        for gon, expected in cases:
            for data in (gon, floatify(gon)):
                check = check_of(data)
                verdict, trace = check(data, order="exhaustive")
                assert verdict is expected
                # order (1, 1, 1, 1, 1) is the lexicographically first
                _, first = check(data, order="first")
                assert trace.to_json_lines() == first.to_json_lines()
                for order in (("seed", 1), (8, 7, 6, 5, 4), (2, 6, 1, 3, 2)):
                    assert check(data, order=order)[0] is expected

    def test_exhaustive_heptagons_agree_with_every_explicit_order(self):
        rng = Random(73)
        assert len(list(all_reduction_orders(7))) == 840
        for gon, check in (
            (ceva_gon_concurrent(rng, 7), is_pseudo_concurrent),
            (menelaos_gon_on_transversal(rng, 7), is_pseudo_collinear),
        ):
            assert assert_exhaustive_matches_explicit_orders(gon) == "trace"
            verdict, _ = check(gon, order="exhaustive")
            assert verdict is True

    def test_degenerate_step_carries_trace(self):
        # all four vertices on one line: every pair's outer sides
        # coincide, so any step degenerates immediately
        gon = CevaGon(
            (P(0, 0), P(1, 0), P(2, 0), P(3, 0)),
            (L(1, 0, 0), L(1, 0, -1), L(1, 0, -2), L(1, 0, -3)),
        )
        with pytest.raises(DegenerateStep) as info:
            is_pseudo_concurrent(gon, order=(2,))
        assert info.value.index == 2
        assert info.value.trace is not None
        assert info.value.trace.steps == []
        assert info.value.trace.start == gon

    def test_degenerate_step_after_successful_prefix(self):
        # cevians 3 and 4 share one line (the side through their
        # vertices), so their crossing is undefined; an order that
        # collapses pair (1,2) first still dies at pair (3,4)
        rng = Random(103)
        vs = tuple(points_in_general_position(rng, 5))
        shared = join(vs[2], vs[3])
        cevians = (
            join(vs[0], random_point(rng)),
            join(vs[1], random_point(rng)),
            shared,
            shared,
            join(vs[4], random_point(rng)),
        )
        gon = CevaGon(vs, cevians)
        with pytest.raises(DegenerateStep) as info:
            is_pseudo_concurrent(gon, order=(1, 2))
        assert info.value.index == 2
        assert len(info.value.trace.steps) == 1


# ---------------------------------------------------------------------------
# traces and replay


class TestTraces:
    def test_trace_json_lines_round_trip(self):
        rng = Random(73)
        gon = ceva_gon_concurrent(rng, 5)
        verdict, trace = is_pseudo_concurrent(gon, order=("seed", 12))
        text = trace.to_json_lines()
        back = ReductionTrace.from_json_lines(text)
        assert back.kind == trace.kind
        assert back.start == trace.start
        assert back.indices == trace.indices
        assert back.final == trace.final
        assert back.verdict == verdict
        assert back.to_json_lines() == text

    def test_replay_reproduces_bit_exactly(self):
        rng = Random(79)
        gon = menelaos_gon_on_transversal(rng, 6)
        _, trace = is_pseudo_collinear(gon, order=("seed", 5))
        back = ReductionTrace.from_json_lines(trace.to_json_lines())
        fresh = replay_trace(back)
        assert fresh.to_json_lines() == trace.to_json_lines()

    def test_replay_detects_tampering(self):
        rng = Random(83)
        gon = ceva_gon_concurrent(rng, 5)
        _, trace = is_pseudo_concurrent(gon, order="first")
        tampered = ReductionTrace.from_json_lines(trace.to_json_lines())
        tampered.steps[0].vertex = random_point(Random(1))
        with pytest.raises(ReplayMismatch):
            replay_trace(tampered)
        wrong_verdict = ReductionTrace.from_json_lines(trace.to_json_lines())
        wrong_verdict.verdict = not wrong_verdict.verdict
        with pytest.raises(ReplayMismatch):
            replay_trace(wrong_verdict)
        swapped_final = ReductionTrace.from_json_lines(trace.to_json_lines())
        swapped_final.final = ceva_gon_concurrent(Random(1), 3)
        with pytest.raises(ReplayMismatch) as info:
            replay_trace(swapped_final)
        assert str(info.value) == "final gon differs from the recording"

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "trace must start with a header line"),
            ("\n \n", "trace must start with a header line"),
            (
                '{"index": 1}',
                "trace line 1: expected the header line, with a kind",
            ),
        ],
        ids=["empty", "blank-lines", "no-header"],
    )
    def test_trace_without_a_header(self, text, message):
        with pytest.raises(ValueError) as info:
            ReductionTrace.from_json_lines(text)
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# duality


class TestDuality:
    def test_pseudo_collinear_equals_dual_pseudo_concurrent(self):
        rng = Random(89)
        agreements = 0
        for _ in range(12):
            n = rng.choice([4, 5])
            gon = (
                menelaos_gon_on_transversal(rng, n)
                if agreements % 2 == 0
                else menelaos_gon_random(rng, n)
            )
            dual = duality_bridge(gon)
            assert isinstance(dual, CevaGon)
            try:
                v1, _ = is_pseudo_collinear(gon)
                v2, _ = is_pseudo_concurrent(dual)
            except DegenerateStep:
                continue
            assert v1 == v2
            agreements += 1
        assert agreements >= 8

    def test_double_dual_returns_original(self):
        rng = Random(97)
        for n in (4, 5, 6):
            gon = menelaos_gon_random(rng, n)
            assert duality_bridge(duality_bridge(gon)) == gon
            cg = ceva_gon_random(rng, n)
            assert duality_bridge(duality_bridge(cg)) == cg

    def test_dual_of_transversal_gon_is_pseudo_concurrent(self):
        rng = Random(101)
        gon = menelaos_gon_on_transversal(rng, 5)
        dual = duality_bridge(gon)
        verdict, _ = is_pseudo_concurrent(dual, order="exhaustive")
        assert verdict
        assert ceva_product(dual) == 1


# ---------------------------------------------------------------------------
# pinned walk output and shared constructions

ROOT = Path(__file__).resolve().parent.parent


def floatify(gon):
    def fl(obj):
        return type(obj)(*map(float, obj.triple))

    return type(gon)(tuple(map(fl, gon.vertices)), tuple(map(fl, gon.items)))


def pinned_gons():
    """The gons whose walks are pinned, each exact and floatified:
    seeded forced gons and small-integer gons of both kinds, duality
    gons with their bridged duals, the collinear-triple Menelaos gon of
    ROADMAP.md's c3.hgeo, and both labelings of the shipped
    order-sensitivity witness."""
    exact = []
    for n in (4, 5, 6, 7):
        for theorem in ("ceva-ngon", "menelaos-ngon"):
            for seed in range(3 if n < 7 else 1):
                spec = GenSpec(seed=seed)
                exact.append(gen_hypothesis_forcing(theorem, spec, n=n)["gon"])
    for n in (4, 5, 6):
        gon = gen_hypothesis_forcing("duality", GenSpec(seed=n), n=n)["gon"]
        exact += [gon, duality_bridge(gon)]
    rng = Random(211)
    for kind in ("ceva", "menelaos"):
        for _ in range(12):
            exact.append(small_gon(rng, kind, rng.choice([4, 5, 6]), False))
    exact.append(
        MenelaosGon(
            (P(-2, -2), P(-3, -2), P(-1, -2), P(-2, 1)),
            (P("1/2", -2), P(0, -2), P("-9/7", "-8/7"), P(-2, 3)),
        )
    )
    data = json.loads((ROOT / "data" / "order_sensitivity_witness.json").read_text())
    vertices = [Point(*triple) for triple in data["vertices"]]
    cevians = [Line(*triple) for triple in data["cevians"]]
    for entry in data["orders"]:
        perm = [i - 1 for i in entry["vertex_order"]]
        exact.append(
            CevaGon(tuple(vertices[i] for i in perm), tuple(cevians[i] for i in perm))
        )
    return [g for gon in exact for g in (gon, floatify(gon))]


def lane_gons():
    """The exact gons of the three-lane pin: 400 seeded small-integer
    gons (n = 4-7, fewer of 7, both kinds, coordinates in [-3, 3]) and
    forced Ceva, Menelaos and duality gons (n = 4-7) with the duals of
    the last."""
    rng = Random(419)
    gons = [
        small_gon(rng, kind, rng.choice([4, 4, 5, 5, 6, 6, 7]), False)
        for kind in ("ceva", "menelaos")
        for _ in range(200)
    ]
    for n in (4, 5, 6, 7):
        for theorem in ("ceva-ngon", "menelaos-ngon", "duality"):
            gon = gen_hypothesis_forcing(theorem, GenSpec(seed=n), n=n)["gon"]
            gons.append(gon)
            if theorem == "duality":
                gons.append(duality_bridge(gon))
    return gons


def walk_record(gon, order, backend=None) -> tuple[str, str]:
    """How one walk ended, and its record: the trace, or the type,
    message, index and trace prefix of the error it raised."""
    check = is_pseudo_concurrent if isinstance(gon, CevaGon) else is_pseudo_collinear
    head = f"{json.dumps(gon.to_json(), sort_keys=True)} {order}\n"
    try:
        _, trace = check(gon, order=order, backend=backend)
    except DegenerateStep as exc:
        record = f"DegenerateStep {exc} @{exc.index}\n{exc.trace.to_json_lines()}"
        return "DegenerateStep", head + record
    except InconsistentOrders as exc:
        return "InconsistentOrders", head + f"InconsistentOrders {exc}\n"
    return "trace", head + trace.to_json_lines()


def forced_hexagon(theorem: str):
    return gen_hypothesis_forcing(theorem, GenSpec(seed=0), n=6)["gon"]


def counted(calls: Counter, name: str, fn):
    """fn, counting its calls in calls[name]."""

    def wrapper(*args):
        calls[name] += 1
        return fn(*args)

    return wrapper


def count_steps(monkeypatch, calls: Counter) -> None:
    # both kinds' reduction steps in every lane: calls["step"] counts
    # those on objects, calls["form step"] those on integer forms (the
    # exhaustive walk of exact data) and calls["float step"] those on
    # float triples (the exhaustive walk of float data)
    for cls in (CevaGon, MenelaosGon):
        step = cls._step

        def counted_step(A, items, i, lane, step=step):
            if lane is reduction._FORMS:
                calls["form step"] += 1
            elif lane.eq is reduction._proportional:
                # the float walk's lane, the other one on bare triples
                calls["float step"] += 1
            else:
                calls["step"] += 1
            return step(A, items, i, lane)

        monkeypatch.setattr(cls, "_step", staticmethod(counted_step))


class TestPinnedWalks:
    def test_walk_output_is_pinned(self):
        digest = hashlib.sha256()
        outcomes = Counter()
        for gon in pinned_gons():
            for order in ("exhaustive", "first"):
                outcome, record = walk_record(gon, order)
                outcomes[outcome] += 1
                digest.update(record.encode())
        # every kind of outcome is covered
        assert outcomes["DegenerateStep"] and outcomes["InconsistentOrders"]
        assert digest.hexdigest() == (
            "64585ecd070a7e5eacb8e9e2cf0416dffc6dbaf33c26b2c4c4a260ef5547eea6"
        )

    def test_walk_output_under_the_exact_backend_is_pinned(self):
        # the same gons decided by EXACT whatever their data's lane, so
        # float data meets the exact backend's zero test on float triples
        digest = hashlib.sha256()
        outcomes = Counter()
        for gon in pinned_gons():
            # the last index at every step: wrapped pairs, dropped last vertices
            last = tuple(range(gon.n, 3, -1))
            for order in ("exhaustive", ("seed", 3), last):
                outcome, record = walk_record(gon, order, EXACT)
                outcomes[outcome] += 1
                digest.update(record.encode())
        assert outcomes["trace"] and outcomes["DegenerateStep"]
        assert outcomes["InconsistentOrders"]
        assert digest.hexdigest() == (
            "483a86830a61e79bb77237bffdc0c9d64e2a2d007d6067a79367dd30f6a95652"
        )

    def test_walk_output_in_three_lanes_is_pinned(self):
        # small-integer gons, where orders often degenerate or disagree,
        # and forced gons, each walked exhaustively as exact data, as
        # floatified data and as exact data under the float backend
        digest = hashlib.sha256()
        outcomes = Counter()
        for gon in lane_gons():
            floats = floatify(gon)
            for data, backend in ((gon, None), (floats, None), (gon, float_backend())):
                outcome, record = walk_record(data, "exhaustive", backend)
                outcomes[outcome] += 1
                digest.update(record.encode())
        assert outcomes["trace"] and outcomes["DegenerateStep"]
        assert outcomes["InconsistentOrders"]
        assert digest.hexdigest() == (
            "0d3bd241df7e5d3b1134438190eadace3bfba778a9da879bab5492516b0b7686"
        )

    @pytest.mark.parametrize(
        "theorem, built, replay",
        [("ceva-ngon", (123, 82), (9, 6)), ("menelaos-ngon", (82, 41), (6, 3))],
    )
    def test_exhaustive_float_walk_builds_each_step_afresh(
        self, monkeypatch, theorem, built, replay
    ):
        # an exhaustive walk of this floatified hexagon on its float
        # triples steps once to each of the 6, 15 and 20 gons of 5, 4 and
        # 3 vertices that its sets of removed slots give, 41 steps, and
        # with no memo each step builds its own cross products: 3 joins
        # and 2 meets (Ceva) or 2 joins and 1 meet (Menelaos); the
        # reported order is then reduced on objects, n - 3 steps, and is
        # the trace
        calls = Counter()
        gon = floatify(forced_hexagon(theorem))
        cross = reduction._float_cross

        def counted_cross(error, a, b):
            calls["float " + ("join" if error is CoincidentPoints else "meet")] += 1
            return cross(error, a, b)

        monkeypatch.setattr(reduction, "_float_cross", counted_cross)
        monkeypatch.setattr(reduction, "join", counted(calls, "join", join))
        monkeypatch.setattr(reduction, "meet", counted(calls, "meet", meet))
        verdict, _ = check_of(gon)(gon, order="exhaustive")
        assert verdict is True
        assert (calls["float join"], calls["float meet"]) == built
        assert (calls["join"], calls["meet"]) == replay

    @pytest.mark.parametrize(
        "theorem, steps", [("ceva-ngon", 41), ("menelaos-ngon", 41)]
    )
    def test_exhaustive_walk_skips_walked_gons(self, monkeypatch, theorem, steps):
        # every order of a hexagon takes 6 + 30 + 120 = 156 step calls; a
        # step to a reduced gon whose removed slots the walk has walked,
        # triangles included, is not taken, so it steps once to each of
        # the 6, 15 and 20 gons of 5, 4 and 3 vertices, 6 + 15 + 20 = 41
        # steps, on integer forms; then the reported order is reduced on
        # objects, n - 3 steps, for the trace; a one-branch order takes
        # one step per depth, on objects
        calls = Counter()
        gon = forced_hexagon(theorem)
        count_steps(monkeypatch, calls)
        verdict, _ = check_of(gon)(gon, order="exhaustive")
        assert verdict is True
        assert calls["form step"] == steps
        assert calls["step"] == gon.n - 3
        for order in ("first", ("seed", 3), (6, 2, 1), (1, 5, 4)):
            calls.clear()
            check_of(gon)(gon, order=order)
            assert calls == {"step": gon.n - 3}

    @pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
    @pytest.mark.parametrize("theorem", ["ceva-ngon", "menelaos-ngon", "duality"])
    @pytest.mark.parametrize("lane", ["forms", "float", "objects"])
    def test_exact_walks_reduce_each_slot_choice_once(
        self, monkeypatch, n, theorem, lane
    ):
        # a forced exact gon reduced by removing k slots depends only on
        # which k of the n slots went, and the walk keys reduced gons on
        # that set in every lane, triangles included, testing the key
        # before the step, so it steps once to each such gon, the sum of
        # C(n, k) steps for k = 1, ..., n - 3, on integer forms (exact
        # data), on float triples (floatified data) or on objects (exact
        # data under the float backend); then the reported order is
        # reduced on objects, n - 3 steps, for the trace
        steps = sum(comb(n, k) for k in range(1, n - 2))
        expected = {
            "forms": {"form step": steps, "step": n - 3},
            "float": {"float step": steps, "step": n - 3},
            "objects": {"step": steps + n - 3},
        }[lane]
        backend = float_backend() if lane == "objects" else None
        calls = Counter()
        count_steps(monkeypatch, calls)
        for seed in range(3):
            gon = gen_hypothesis_forcing(theorem, GenSpec(seed=seed), n=n)["gon"]
            gons = (gon, duality_bridge(gon)) if theorem == "duality" else (gon,)
            verdicts = set()
            for data in gons:
                if lane == "float":
                    data = floatify(data)
                calls.clear()
                verdict, _ = check_of(data)(data, order="exhaustive", backend=backend)
                verdicts.add(verdict)
                assert calls == expected
            # a forced Ceva or Menelaos gon is pseudo-concurrent or
            # pseudo-collinear; a duality gon and its dual agree
            assert verdicts == {True} or theorem == "duality" and len(verdicts) == 1


class TestFormsWalk:
    """Exact data under the exact backend is walked exhaustively on
    integer forms, and objects are built only for the reported order;
    it must end as reducing every order on its own does."""

    def test_it_ends_as_every_order_reduced_alone(self, monkeypatch):
        gons = [
            gon
            for gon in pinned_gons() + lane_gons()
            if all(o._form is not None for o in gon.vertices + gon.items)
        ]
        for n in (3, 4, 5, 6, 7, 8):
            for theorem in ("ceva-ngon", "menelaos-ngon", "duality"):
                for seed in range(2):
                    gon = gen_hypothesis_forcing(theorem, GenSpec(seed=seed), n=n)["gon"]
                    gons.append(gon)
                    if theorem == "duality":
                        gons.append(duality_bridge(gon))
        calls = Counter()
        count_steps(monkeypatch, calls)
        outcomes = Counter()
        for gon in gons:
            calls.clear()
            outcomes[assert_exhaustive_matches_explicit_orders(gon)] += 1
            # the walk ran on forms (a triangle takes no step)
            assert calls["form step"] > 0 or gon.n == 3
        # every order degenerates in some, orders disagree in others
        assert outcomes["trace"] and outcomes["DegenerateStep"]
        assert outcomes["InconsistentOrders"]


class TestFirstOrderFallbacks:
    """An exhaustive check walks in its lane, then reduces on objects
    only the order it reports: n - 3 object steps for a trace, none when
    orders disagree.  The trace must be the reported order reduced
    alone, and where every order degenerates, the error must be the
    first order's, (1, ..., 1), with its trace prefix."""

    @pytest.mark.parametrize("lane", ["forms", "float", "objects"])
    def test_they_end_as_one_order_reduced_alone(self, monkeypatch, lane):
        # the CI step's 1,000 small-integer gons, walked as exact data on
        # integer forms, as floatified data on float triples, and as
        # exact data under the float backend on objects; calls["reduced"]
        # counts the object steps of reductions along one order, which
        # on objects are told from the walk's steps that way
        backend = float_backend() if lane == "objects" else None
        calls = Counter()
        count_steps(monkeypatch, calls)
        run_reduction = reduction._run_reduction

        def counted_reduction(*args):
            before = calls["step"]
            try:
                return run_reduction(*args)
            finally:
                calls["reduced"] += calls["step"] - before

        monkeypatch.setattr(reduction, "_run_reduction", counted_reduction)
        outcomes = Counter()
        rng = Random(2200)
        for i in range(1000):
            kind = ("ceva", "menelaos")[i % 2]
            gon = small_gon(rng, kind, rng.choice([4, 5, 6, 7]), False)
            if lane == "float":
                gon = floatify(gon)
            check = check_of(gon)
            first = walk_outcome(lambda: check(gon, order="first", backend=backend))
            calls.clear()
            walked = walk_outcome(
                lambda: check(gon, order="exhaustive", backend=backend)
            )
            outcomes[walked[0], first[0] == "DegenerateStep"] += 1
            if walked[0] == "InconsistentOrders":
                assert calls["reduced"] == 0
            elif walked[0] == "trace":
                assert calls["reduced"] == gon.n - 3
                order = ReductionTrace.from_json_lines(walked[2]).indices
                alone = walk_outcome(lambda: check(gon, order=order, backend=backend))
                assert walked == alone
            else:
                # the first order's steps up to the one that degenerates
                assert walked == first
                prefix = ReductionTrace.from_json_lines(walked[3]).steps
                assert calls["reduced"] == len(prefix) + 1
        # orders disagree in some gons, every order degenerates in others,
        # and the first order is reported in some, another order where the
        # first degenerates in others
        assert outcomes["InconsistentOrders", True]
        assert outcomes["InconsistentOrders", False]
        assert outcomes["DegenerateStep", True]
        assert outcomes["trace", True] and outcomes["trace", False]

    def test_checks_leave_no_reference_cycles(self):
        # a walk that raises must not leave frames that refer to
        # themselves to gc
        rng = Random(2200)
        gons = []
        for i in range(300):
            kind = ("ceva", "menelaos")[i % 2]
            gons.append(small_gon(rng, kind, rng.choice([4, 5, 6, 7]), False))
        outcomes = Counter()
        gc.collect()
        gc.disable()
        try:
            for gon in gons:
                try:
                    _, trace = check_of(gon)(gon, order="exhaustive")
                    outcomes[trace.indices == (1,) * (gon.n - 3)] += 1
                except (DegenerateStep, InconsistentOrders) as exc:
                    outcomes[type(exc).__name__] += 1
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0
        # the first order is reported, another order is, orders disagree,
        # and every order degenerates
        assert outcomes[True] and outcomes[False]
        assert outcomes["InconsistentOrders"] and outcomes["DegenerateStep"]


def scaled(gon, vertex_scale: float, item_scale: float):
    def scale(obj, s):
        return type(obj)(*(c * s for c in obj.triple))

    return type(gon)(
        tuple(scale(v, vertex_scale) for v in gon.vertices),
        tuple(scale(o, item_scale) for o in gon.items),
    )


def lanes_outcome(gon) -> tuple:
    """How the walk of all-float data under the float backend ends on
    its float triples, asserted equal to how it ends on its objects:
    ("order", the order found or None), or the type and message of the
    error it raised."""
    be = float_backend()
    walks = (
        (*reduction._read(gon, "triple"), reduction._float_lane(be)),
        (gon.vertices, gon.items, reduction._object_lane(be)),
    )
    outcomes = []
    for A, items, lane in walks:
        try:
            outcomes.append(("order", reduction._first_order(gon, A, items, lane)))
        except GeometryError as exc:
            outcomes.append((type(exc).__name__, str(exc)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


class TestFloatLane:
    """All-float data under the float backend is walked exhaustively on
    its float triples; the walk must end as the walk on its objects
    does, with the same order or the same error."""

    def test_floatified_small_integer_gons(self):
        rng = Random(431)
        outcomes = Counter()
        for kind in ("ceva", "menelaos"):
            for _ in range(100):
                gon = small_gon(rng, kind, rng.choice([4, 4, 5, 5, 6, 6, 7]), True)
                outcome = lanes_outcome(gon)
                outcomes[outcome[0] if outcome[1] else "none"] += 1
        # orders succeed, disagree, and all degenerate
        assert outcomes["order"] and outcomes["InconsistentOrders"]
        assert outcomes["none"]

    def test_floatified_forced_gons_and_duals(self):
        orders = []
        for n in (4, 5, 6, 7, 8):
            for theorem in ("ceva-ngon", "menelaos-ngon", "duality"):
                for seed in range(2 if n < 8 else 1):
                    gon = gen_hypothesis_forcing(theorem, GenSpec(seed=seed), n=n)["gon"]
                    gons = (gon, duality_bridge(gon)) if theorem == "duality" else (gon,)
                    orders += [lanes_outcome(floatify(g)) for g in gons]
        assert len(orders) == 36
        assert all(kind == "order" and order for kind, order in orders)

    def test_uniform_float_gons_at_every_scale(self):
        # a scale changes every rounding, so each copy walks other floats
        rng = Random(433)
        walked = Counter()
        for kind in ("ceva", "menelaos"):
            for i in range(24):
                gon = uniform_gon(rng, kind, 4 + i % 4, forced=i % 2 == 0)
                walked[lanes_outcome(gon)[0]] += 1
                if i % 4 == 3:
                    continue
                for s in (1e-150, 1e-50, 1e-3, 1e3, 1e50, 1e150):
                    try:
                        copy = scaled(gon, s, s)
                    except GeometryError:
                        continue
                    walked[lanes_outcome(copy)[0]] += 1
        assert walked["order"] >= 200

    @pytest.mark.parametrize("kind", ["ceva", "menelaos"])
    def test_overflowing_cross_products(self, monkeypatch, kind):
        # items scaled by 1e155: their joins or meets overflow, and the
        # normalization keeps a triple whose max-norm is not finite
        kept = []
        normalized = core._max_normalized

        def recorded(x, y, z):
            if not isfinite(max(abs(x), abs(y), abs(z))):
                kept.append((x, y, z))
            return normalized(x, y, z)

        monkeypatch.setattr(core, "_max_normalized", recorded)
        gon = scaled(uniform_gon(Random(439), kind, 5, forced=True), 1.0, 1e155)
        lanes_outcome(gon)
        assert kept


def element_state(obj) -> tuple:
    """An element's class, typed triple and integer form, with floats
    compared by float.hex, so that the sign of a zero counts."""
    triple = tuple(v.hex() if type(v) is float else (type(v), v) for v in obj.triple)
    return type(obj), triple, obj._form


def hexed(t: tuple) -> tuple:
    return tuple(map(float.hex, t))


class TestLaneConstructions:
    """Each lane's join and meet give what core's join and meet give
    the same elements, and raise the same error class where they raise."""

    @staticmethod
    def lanes() -> list:
        be = float_backend()
        return [
            ("forms", reduction._FORMS),
            ("float", reduction._float_lane(be)),
            ("objects", reduction._object_lane(EXACT)),
            ("objects", reduction._object_lane(be)),
        ]

    @staticmethod
    def operands(kind: str, a, b):
        """What a lane of this kind reads of elements a and b, or None
        if it takes no such data."""
        if kind == "forms":
            return None if a._form is None or b._form is None else (a._form, b._form)
        if kind == "float":
            floats = all(type(v) is float for v in a.triple + b.triple)
            return (a.triple, b.triple) if floats else None
        return a, b

    @pytest.mark.parametrize(
        "cls, name, error, message",
        [
            (Point, "join", CoincidentPoints, "join of equal points {}"),
            (Line, "meet", CoincidentLines, "meet of equal lines {}"),
        ],
    )
    def test_lanes_build_what_core_builds(self, cls, name, error, message):
        rng = Random(443)
        build = {"join": join, "meet": meet}[name]
        lanes = self.lanes()
        taken = Counter()
        for pool_kind, pool in lane_pools(rng).items():
            elements = [cls(*t) for t in pool]
            # proportional copies, scaled by a factor that keeps the
            # cross product exactly zero in every number kind
            twins = [
                cls(*(v * factor for v in e.triple))
                for e, factor in zip(elements, [2, -4, Fraction(1, 8), -1] * 10)
            ]
            pairs = [(a, b) for a in elements for b in elements]
            pairs += list(zip(elements, twins))
            for a, b in pairs:
                try:
                    expected = build(a, b)
                except error as exc:
                    assert str(exc) == message.format(a)
                    expected = None
                for kind, lane in lanes:
                    args = self.operands(kind, a, b)
                    if args is None:
                        continue
                    taken[kind, pool_kind, expected is None] += 1
                    made = getattr(lane, name)
                    if expected is None:
                        with pytest.raises(error):
                            made(*args)
                        continue
                    got = made(*args)
                    assert made(*args) == got
                    if kind == "forms":
                        assert got == expected._form
                        assert all(type(v) is int for v in got)
                    elif kind == "float":
                        assert hexed(got) == hexed(expected.triple)
                    else:
                        assert element_state(got) == element_state(expected)
        # every lane met its pools' data, and proportional operands
        pools = {
            "forms": ("int", "fraction"),
            "float": ("float",),
            "objects": ("int", "fraction", "mixed", "float"),
        }
        for kind, kinds in pools.items():
            for pool_kind in kinds:
                assert taken[kind, pool_kind, False] and taken[kind, pool_kind, True]


class TestSlotSets:
    """The walk skips a reduced gon, triangles included, whose removed
    slots it has walked.  every_slot_set reduces each order on its own
    with the same rule; on exact data it must also end as every_order
    does, since gons with the same removed slots are projectively equal
    (Lemma A of ROADMAP.md, which test_merging_three_arcs_is_associative
    in test_polynomial_ring.py proves where the kept slots are in general
    position; measured here on gons where they need not be)."""

    @staticmethod
    def drawn_gons() -> tuple[list, list]:
        # 100 small-integer gons, n = 4-7, and 40 uniform float gons,
        # n = 4-6, of both kinds
        rng = Random(2203)
        kinds = ("ceva", "menelaos")
        gons = [
            small_gon(rng, kinds[i % 2], rng.choice([4, 5, 6, 7]), False)
            for i in range(100)
        ]
        uniform = [
            uniform_gon(rng, kinds[i % 2], rng.choice([4, 5, 6]), i % 4 < 2)
            for i in range(40)
        ]
        return gons, uniform

    def test_walk_ends_as_every_slot_set_reduced_alone(self):
        gons, uniform = self.drawn_gons()
        outcomes = Counter()
        lanes = ((True, gons), (False, map(floatify, gons)), (False, uniform))
        for exact, data in lanes:
            for gon in data:
                walked, every, slot_sets = walk_and_references(gon)
                assert walked == slot_sets
                if exact:
                    assert slot_sets == every
                outcomes[walked[0]] += 1
        # orders succeed, disagree and all degenerate
        assert outcomes["trace"] and outcomes["InconsistentOrders"]
        assert outcomes["DegenerateStep"]

    def test_orders_that_remove_the_same_slots_agree(self):
        # Lemma A at the triangle, which the walk's triangle skip rests
        # on: every full order reduced on its own, grouped by the slots
        # it removed (as the partition of the original slots among the
        # triangle's three); the non-degenerate orders of one group give
        # one verdict
        shared = split = 0  # groups of two or more orders; gons whose groups differ
        for gon in self.drawn_gons()[0]:
            verdicts: dict = {}
            for order in all_reduction_orders(gon.n):
                try:
                    verdict, _ = reduction._run_reduction(gon, order, EXACT)
                except DegenerateStep:
                    continue
                blocks = tuple(frozenset([k]) for k in range(gon.n))
                for i in order:
                    blocks = merged_slots(gon.kind, blocks, i)
                verdicts.setdefault(frozenset(blocks), []).append(verdict)
            for group in verdicts.values():
                assert len(set(group)) == 1
                shared += len(group) > 1
            split += len({group[0] for group in verdicts.values()}) > 1
        assert shared > 1000 and split


def cofactors(M: tuple) -> tuple:
    """The cofactor matrix of a 3 x 3 matrix: a line maps by it when
    points map by M, so incidence survives the map."""
    (a, b, c), (d, e, f), (g, h, i) = M
    return (
        (e * i - f * h, f * g - d * i, d * h - e * g),
        (c * h - b * i, a * i - c * g, b * g - a * h),
        (b * f - c * e, c * d - a * f, a * e - b * d),
    )


def projective_image(gon, M: tuple):
    """The gon with each vertex mapped by M and each item by its
    cofactor matrix (points by M for a Menelaos gon's cuts)."""

    def mapped(obj, rows):
        return type(obj)(*(sum(map(operator.mul, row, obj.triple)) for row in rows))

    item_rows = cofactors(M) if isinstance(gon, CevaGon) else M
    return type(gon)(
        tuple(mapped(v, M) for v in gon.vertices),
        tuple(mapped(o, item_rows) for o in gon.items),
    )


class TestProjectiveImages:
    """Reductions are projective: an exact gon mapped by an integer
    matrix of nonzero determinant walks to the same outcome."""

    def test_exact_walks_survive_a_change_of_frame(self):
        rng = Random(2207)
        kinds = ("ceva", "menelaos")
        outcomes = Counter()
        for i in range(500):
            gon = small_gon(rng, kinds[i % 2], rng.choice([4, 5, 6, 7]), False)
            while True:
                M = tuple(tuple(rng.randint(-3, 3) for _ in "xyz") for _ in "xyz")
                # det M, expanded along the first row
                if sum(map(operator.mul, M[0], cofactors(M)[0])):
                    break
            image = projective_image(gon, M)
            results = []
            for data in (gon, image):
                try:
                    verdict, trace = check_of(data)(data, order="exhaustive")
                    results.append(("trace", verdict, trace.indices))
                except (DegenerateStep, InconsistentOrders) as exc:
                    index = getattr(exc, "index", None)
                    results.append((type(exc).__name__, str(exc), index))
            assert results[0] == results[1]
            outcomes[results[0][0]] += 1
        assert outcomes["trace"] and outcomes["InconsistentOrders"]
        assert outcomes["DegenerateStep"]


class TestStepIncidences:
    """A step builds the new cevian through the new vertex and the new
    cut on the merged side, so on integer forms in the exact lane it
    does not test those incidences again."""

    def test_they_hold_in_exact_rings(self):
        # over ints, Fractions and polynomials, on every reachable step
        from test_polynomial_ring import X, generic_point, gon_vertices

        rng = Random(227)
        gons = [small_gon(rng, kind, 5, False) for kind in ("ceva", "menelaos") * 6]
        gons += [ceva_gon_random(rng, 5), menelaos_gon_random(rng, 5)]
        v = gon_vertices(5)
        centre, other = generic_point(2), generic_point(3)
        cevians = (join(v[0], other),) + tuple(join(p, centre) for p in v[1:])
        lines = [Line(X[4], X[5], 1)] + [Line(X[6], X[7], 1)] * 4
        cuts = tuple(meet(join(v[i], v[(i + 1) % 5]), lines[i]) for i in range(5))
        gons += [CevaGon(v, cevians), MenelaosGon(v, cuts)]
        assert {type(c) for g in gons for o in g.vertices for c in o.triple} >= {
            int, Fraction, type(X[0])
        }
        checked = 0
        pending = list(gons)
        while pending:
            gon = pending.pop()
            m = gon.n
            if m == 3:
                continue
            for i in range(1, m + 1):
                try:
                    reduced = reduce_step(gon, i)
                except DegenerateStep:
                    continue
                if isinstance(gon, CevaGon):
                    k = 0 if i == m else i - 1
                    assert incident(reduced.cevians[k], reduced.vertices[k])
                else:
                    k = m - 2 if i == 1 else i - 2
                    assert incident(reduced.side(k + 1), reduced.side_points[k])
                checked += 1
                pending.append(reduced)
        assert checked > 300

    @pytest.mark.parametrize("theorem", ["ceva-ngon", "menelaos-ngon"])
    def test_they_are_tested_off_integer_forms(self, monkeypatch, theorem):
        # exact data in its own lane tests none; float data tests one
        # per step, on float triples and on objects under the float
        # backend and under the exact one alike; every incidence test
        # ends in a backend's incident
        gon = forced_hexagon(theorem)
        floats = floatify(gon)
        calls = Counter()
        count_steps(monkeypatch, calls)
        for cls in (ExactBackend, FloatBackend):
            monkeypatch.setattr(cls, "incident", counted(calls, "incident", cls.incident))
        runs = (
            (gon, None, "form step", False),
            (floats, None, "float step", True),
            (floats, EXACT, "step", True),
        )
        for data, backend, walk, tested in runs:
            calls.clear()
            try:
                check_of(data)(data, order="exhaustive", backend=backend)
            except DegenerateStep:
                pass
            assert calls[walk] > 0
            steps = calls["form step"] + calls["float step"] + calls["step"]
            assert calls["incident"] == (steps if tested else 0)
