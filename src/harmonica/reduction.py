"""Two-sided Ceva and Menelaos machinery for n-gons.

An n-gon with one cevian per vertex (or one cut point per side) can be
reduced step by step to a triangle; pseudo-concurrency of the cevians
(pseudo-collinearity of the cuts) means the triangle's three lines are
concurrent (points are collinear).  For a gon with no collinear vertex
triple the verdict does not depend on the order of reduction steps;
with one it may, and exhaustive checking then raises
InconsistentOrders.  Each notion has an equivalent exact ratio
product.  Vertex order is part of the data: relabeling a gon along a
different cyclic order changes the products and may change the verdict.

The two gon kinds are dual and share one body, _Gon: validation,
sides, JSON and the items view (the cevians or the cuts).  Each kind
adds only its fields, its kind string, its item type and count message,
its slot check and its step, which reduce_step runs once.  Steps run
on the vertex and item tuples, through a lane; _Lane says which lane
takes which data.

_run_reduction reduces a gon along one order on objects.  Exhaustive
checking starts with it on the first order, (1, ..., 1).  Then one
walk, _first_order, takes every step choice in the prefix tree,
reduces each shared prefix once, takes the first order's reduced gons
from that reduction and skips a reduced gon whose removed slots it has
walked.  The trace a caller gets is the first order's reduction if the
walk reports that order, else the reported order reduced on objects.

Step indices throughout this module are 1-based and cyclic, matching
the usual way polygon vertices are numbered.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, field
from functools import partial
from itertools import product as _iter_product
from operator import attrgetter
from random import Random
from typing import Callable, ClassVar, Iterator, NamedTuple, Sequence

from .core import (
    EXACT,
    Backend,
    CoincidentLines,
    CoincidentPoints,
    DegenerateInput,
    FloatBackend,
    GeometryError,
    Line,
    Point,
    Scalar,
    UndefinedFoot,
    UndefinedRatio,
    _backend_of,
    _float_cross,
    _int_cross,
    _proportional,
    collinear,
    dualize,
    incident,
    join,
    meet,
    ratio_product,
    signed_ratio,
)

REDUCTION_SCHEMA = 1


class DegenerateStep(GeometryError):
    """A reduction step hit coincident objects and cannot proceed.

    Distinct from a False verdict: a degenerate order neither confirms
    nor refutes pseudo-concurrency.  When raised by a full reduction
    run, carries the trace prefix of the steps that did succeed.
    """

    def __init__(self, reason: str, index: int | None = None, trace=None):
        super().__init__(reason)
        self.reason = reason
        self.index = index
        self.trace = trace


class InconsistentOrders(GeometryError):
    """Two reduction orders returned different verdicts for one gon."""


class ReplayMismatch(GeometryError):
    """A replayed trace produced different objects than it recorded."""


# ---------------------------------------------------------------------------
# gon types and their reduction steps


# What the constructors reject at slot k (0-based), as the message text,
# read off the vertex tuple A and the item tuple (cevians g, cuts B);
# reduction steps run the same checks on the slots they create.  eq is
# the equality and on(line, point) the incidence test of the caller:
# a constructor's backend, or a step's lane (see _Lane).


def _pair_defect(A: tuple, k: int, eq=operator.eq) -> str | None:
    n = len(A)
    if eq(A[k], A[(k + 1) % n]):
        return f"consecutive vertices {k + 1} and {(k + 1) % n + 1} coincide"
    return None


def _cevian_defect(A: tuple, g: tuple, k: int, on) -> str | None:
    if not on(g[k], A[k]):
        return f"cevian {k + 1} does not pass through vertex {k + 1}"
    return None


def _cut_defect(
    A: tuple, B: tuple, k: int, on, eq=operator.eq, side: Line | None = None
) -> str | None:
    # side: side k + 1, when a step built the cut on it
    n = len(A)
    cut = B[k]
    if not on(join(A[k], A[(k + 1) % n]) if side is None else side, cut):
        return f"cut {k + 1} is not on side {k + 1}"
    if eq(cut, A[k]) or eq(cut, A[(k + 1) % n]):
        return f"cut {k + 1} coincides with a vertex"
    return None


class _Lane(NamedTuple):
    """The five operations a reduction step and a walk run on elements:
    join, meet, eq (projective equality), built_on (the incidence test
    of a point a step built on a line, or of a line it built through a
    point) and dependent (the triangle's verdict).  A step touches its
    elements only through its lane, so one step body serves three lanes:

    - _FORMS, the exhaustive walk of exact data under the exact backend,
      on integer-form tuples.  join and meet are core's _int_cross, so
      they give the form core's join and meet give the elements and
      raise the same error classes; eq is projective equality; and
      built_on holds, since (p x q).p = 0 over the integers.  Every
      test is the exact backend's.
    - _float_lane(backend), the exhaustive walk of all-float data under
      the float backend, on the elements' float triples.  join and meet
      are core's _float_cross, so they give the triple core's join and
      meet give and raise where they raise; eq is == on elements
      without an integer form; built_on and dependent are the backend's
      tests.  Every test is the one the object lane makes on the same
      data.
    - _object_lane(backend), on Point and Line objects: every reduction
      along one order, and the exhaustive walk of any other data (mixed
      data, ring elements, exact data under the float backend and float
      data under the exact backend).

    In every lane the trace is one order reduced on objects: the first
    order, (1, ..., 1), reduced before the walk, which reads that
    reduction's gons in its lane instead of stepping to them, or, if the
    walk reports another order, that order reduced after it.
    """

    join: Callable
    meet: Callable
    eq: Callable
    built_on: Callable
    dependent: Callable


def _built_on_integers(line: tuple, point: tuple) -> bool:
    return True


_FORMS = _Lane(
    partial(_int_cross, CoincidentPoints),
    partial(_int_cross, CoincidentLines),
    _proportional,
    _built_on_integers,
    EXACT.dependent,
)


def _float_lane(backend: FloatBackend) -> _Lane:
    return _Lane(
        partial(_float_cross, CoincidentPoints),
        partial(_float_cross, CoincidentLines),
        _proportional,
        backend.incident,
        backend.dependent,
    )


def _built_on_objects(backend: Backend, line: Line, point: Point) -> bool:
    # (p x q).p = 0 in any commutative ring, so the test is skipped
    # where incident would run on integer forms; on float coordinates
    # rounding may break it, and under the exact backend the test is
    # what rejects such data
    on_forms = line._form is not None and point._form is not None
    return (on_forms and backend.kind == "exact") or incident(line, point, backend)


def _object_lane(backend: Backend) -> _Lane:
    # join and meet are read when the lane is built, so a caller that
    # replaced this module's join or meet (the benchmark's tracer) sees
    # every call
    return _Lane(
        join,
        meet,
        operator.eq,
        partial(_built_on_objects, backend),
        partial(collinear, backend=backend),
    )


def _made(build: Callable, a, b, reason: str, i: int):
    """build(a, b), a lane's join or meet in the step at index i, with
    the coincidence that makes it raise given as DegenerateStep(reason,
    i): the construction decides the coincidence, not a test before it."""
    try:
        return build(a, b)
    except (CoincidentPoints, CoincidentLines):
        raise DegenerateStep(reason, i)


def _ceva_step(A: tuple, g: tuple, i: int, lane):
    """CevaGon._step: collapse the vertex pair (i, i+1) into the meet of
    its two outer sides; the new cevian joins the new vertex to the
    crossing of the two removed cevians."""
    m = len(A)
    if m < 4:
        raise ValueError("reduction steps need at least a 4-gon")
    if not 1 <= i <= m:
        raise ValueError(f"step index {i} out of range 1..{m}")
    i0 = i - 1
    j0 = (i0 + 1) % m
    prev, nxt = (i0 - 1) % m, (j0 + 1) % m
    side_in = lane.join(A[prev], A[i0])
    side_out = lane.join(A[j0], A[nxt])
    new_vertex = _made(
        lane.meet, side_in, side_out, "outer sides of the chosen pair coincide", i
    )
    crossing = _made(lane.meet, g[i0], g[j0], "the two removed cevians coincide", i)
    new_line = _made(
        lane.join,
        new_vertex,
        crossing,
        "new vertex equals the crossing of the removed cevians",
        i,
    )
    if j0 == 0:
        # wrapped pair (m, 1): the replacement takes slot 1
        k = 0
        new_vs = (new_vertex,) + A[1 : m - 1]
        new_gs = (new_line,) + g[1 : m - 1]
    else:
        k = i0
        new_vs = A[:i0] + (new_vertex,) + A[j0 + 1 :]
        new_gs = g[:i0] + (new_line,) + g[j0 + 1 :]
    # the slots that hold the new vertex, in the constructor's order;
    # the new cevian passes through the new vertex by construction
    for s in (k - 1, k) if k else (0, m - 2):
        defect = _pair_defect(new_vs, s, lane.eq)
        if defect is None and s == k:
            defect = _cevian_defect(new_vs, new_gs, k, lane.built_on)
        if defect:
            raise DegenerateStep(f"reduced gon is degenerate: {defect}", i)
    return new_vs, new_gs, (i, new_vertex, new_line, None)


def _menelaos_step(A: tuple, B: tuple, i: int, lane):
    """MenelaosGon._step: remove vertex i, merging its two sides; the
    cut on the merged side is its meet with the line through the two
    removed cuts."""
    m = len(A)
    if m < 4:
        raise ValueError("reduction steps need at least a 4-gon")
    if not 1 <= i <= m:
        raise ValueError(f"step index {i} out of range 1..{m}")
    i0 = i - 1
    prev, nxt = (i0 - 1) % m, (i0 + 1) % m
    merged = _made(
        lane.join, A[prev], A[nxt], "neighbors of the removed vertex coincide", i
    )
    transversal = _made(lane.join, B[prev], B[i0], "the two removed cuts coincide", i)
    new_point = _made(
        lane.meet, merged, transversal, "cut transversal equals the merged side", i
    )
    if i0 == 0:
        k = m - 2
        new_vs = A[1:]
        new_bs = B[1 : m - 1] + (new_point,)
    else:
        k = i0 - 1
        new_vs = A[:i0] + A[i0 + 1 :]
        new_bs = B[: i0 - 1] + (new_point,) + B[i0 + 1 :]
    # the merged side k already has distinct endpoints, and the new cut
    # is on it by construction
    defect = _cut_defect(new_vs, new_bs, k, lane.built_on, lane.eq, merged)
    if defect:
        raise DegenerateStep(f"reduced gon is degenerate: {defect}", i)
    return new_vs, new_bs, (i, None, None, new_point)


class _Gon:
    """What CevaGon and MenelaosGon share: a cyclic vertex list and one
    item per slot, the cevian through vertex i or the cut on side i.

    Each subclass declares its two fields (vertices, then the items),
    its kind, its item type with the message for a wrong item count,
    its slot check and its reduction step.  Both run on the vertex and
    item tuples, not on a gon: _step(A, items, i, lane) returns the
    reduced tuples and a plain record (index, vertex, line, point) of
    what it made; it checks only the slots it creates, and joins, meets
    and tests through its lane (see _Lane).  A gon and a ReductionStep
    are built only where a caller sees them.
    """

    kind: ClassVar[str]
    _item: ClassVar[type]
    _count_message: ClassVar[str]
    _items_field: ClassVar[str]
    _step: ClassVar

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # items, the cevians or the cuts: the field declared after vertices
        cls._items_field = tuple(cls.__annotations__)[1]
        cls.items = property(attrgetter(cls._items_field))

    def __post_init__(self) -> None:
        n = len(self.vertices)
        if n < 3:
            raise DegenerateInput("a gon needs at least 3 vertices")
        items = self.items
        if len(items) != n:
            raise DegenerateInput(self._count_message)
        vertices = self.vertices
        be = _backend_of(*vertices, *items)

        def on(line: Line, point: Point) -> bool:
            return incident(line, point, be)

        for i in range(n):
            defect = _pair_defect(vertices, i) or self._slot_defect(
                vertices, items, i, on
            )
            if defect:
                raise DegenerateInput(defect)

    @property
    def n(self) -> int:
        return len(self.vertices)

    def side(self, i: int) -> Line:
        """Side from vertex i to vertex i+1 (1-based, cyclic)."""
        v = self.vertices
        return join(v[i - 1], v[i % self.n])

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "vertices": [p.to_json() for p in self.vertices],
            self._items_field: [o.to_json() for o in self.items],
        }

    @classmethod
    def from_json(cls, data: dict):
        return cls(
            tuple(Point.from_json(p) for p in data["vertices"]),
            tuple(cls._item.from_json(o) for o in data[cls._items_field]),
        )


@dataclass(frozen=True)
class CevaGon(_Gon):
    """Cyclic vertex list with one cevian line through each vertex."""

    vertices: tuple[Point, ...]
    cevians: tuple[Line, ...]

    kind = "ceva"
    _item = Line
    _count_message = "one cevian per vertex required"
    _slot_defect = staticmethod(_cevian_defect)
    _step = staticmethod(_ceva_step)


@dataclass(frozen=True)
class MenelaosGon(_Gon):
    """Cyclic vertex list with one cut point on each side.

    side_points[i] lies on the side from vertices[i] to vertices[i+1]
    and differs from both endpoints.
    """

    vertices: tuple[Point, ...]
    side_points: tuple[Point, ...]

    kind = "menelaos"
    _item = Point
    _count_message = "one side point per side required"
    _slot_defect = staticmethod(_cut_defect)
    _step = staticmethod(_menelaos_step)


def _trusted(cls, vertices: tuple, items: tuple):
    """A gon built without __post_init__.

    Only for the tuples a reduction step returns: every slot a step
    carries over was validated in the parent gon, and the step checks
    the slots it creates.
    """
    gon = object.__new__(cls)
    object.__setattr__(gon, "vertices", vertices)
    object.__setattr__(gon, cls._items_field, items)
    return gon


def reduce_step(gon: CevaGon | MenelaosGon, i: int) -> CevaGon | MenelaosGon:
    """One reduction step at index i (1-based cyclic): a CevaGon
    collapses its vertex pair (i, i+1), a MenelaosGon drops vertex i.

    Every vertex, cevian and cut the step does not touch carries over.
    Only the slots the step creates are validated, in the data's lane,
    since everything else was already validated in the input gon; a
    degenerate result raises DegenerateStep.  An index that is not an
    int (a bool, a float, a string) raises ValueError.
    """
    # type, not isinstance: a bool is an int, but not a step index
    if type(i) is not int:
        raise ValueError(f"step index must be an integer, got {i!r}")
    cls = type(gon)
    lane = _object_lane(_backend_of(*gon.vertices, *gon.items))
    return _trusted(cls, *cls._step(gon.vertices, gon.items, i, lane)[:2])


def gon_from_json(data: dict) -> CevaGon | MenelaosGon:
    if not isinstance(data, dict):
        raise TypeError(f"a gon must be a JSON object, got {data!r}")
    kind = data.get("kind")
    for cls in (CevaGon, MenelaosGon):
        if kind == cls.kind:
            return cls.from_json(data)
    raise ValueError(f"unknown gon kind {kind!r}")


# ---------------------------------------------------------------------------
# ratio products


def diagonal_ratio_product(
    vertices: Sequence[Point], lines: Sequence[Line], backend: Backend = EXACT
) -> Scalar:
    """Exact cevian ratio product over short diagonals.

    With D_i the cut of line i on the diagonal from vertex i-1 to
    vertex i+1, the product runs over (A_i D_{i+1} / D_{i+1} A_{i+2});
    it equals 1 exactly when the lines are pseudo-concurrent for this
    vertex order.
    """
    A = tuple(vertices)
    g = tuple(lines)
    n = len(A)
    cuts = []
    for i in range(n):
        try:
            cuts.append(meet(join(A[(i - 1) % n], A[(i + 1) % n]), g[i]))
        except CoincidentPoints:
            raise UndefinedFoot(f"diagonal at vertex {i + 1} collapses")
        except CoincidentLines:
            raise UndefinedFoot(f"line {i + 1} lies on its diagonal")
    terms = []
    for i in range(n):
        j, k = (i + 1) % n, (i + 2) % n
        r = signed_ratio(A[i], cuts[j], A[k], backend)
        if r.is_infinite():
            raise UndefinedFoot(f"cut D{j + 1} hits vertex {k + 1}")
        terms.append(r)
    return ratio_product(terms)


def ceva_product(gon: CevaGon, backend: Backend = EXACT) -> Scalar:
    """Ratio product of a cevian gon; 1 exactly on pseudo-concurrency."""
    return diagonal_ratio_product(gon.vertices, gon.cevians, backend)


def menelaos_product(gon: MenelaosGon, backend: Backend = EXACT) -> Scalar:
    """Side ratio product of a cut gon; (-1)^n exactly on
    pseudo-collinearity."""
    A, B = gon.vertices, gon.side_points
    n = gon.n
    terms = []
    for i in range(n):
        r = signed_ratio(A[i], B[i], A[(i + 1) % n], backend)
        if r.is_infinite():
            raise UndefinedRatio(f"cut {i + 1} coincides with vertex {i + 2}")
        terms.append(r)
    return ratio_product(terms)


# ---------------------------------------------------------------------------
# traces


@dataclass
class ReductionStep:
    """One recorded step: the chosen index and the objects it created."""

    index: int
    vertex: Point | None = None
    line: Line | None = None
    point: Point | None = None

    def to_json(self) -> dict:
        out: dict = {"index": self.index}
        if self.vertex is not None:
            out["vertex"] = self.vertex.to_json()
        if self.line is not None:
            out["line"] = self.line.to_json()
        if self.point is not None:
            out["point"] = self.point.to_json()
        return out

    @classmethod
    def from_json(cls, data: dict) -> "ReductionStep":
        index = data["index"]
        if type(index) is not int:
            raise ValueError(f"step index must be an integer, got {index!r}")
        return cls(
            index=index,
            vertex=Point.from_json(data["vertex"]) if "vertex" in data else None,
            line=Line.from_json(data["line"]) if "line" in data else None,
            point=Point.from_json(data["point"]) if "point" in data else None,
        )


@dataclass
class ReductionTrace:
    """Full record of a reduction run: start gon, steps, final triangle,
    verdict.  Serializes to JSON lines for bit-exact replay."""

    start: CevaGon | MenelaosGon
    steps: list[ReductionStep] = field(default_factory=list)
    final: CevaGon | MenelaosGon | None = None
    verdict: bool | None = None

    @property
    def kind(self) -> str:
        return self.start.kind

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(s.index for s in self.steps)

    def to_json_lines(self) -> str:
        start = self.start.to_json()
        rows = [{"schema": REDUCTION_SCHEMA, "kind": self.kind, "gon": start}]
        rows += [step.to_json() for step in self.steps]
        if self.final is not None:
            rows.append({"final": self.final.to_json(), "verdict": self.verdict})
        return "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)

    @classmethod
    def from_json_lines(cls, text: str) -> "ReductionTrace":
        """Read a trace back; a malformed line raises ValueError("trace
        line N: ..."), N counting from 1, and so does a header whose
        schema is not REDUCTION_SCHEMA or whose kind is not its gon's."""
        trace = None
        for number, line in enumerate(text.splitlines(), 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
                if not isinstance(row, dict):
                    raise ValueError(f"expected a JSON object, got {row!r}")
                if trace is None:
                    if "kind" not in row:
                        raise ValueError("expected the header line, with a kind")
                    schema, kind = row["schema"], row["kind"]
                    if type(schema) is not int or schema != REDUCTION_SCHEMA:
                        raise ValueError(f"unknown schema {schema!r}")
                    trace = cls(gon_from_json(row["gon"]))
                    if kind != trace.kind:
                        raise ValueError(
                            f"header kind {kind!r} is not the gon's, {trace.kind!r}"
                        )
                elif "final" in row:
                    trace.final = gon_from_json(row["final"])
                    trace.verdict = row["verdict"]
                    if type(trace.verdict) is not bool:
                        raise ValueError(
                            f"verdict must be true or false, got {trace.verdict!r}"
                        )
                else:
                    trace.steps.append(ReductionStep.from_json(row))
            except KeyError as exc:
                raise ValueError(f"trace line {number}: missing key {exc}") from None
            except (TypeError, ValueError, ZeroDivisionError, GeometryError) as exc:
                raise ValueError(f"trace line {number}: {exc}") from None
        if trace is None:
            raise ValueError("trace must start with a header line")
        return trace


# ---------------------------------------------------------------------------
# drivers


def _first_order(
    gon: CevaGon | MenelaosGon,
    A: tuple,
    items: tuple,
    lane,
    descent: Sequence | None = None,
) -> tuple[int, ...] | None:
    """The lexicographically first order that reduces the gon (A and
    items in the lane) to a triangle, or None if every order degenerates.

    descent, if given, holds in the lane the vertex and item tuples of
    the gons that the first order, (1, ..., 1), reduced the gon to, one
    per step that succeeded: the walk takes them for its leftmost path
    instead of stepping, and passes over the step at which that order
    degenerated.

    The walk visits the orders of all_reduction_orders in turn, reducing
    each shared prefix once, and raises InconsistentOrders at the first
    verdict that differs from the first one.  In every lane it skips,
    before stepping, any reduced gon, triangles included, whose removed
    slots it has walked: such gons are projectively equal (Lemma A of
    ROADMAP.md, proved where the kept slots are in general position by
    test_merging_three_arcs_is_associative in the ring tests), so that
    subtree's verdicts and degenerate steps would repeat the walked
    one's, later.  So it steps once to each set of removed slots that a
    step reaches.  On float data such gons are equal only up to
    rounding, so a float walk may miss a disagreement that reducing each
    order on its own would meet.
    """
    step = type(gon)._step
    ceva = gon.kind == "ceva"  # by kind: a caller may wrap the step to count it
    n = len(A)
    walked: set[int] = set()  # the keys of the reduced gons stepped to
    path: list[int] = []  # the step indices from gon down to the current gon
    first: tuple[bool, tuple[int, ...]] | None = None  # verdict, order

    def decide(items: tuple) -> None:
        # the triangle that path reduces the gon to; collinear is
        # concurrent: the cuts' or the cevians' test
        nonlocal first
        verdict = lane.dependent(*items)
        if first is None:
            first = verdict, tuple(path)
        elif verdict != first[0]:
            raise InconsistentOrders(
                f"order {tuple(path)} gave {verdict}, "
                f"order {first[1]} gave {first[0]}"
            )

    def walk(
        A: tuple, items: tuple, labels: tuple, mask: int, m: int, left: bool
    ) -> None:
        # m is len(A), at least 4; left: path is all ones, so descent
        # holds the gons the step at 1 makes from here on down
        for idx in range(1, m + 1):
            # labels, kept beside the tuples, give each position's
            # original slot, and mask has a bit for each; the key is the
            # mask without gone, the label the step drops, so it is known
            # before the step: a Menelaos step drops its vertex's label,
            # a Ceva step its pair's second, labels[0] at the wrapped
            # pair (m, 1), whose first label moves to the front
            if not ceva:
                gone = labels[idx - 1]
            elif idx < m:
                gone = labels[idx]
            else:
                gone = labels[0]
            key = mask ^ (1 << gone)
            if key in walked:
                continue
            if left and idx == 1:
                if n - m == len(descent):
                    continue  # the first order degenerated at this step
                A2, items2 = descent[n - m]
            else:
                try:
                    A2, items2, _ = step(A, items, idx, lane)
                except DegenerateStep:
                    continue  # its key stays open: another path may reach it
            walked.add(key)
            path.append(idx)
            if m == 4:
                decide(items2)
            else:
                if not ceva:
                    labels2 = labels[: idx - 1] + labels[idx:]
                elif idx < m:
                    labels2 = labels[:idx] + labels[idx + 1 :]
                else:
                    labels2 = labels[-1:] + labels[1:-1]
                walk(A2, items2, labels2, key, m - 1, left and idx == 1)
            path.pop()

    try:
        if n == 3:
            decide(items)
        else:
            walk(A, items, tuple(range(n)), (1 << n) - 1, n, descent is not None)
    finally:
        del walk  # it refers to itself: drop the cycle instead of leaving it to gc
    return None if first is None else first[1]


def _run_reduction(
    gon: CevaGon | MenelaosGon,
    indices: Sequence[int],
    backend: Backend,
    reached: list | None = None,
) -> tuple[bool, ReductionTrace]:
    """Reduce the gon to a triangle along one order, on objects under
    the backend.  A DegenerateStep carries the trace prefix of the
    steps that succeeded.  Each step that succeeds appends the gon it
    reduced to to reached, if given.
    """
    n = gon.n
    if len(indices) != n - 3:
        raise ValueError(
            f"a {n}-gon reduces in exactly {n - 3} steps, "
            f"got {len(indices)} indices"
        )
    cls = type(gon)
    lane = _object_lane(backend)
    A, items = gon.vertices, gon.items
    steps: list[ReductionStep] = []
    for idx in indices:
        try:
            A, items, record = cls._step(A, items, idx, lane)
        except DegenerateStep as exc:
            exc.trace = ReductionTrace(gon, steps)
            raise
        steps.append(ReductionStep(*record))
        if reached is not None:
            reached.append(_trusted(cls, A, items))
    verdict = lane.dependent(*items)
    final = _trusted(cls, A, items) if steps else gon
    return verdict, ReductionTrace(gon, steps, final, verdict)


def all_reduction_orders(n: int) -> Iterator[tuple[int, ...]]:
    """Every full sequence of 1-based step choices for an n-gon, in
    lexicographic order.

    Exhaustive checking visits the orders in this order, but reduces
    each shared prefix of step choices only once.
    """
    ranges = [range(1, m + 1) for m in range(n, 3, -1)]
    yield from _iter_product(*ranges)


def _resolve_order(gon, order) -> Sequence[int] | None:
    steps = gon.n - 3
    if order == "first":
        return (1,) * steps
    if isinstance(order, tuple) and len(order) == 2 and order[0] == "seed":
        rng = Random(order[1])
        return tuple(rng.randint(1, m) for m in range(gon.n, 3, -1))
    # type, not isinstance: a bool is an int, but not a step index
    if isinstance(order, (tuple, list)) and all(type(i) is int for i in order):
        return tuple(order)
    if order == "exhaustive":
        return None
    raise ValueError(f"unknown reduction order {order!r}")


def _read(gon, field: str | None) -> tuple[tuple, tuple]:
    # the gon's vertex and item tuples, each element read as its field,
    # or the elements themselves when field is None
    if field is None:
        return gon.vertices, gon.items
    get = attrgetter(field)
    return tuple(map(get, gon.vertices)), tuple(map(get, gon.items))


def _pseudo_check(gon, order, backend) -> tuple[bool, ReductionTrace]:
    objs = (*gon.vertices, *gon.items)
    be = backend or _backend_of(*objs)
    indices = _resolve_order(gon, order)
    if indices is not None:
        return _run_reduction(gon, indices, be)
    # an n-gon has n!/6 orders; the walk steps once per set of removed
    # slots but along the first order, whose n - 3 steps the trace takes
    # (4,007 at n = 12), at most sum C(n, k) (n - k) times (23,772)
    if gon.n > 12:
        raise ValueError("exhaustive order checking is limited to n <= 12")
    first = (1,) * (gon.n - 3)
    reached: list = []
    try:
        result = _run_reduction(gon, first, be, reached)
    except DegenerateStep as exc:
        # raised again below if every order degenerates; kept without its
        # traceback, which refers to this frame
        failed = exc.reason, exc.index, exc.trace
    if be.kind == "exact" and all(o._form is not None for o in objs):
        lane, field = _FORMS, "_form"
    elif be.kind == "float" and all(type(c) is float for o in objs for c in o.triple):
        lane, field = _float_lane(be), "triple"
    else:
        lane, field = _object_lane(be), None
    descent = [_read(reduced, field) for reduced in reached]
    found = _first_order(gon, *_read(gon, field), lane, descent)
    if found is None:
        # every order degenerates: the first order's DegenerateStep, with
        # its trace prefix
        raise DegenerateStep(*failed)
    if found == first:
        return result
    return _run_reduction(gon, found, be)


def is_pseudo_concurrent(
    gon: CevaGon, order="first", backend: Backend | None = None
) -> tuple[bool, ReductionTrace]:
    """Whether the cevians reduce to a concurrent triangle triple.

    order: "first" (always collapse the pair at index 1),
    "exhaustive" (check every order, n <= 12, and require agreement),
    ("seed", k) for a seeded random order, or an explicit tuple of
    1-based indices with one entry per step.  backend None decides in
    the data's lane (see harmonica.core).

    "exhaustive" reduces each prefix shared by several orders once.
    Before each step it skips the reduced gon, triangle or not, whose
    set of removed slots it has walked, since such gons are
    projectively equal (up to rounding on float data): orders that
    remove the same slots are checked once.  It finds the
    lexicographically first non-degenerate order, or
    raises InconsistentOrders at the first order whose verdict differs
    from that one's; the trace is that order reduced on objects.  When
    every order degenerates it raises the DegenerateStep of the first
    order, carrying that order's trace prefix.
    """
    return _pseudo_check(gon, order, backend)


def is_pseudo_collinear(
    gon: MenelaosGon, order="first", backend: Backend | None = None
) -> tuple[bool, ReductionTrace]:
    """Whether the side cuts reduce to a collinear triangle triple.

    Accepts the same orders and backend as is_pseudo_concurrent, and
    "exhaustive" (n <= 12) likewise shares step prefixes between orders,
    checks orders that remove the same slots once and returns the trace
    of the lexicographically first non-degenerate order, reduced on
    objects.
    """
    return _pseudo_check(gon, order, backend)


def replay_trace(trace: ReductionTrace, backend: Backend | None = None) -> ReductionTrace:
    """Re-run a recorded reduction and demand bit-identical objects.

    Raises ReplayMismatch if any recreated vertex, line, point, final
    gon, or verdict differs from the recording, comparing their JSON
    forms, whose coordinates are exact, so the check is exact.
    """
    be = backend or _backend_of(*trace.start.vertices, *trace.start.items)
    verdict, fresh = _run_reduction(trace.start, trace.indices, be)
    for old, new in zip(trace.steps, fresh.steps):
        if old.to_json() != new.to_json():
            raise ReplayMismatch(
                f"step at index {old.index} reproduced different objects"
            )
    if trace.final is not None and trace.final.to_json() != fresh.final.to_json():
        raise ReplayMismatch("final gon differs from the recording")
    if trace.verdict is not None and trace.verdict != verdict:
        raise ReplayMismatch(
            f"verdict {verdict} differs from recorded {trace.verdict}"
        )
    return fresh


# ---------------------------------------------------------------------------
# duality


def duality_bridge(gon: CevaGon | MenelaosGon) -> MenelaosGon | CevaGon:
    """Swap a cut gon for its dual cevian gon and vice versa.

    For a MenelaosGon, vertex i of the dual is the dual point of side
    i and cevian i is the dual line of cut i; pseudo-collinearity of
    the cuts equals pseudo-concurrency of the dual cevians.  Applying
    the bridge twice returns the original gon (projectively).
    """
    n = gon.n
    if isinstance(gon, MenelaosGon):
        verts = tuple(dualize(gon.side(i)) for i in range(1, n + 1))
        cevs = tuple(dualize(b) for b in gon.side_points)
        return CevaGon(verts, cevs)
    duals = [dualize(v) for v in gon.vertices]
    verts = tuple(
        meet(duals[(i - 1) % n], duals[i]) for i in range(n)
    )
    cuts = tuple(dualize(g) for g in gon.cevians)
    return MenelaosGon(verts, cuts)
