"""Seeded .hgeo scenes whose assertions hold by construction.

Each scene is a fixed pattern of blocks with random rational
coordinates. Every block states a classical fact about what it builds:

- harmonic points: the conjugate of C on AB is harmonic with it;
- fourth harmonic line: the constructed line is harmonic with the
  pencil it was built from, and the pencil is concurrent;
- perspectivity: four collinear points and their projections from a
  centre onto another line have equal cross-ratios;
- Ceva gon: cevians through one centre are concurrent, pseudo-
  concurrent, and their ratio product is 1;
- Menelaos gon: the cuts of one transversal are collinear, pseudo-
  collinear, and their side ratio product is (-1)^n.

Degenerate draws (three collinear vertices, a centre on a join, a
transversal through a vertex, a parallel that would send a point to
infinity) are rejected here with plain Fraction arithmetic, so which
scenes are generated never depends on the code under test.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

# (gon kind, n, order) per scene, cycled by scene index. The n = 6
# reductions use order "first": exhaustive hexagons are what the
# reduce-exhaustive workload measures.
GON_PATTERNS = (
    (("ceva", 5, "exhaustive"), ("menelaos", 4, "first")),
    (("menelaos", 5, "exhaustive"), ("ceva", 6, "first")),
    (("ceva", 4, "exhaustive"), ("menelaos", 6, "first")),
    (("menelaos", 4, "exhaustive"), ("ceva", 5, "first")),
)


def _q(rng: Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.randint(1, 3))


def _point(rng: Random) -> tuple[Fraction, Fraction]:
    return (_q(rng), _q(rng))


def _det(p, q, r) -> Fraction:
    return (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])


def _line_through(p, q) -> tuple[Fraction, Fraction, Fraction]:
    a, b = p[1] - q[1], q[0] - p[0]
    return (a, b, -(a * p[0] + b * p[1]))


def _on(line, p) -> bool:
    return line[0] * p[0] + line[1] * p[1] + line[2] == 0


def _parallel(l, m) -> bool:
    return l[0] * m[1] - l[1] * m[0] == 0


def _lerp(p, q, t):
    return (p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1]))


def _fmt(v: Fraction) -> str:
    return str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}"


def _pt(name: str, p) -> str:
    return f"point {name} = ({_fmt(p[0])}, {_fmt(p[1])})"


def _general_points(rng: Random, n: int) -> list:
    """n distinct points, no three collinear."""
    while True:
        pts = [_point(rng) for _ in range(n)]
        if all(
            _det(pts[i], pts[j], pts[k]) != 0
            for i in range(n)
            for j in range(i + 1, n)
            for k in range(j + 1, n)
        ):
            return pts


def _harmonic_points(rng: Random, tag: str) -> tuple[list[str], int]:
    while True:
        a, b = _point(rng), _point(rng)
        t = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        if a != b and t not in (0, 1, Fraction(1, 2)):
            break
    c = _lerp(a, b, t)
    n = lambda s: f"{tag}{s}"  # noqa: E731
    return [
        _pt(n("A"), a),
        _pt(n("B"), b),
        _pt(n("C"), c),
        f"point {n('M')} = conjugate({n('A')}, {n('B')}; {n('C')})",
        f"assert harmonic({n('A')}, {n('B')}; {n('C')}, {n('M')})",
        f"assert collinear({n('A')}, {n('B')}, {n('C')}, {n('M')})",
    ], 2


def _fourth_harmonic(rng: Random, tag: str) -> tuple[list[str], int]:
    v, x1, x2, x3 = _general_points(rng, 4)
    n = lambda s: f"{tag}{s}"  # noqa: E731
    return [
        _pt(n("V"), v),
        _pt(n("X1"), x1),
        _pt(n("X2"), x2),
        _pt(n("X3"), x3),
        f"line {n('a')} = join({n('V')}, {n('X1')})",
        f"line {n('b')} = join({n('V')}, {n('X2')})",
        f"line {n('g')} = join({n('V')}, {n('X3')})",
        f"line {n('h')} = fourth_harmonic({n('V')}; {n('a')}, {n('b')}; {n('g')})",
        f"assert harmonic({n('a')}, {n('b')}; {n('g')}, {n('h')})",
        f"assert concurrent({n('a')}, {n('b')}, {n('g')}, {n('h')})",
    ], 2


def _perspectivity(rng: Random, tag: str) -> tuple[list[str], int]:
    while True:
        a, b, o, e, f = (_point(rng) for _ in range(5))
        ts = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(2)]
        if a == b or e == f or len({0, 1, *ts}) != 4:
            continue
        row = [a, b, _lerp(a, b, ts[0]), _lerp(a, b, ts[1])]
        base, target = _line_through(a, b), _line_through(e, f)
        if _on(base, o) or _on(target, o):
            continue
        if any(_parallel(_line_through(o, p), target) for p in row):
            continue
        break
    n = lambda s: f"{tag}{s}"  # noqa: E731
    out = [_pt(n(f"P{i}"), p) for i, p in enumerate(row)]
    out += [_pt(n("O"), o), _pt(n("E"), e), _pt(n("F"), f)]
    out.append(f"line {n('t')} = join({n('E')}, {n('F')})")
    for i in range(4):
        out.append(f"line {n(f'r{i}')} = join({n('O')}, {n(f'P{i}')})")
        out.append(f"point {n(f'Q{i}')} = meet({n(f'r{i}')}, {n('t')})")
    ps = ", ".join(n(f"P{i}") for i in range(4))
    qs = ", ".join(n(f"Q{i}") for i in range(4))
    out.append(f"assert cr_equal({ps}; {qs})")
    out.append(f"assert collinear({qs})")
    return out, 2


def _ceva(rng: Random, tag: str, size: int, order: str) -> tuple[list[str], int]:
    while True:
        vs = _general_points(rng, size)
        p = _point(rng)
        if all(
            _det(vs[i], vs[j], p) != 0
            for i in range(size)
            for j in range(i + 1, size)
        ):
            break
    n = lambda s: f"{tag}{s}"  # noqa: E731
    out = [_pt(n(f"V{i}"), v) for i, v in enumerate(vs)] + [_pt(n("P"), p)]
    out += [f"line {n(f'g{i}')} = join({n(f'V{i}')}, {n('P')})" for i in range(size)]
    verts = ", ".join(n(f"V{i}") for i in range(size))
    lines = ", ".join(n(f"g{i}") for i in range(size))
    out.append(f"gon {n('G')} = [{verts}]")
    out.append(f"assert concurrent({lines})")
    out.append(f"assert ceva_product({n('G')}, {lines}) = 1")
    out.append(f"assert pseudo_concurrent({n('G')}, {lines}) order = {order}")
    return out, 3


def _menelaos(rng: Random, tag: str, size: int, order: str) -> tuple[list[str], int]:
    while True:
        vs = _general_points(rng, size)
        e, f = _point(rng), _point(rng)
        if e == f:
            continue
        t = _line_through(e, f)
        sides = [_line_through(vs[i], vs[(i + 1) % size]) for i in range(size)]
        if any(_on(t, v) for v in vs) or any(_parallel(t, s) for s in sides):
            continue
        break
    n = lambda s: f"{tag}{s}"  # noqa: E731
    out = [_pt(n(f"V{i}"), v) for i, v in enumerate(vs)]
    out += [_pt(n("E"), e), _pt(n("F"), f), f"line {n('t')} = join({n('E')}, {n('F')})"]
    for i in range(size):
        out.append(f"line {n(f's{i}')} = join({n(f'V{i}')}, {n(f'V{(i + 1) % size}')})")
        out.append(f"point {n(f'B{i}')} = meet({n('t')}, {n(f's{i}')})")
    verts = ", ".join(n(f"V{i}") for i in range(size))
    cuts = ", ".join(n(f"B{i}") for i in range(size))
    out.append(f"gon {n('H')} = [{verts}]")
    out.append(f"assert collinear({cuts})")
    out.append(f"assert menelaos_product({n('H')}, {cuts}) = {(-1) ** size}")
    out.append(f"assert pseudo_collinear({n('H')}, {cuts}) order = {order}")
    return out, 3


def generate_scene(seed: int, index: int) -> tuple[str, int]:
    """Scene text and its number of assertions, all true by construction."""
    rng = Random(f"scene:{seed}:{index}")
    blocks = [
        _harmonic_points(rng, "h"),
        _fourth_harmonic(rng, "f"),
        _perspectivity(rng, "p"),
    ]
    for k, (kind, size, order) in enumerate(GON_PATTERNS[index % len(GON_PATTERNS)]):
        build = _ceva if kind == "ceva" else _menelaos
        blocks.append(build(rng, f"{kind[0]}{k}", size, order))
    lines = [f"# generated scene {index}, seed {seed}"]
    for stmts, _ in blocks:
        lines += stmts
    return "\n".join(lines) + "\n", sum(count for _, count in blocks)
