"""SVG and TikZ figures from evaluated scenes.

Styling follows the hand-drawn figures the scenes mirror: base lines
solid, harmonically derived lines dashed, coordinate (literal) points
as filled disks, constructed points as hollow ones.  Both formats draw
one canvas: the viewport maps the box onto it, and SVG writes its
coordinates in pixels, TikZ at 0.02cm per unit with the y flip in the
picture's unit vectors, so every number either writes stays on the
canvas whatever the box.  Output is a pure function of the scene text
and viewport: statements are walked in order and every coordinate is
printed with six decimals, so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import EXACT, Backend, Line, Point
from .dsl import Decl, GonDecl, SceneAst, evaluate

# the calls whose lines are harmonically derived, so drawn dashed
_DERIVED_LINE = ("fourth_harmonic", "complete_fourth_line")

# the side of the square canvas: SVG pixels, TikZ units of 0.02cm
CANVAS = 480.0


@dataclass(frozen=True)
class Viewport:
    """Affine window rendered onto the CANVAS-sized square.

    Geometry outside the box is clipped: lines become box segments,
    markers vanish.  Near-infinite points land far outside the box and
    are clipped with everything else.
    """

    x0: float
    y0: float
    x1: float
    y1: float

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("viewport box must have positive extent")
        # an infinite corner, or an extent past the float range, maps
        # every coordinate to nan
        box = (self.x0, self.y0, self.x1 - self.x0, self.y1 - self.y0)
        if not all(math.isfinite(v) for v in box):
            raise ValueError("viewport box must have finite corners and extent")

    @classmethod
    def parse(cls, text: str) -> "Viewport":
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError("viewport must be x0,y0,x1,y1")
        x0, y0, x1, y1 = (float(p) for p in parts)
        return cls(x0, y0, x1, y1)

    def to_canvas(self, x: float, y: float) -> tuple[float, float]:
        """Box coordinates to canvas coordinates, y growing downward."""
        sx = (x - self.x0) / (self.x1 - self.x0) * CANVAS
        sy = CANVAS - (y - self.y0) / (self.y1 - self.y0) * CANVAS
        return sx, sy

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1


def _affine(p: Point) -> tuple[float, float] | None:
    # an exact point has its integer form, and int / int rounds the
    # exact quotient correctly, as float(Fraction) does
    x, y, w = p._form or p.triple
    if w == 0:
        return None
    try:
        x, y = x / w, y / w
    except OverflowError:
        return None
    if not (math.isfinite(x) and math.isfinite(y)):
        return None
    return (x, y)


def _clip_param(p0, d, vp: Viewport, tmin: float, tmax: float):
    """Liang-Barsky interval clip of p0 + t*d against the box."""
    for pp, dd, lo, hi in (
        (p0[0], d[0], vp.x0, vp.x1),
        (p0[1], d[1], vp.y0, vp.y1),
    ):
        if dd == 0:
            if pp < lo or pp > hi:
                return None
        else:
            t1, t2 = (lo - pp) / dd, (hi - pp) / dd
            if t1 > t2:
                t1, t2 = t2, t1
            tmin, tmax = max(tmin, t1), min(tmax, t2)
            if tmin > tmax:
                return None
    if not (math.isfinite(tmin) and math.isfinite(tmax)):
        return None
    return (
        (p0[0] + tmin * d[0], p0[1] + tmin * d[1]),
        (p0[0] + tmax * d[0], p0[1] + tmax * d[1]),
    )


def _through(line: Line):
    """A point of the line and its direction, or None at infinity."""
    try:
        a, b, c = float(line.a), float(line.b), float(line.c)
    except OverflowError:
        # an exact line past the float range: int / int cannot overflow
        # when the divisor is the largest entry of the integer form
        a, b, c = line._form
        m = max(abs(a), abs(b), abs(c))
        a, b, c = a / m, b / m, c / m
    n2 = a * a + b * b
    if n2 == 0 or not math.isfinite(n2):
        return None
    return (-a * c / n2, -b * c / n2), (b, -a)


@dataclass(frozen=True)
class _Marker:
    name: str
    at: tuple[float, float]
    hollow: bool


def _collect(ast: SceneAst, env: dict):
    """Strokes and markers in statement order, unclipped; a stroke
    (p0, d, tmin, tmax, dashed) is p0 + t*d for t in [tmin, tmax]."""
    strokes = []
    markers = []
    for st in ast.statements:
        if isinstance(st, Decl) and st.kind == "point":
            at = _affine(env[st.name])
            if at is not None:
                hollow = not isinstance(st.expr, tuple)
                markers.append(_Marker(st.name, at, hollow))
        elif isinstance(st, Decl):
            ray = _through(env[st.name])
            if ray is not None:
                dashed = (
                    not isinstance(st.expr, tuple)
                    and st.expr.keyword in _DERIVED_LINE
                )
                strokes.append((*ray, -math.inf, math.inf, dashed))
        elif isinstance(st, GonDecl):
            pts = [_affine(env[v]) for v in st.vertices]
            for i, p in enumerate(pts):
                q = pts[(i + 1) % len(pts)]
                if p is not None and q is not None:
                    d = (q[0] - p[0], q[1] - p[1])
                    if d != (0.0, 0.0):
                        strokes.append((p, d, 0.0, 1.0, False))
    return strokes, markers


def _box_around(markers) -> Viewport:
    """Square box around the finite declared points (exactly the
    markers), 15% margin."""
    coords = [m.at for m in markers]
    if not coords:
        return Viewport(-5.0, -5.0, 5.0, 5.0)
    xs = [c[0] for c in coords]
    ys = [c[1] for c in coords]
    cx, cy = (min(xs) + max(xs)) / 2, (min(ys) + max(ys)) / 2
    span = max(max(xs) - min(xs), max(ys) - min(ys), 1.0)
    half = span / 2 + 0.15 * span
    return Viewport(cx - half, cy - half, cx + half, cy + half)


def _fmt(v: float) -> str:
    text = f"{v + 0.0:.6f}"
    # -0.0 and every value in (-5e-7, 0) round to a signed zero
    return "0.000000" if text == "-0.000000" else text


def _canvas(strokes, markers, vp: Viewport):
    """Clipped stroke ends and in-box marker centres on the canvas,
    each coordinate formatted once: what both formats draw."""
    ends = []
    for p0, d, tmin, tmax, dashed in strokes:
        clipped = _clip_param(p0, d, vp, tmin, tmax)
        if clipped is not None:
            (xa, ya), (xb, yb) = (vp.to_canvas(*e) for e in clipped)
            ends.append((_fmt(xa), _fmt(ya), _fmt(xb), _fmt(yb), dashed))
    centres = []
    for m in markers:
        if vp.contains(*m.at):
            cx, cy = vp.to_canvas(*m.at)
            centres.append((m, cx, cy, _fmt(cx), _fmt(cy)))
    return ends, centres


def _render_svg(ends, centres) -> str:
    side = _fmt(CANVAS)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{side}" height="{side}"'
        f' viewBox="0 0 {side} {side}">',
        f'<rect x="0" y="0" width="{side}" height="{side}" fill="white"/>',
    ]
    for xa, ya, xb, yb, dashed in ends:
        dash = ' stroke-dasharray="6 4"' if dashed else ""
        out.append(
            f'<line x1="{xa}" y1="{ya}" x2="{xb}" y2="{yb}"'
            f' stroke="black" stroke-width="1"{dash}/>'
        )
    for m, cx, cy, x, y in centres:
        fill = "white" if m.hollow else "black"
        out.append(
            f'<circle cx="{x}" cy="{y}" r="3" fill="{fill}"'
            ' stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(cx + 5)}" y="{_fmt(cy - 5)}"'
            f' font-family="sans-serif" font-size="11">{m.name}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def _render_tikz(ends, centres) -> str:
    # the unit vectors carry the scale and the canvas's downward y, so a
    # 480-unit canvas is a 9.6cm picture; node anchors and the marker
    # radius are not flipped by them
    side = _fmt(CANVAS)
    out = [
        "\\begin{tikzpicture}[x=0.02cm, y=-0.02cm]",
        f"\\clip (0, 0) rectangle ({side}, {side});",
    ]
    for xa, ya, xb, yb, dashed in ends:
        style = "dashed" if dashed else "solid"
        out.append(f"\\draw[{style}] ({xa}, {ya}) -- ({xb}, {yb});")
    for m, _, _, x, y in centres:
        fill = "white" if m.hollow else "black"
        out.append(f"\\filldraw[fill={fill}] ({x}, {y}) circle (2pt);")
        # a name may contain "_", which LaTeX accepts only in math mode
        label = m.name.replace("_", "\\_")
        out.append(
            f"\\node[anchor=south west, font=\\scriptsize] at ({x}, {y})"
            f" {{{label}}};"
        )
    out.append("\\end{tikzpicture}")
    return "\n".join(out) + "\n"


def render_scene(
    ast: SceneAst,
    fmt: str = "svg",
    viewport: Viewport | None = None,
    backend: Backend = EXACT,
) -> str:
    """Figure text for a scene; fmt is "svg" or "tikz"."""
    if fmt not in ("svg", "tikz"):
        raise ValueError(f"unknown format {fmt!r}")
    # one evaluation serves the strokes and the viewport; it also runs
    # every assertion, so one that raises still fails the render
    strokes, markers = _collect(ast, evaluate(ast, backend).bindings)
    vp = viewport if viewport is not None else _box_around(markers)
    ends, centres = _canvas(strokes, markers, vp)
    if fmt == "svg":
        return _render_svg(ends, centres)
    return _render_tikz(ends, centres)
