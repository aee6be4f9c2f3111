"""SVG and TikZ figures from evaluated scenes.

Styling follows the hand-drawn figures the scenes mirror: base lines
solid, harmonically derived lines dashed, coordinate (literal) points
as filled disks, constructed points as hollow ones.  Output is a pure
function of the scene text and viewport: statements are walked in
order and every coordinate is printed with six decimals, so repeated
runs are byte-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import EXACT, Backend, Point, exact_div
from .dsl import Decl, GonDecl, SceneAst, evaluate

# the calls whose lines are harmonically derived, so drawn dashed
_DERIVED_LINE = ("fourth_harmonic", "complete_fourth_line")


@dataclass(frozen=True)
class Viewport:
    """Affine window rendered onto a fixed-size canvas.

    Geometry outside the box is clipped: lines become box segments,
    markers vanish.  Near-infinite points land far outside the box and
    are clipped with everything else.
    """

    x0: float
    y0: float
    x1: float
    y1: float
    width: float = 480.0
    height: float = 480.0

    def __post_init__(self):
        if not (self.x1 > self.x0 and self.y1 > self.y0):
            raise ValueError("viewport box must have positive extent")
        # an infinite corner, or an extent past the float range, maps
        # every coordinate to nan
        box = (self.x0, self.y0, self.x1 - self.x0, self.y1 - self.y0)
        if not all(math.isfinite(v) for v in box):
            raise ValueError("viewport box must have finite corners and extent")
        if not (self.width > 0 and self.height > 0):
            raise ValueError("viewport canvas must have positive size")

    @classmethod
    def parse(cls, text: str) -> "Viewport":
        parts = text.split(",")
        if len(parts) != 4:
            raise ValueError("viewport must be x0,y0,x1,y1")
        x0, y0, x1, y1 = (float(p) for p in parts)
        return cls(x0, y0, x1, y1)

    def to_canvas(self, x: float, y: float) -> tuple[float, float]:
        """Box coordinates to canvas pixels, y growing downward."""
        sx = (x - self.x0) / (self.x1 - self.x0) * self.width
        sy = self.height - (y - self.y0) / (self.y1 - self.y0) * self.height
        return sx, sy

    def contains(self, x: float, y: float) -> bool:
        return self.x0 <= x <= self.x1 and self.y0 <= y <= self.y1


def _affine(p: Point) -> tuple[float, float] | None:
    if p.w == 0:
        return None
    try:
        x = float(exact_div(p.x, p.w))
        y = float(exact_div(p.y, p.w))
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


def _clip_line(a: float, b: float, c: float, vp: Viewport):
    """The segment of the line ax + by + c = 0 inside the box."""
    n2 = a * a + b * b
    if n2 == 0 or not math.isfinite(n2):
        return None
    p0 = (-a * c / n2, -b * c / n2)
    return _clip_param(p0, (b, -a), vp, -math.inf, math.inf)


def _clip_segment(p, q, vp: Viewport):
    d = (q[0] - p[0], q[1] - p[1])
    if d == (0.0, 0.0):
        return None
    return _clip_param(p, d, vp, 0.0, 1.0)


@dataclass(frozen=True)
class _Stroke:
    ends: tuple[tuple[float, float], tuple[float, float]]
    dashed: bool


@dataclass(frozen=True)
class _Marker:
    name: str
    at: tuple[float, float]
    hollow: bool


def _collect(ast: SceneAst, env: dict):
    """Strokes and markers in statement order, unclipped."""
    strokes = []
    markers = []
    for st in ast.statements:
        if isinstance(st, Decl) and st.kind == "point":
            at = _affine(env[st.name])
            if at is not None:
                hollow = not isinstance(st.expr, tuple)
                markers.append(_Marker(st.name, at, hollow))
        elif isinstance(st, Decl):
            line = env[st.name]
            strokes.append(
                (
                    "line",
                    (float(line.a), float(line.b), float(line.c)),
                    not isinstance(st.expr, tuple)
                    and st.expr.keyword in _DERIVED_LINE,
                )
            )
        elif isinstance(st, GonDecl):
            pts = [_affine(env[v]) for v in st.vertices]
            for i, p in enumerate(pts):
                q = pts[(i + 1) % len(pts)]
                if p is not None and q is not None:
                    strokes.append(("segment", (p, q), False))
    return strokes, markers


def _clipped_strokes(strokes, vp: Viewport):
    out = []
    for kind, payload, dashed in strokes:
        if kind == "line":
            ends = _clip_line(*payload, vp)
        else:
            ends = _clip_segment(*payload, vp)
        if ends is not None:
            out.append(_Stroke(ends, dashed))
    return out


def auto_viewport(ast: SceneAst, backend: Backend = EXACT) -> Viewport:
    """Square box around the finite declared points, 15% margin."""
    _, markers = _collect(ast, evaluate(ast, backend).bindings)
    return _box_around(markers)


def _box_around(markers) -> Viewport:
    # the markers are exactly the finite declared points
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


def _render_svg(strokes, markers, vp: Viewport) -> str:
    w, h = _fmt(vp.width), _fmt(vp.height)
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}"'
        f' viewBox="0 0 {w} {h}">',
        f'<rect x="0" y="0" width="{w}" height="{h}" fill="white"/>',
    ]
    for s in strokes:
        (xa, ya), (xb, yb) = (vp.to_canvas(*e) for e in s.ends)
        dash = ' stroke-dasharray="6 4"' if s.dashed else ""
        out.append(
            f'<line x1="{_fmt(xa)}" y1="{_fmt(ya)}" x2="{_fmt(xb)}"'
            f' y2="{_fmt(yb)}" stroke="black" stroke-width="1"{dash}/>'
        )
    for m in markers:
        if not vp.contains(*m.at):
            continue
        cx, cy = vp.to_canvas(*m.at)
        fill = "white" if m.hollow else "black"
        out.append(
            f'<circle cx="{_fmt(cx)}" cy="{_fmt(cy)}" r="3" fill="{fill}"'
            ' stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(cx + 5)}" y="{_fmt(cy - 5)}"'
            f' font-family="sans-serif" font-size="11">{m.name}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# TeX reads no number and holds no dimension (in points) past 16383.99.
# At TikZ's default unit, 1cm = 28.45274pt, that bounds a coordinate at
# about 575.8; a larger box is drawn at 0.01cm per unit, which holds
# every number TeX reads.
_TEX_MAX = 16383.99
_TIKZ_CM_MAX = _TEX_MAX / 28.45274


def _render_tikz(strokes, markers, vp: Viewport) -> str:
    # every stroke end and drawn marker lies in the clip box, so its
    # corners bound every coordinate written
    corners = {"x0": vp.x0, "y0": vp.y0, "x1": vp.x1, "y1": vp.y1}
    for name, value in corners.items():
        if not abs(value) <= _TEX_MAX:
            raise ValueError(
                f"tikz coordinate {name} = {_fmt(value)} of the \\clip box is"
                f" past {_TEX_MAX}, the largest number TeX reads; choose a"
                " smaller viewport or render svg"
            )
    begin = "\\begin{tikzpicture}"
    if max(abs(v) for v in corners.values()) > _TIKZ_CM_MAX:
        begin += "[x=0.01cm, y=0.01cm]"
    out = [
        begin,
        f"\\clip ({_fmt(vp.x0)}, {_fmt(vp.y0)}) rectangle"
        f" ({_fmt(vp.x1)}, {_fmt(vp.y1)});",
    ]
    for s in strokes:
        (xa, ya), (xb, yb) = s.ends
        style = "dashed" if s.dashed else "solid"
        out.append(
            f"\\draw[{style}] ({_fmt(xa)}, {_fmt(ya)}) --"
            f" ({_fmt(xb)}, {_fmt(yb)});"
        )
    for m in markers:
        if not vp.contains(*m.at):
            continue
        x, y = _fmt(m.at[0]), _fmt(m.at[1])
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
    clipped = _clipped_strokes(strokes, vp)
    if fmt == "svg":
        return _render_svg(clipped, markers, vp)
    return _render_tikz(clipped, markers, vp)
